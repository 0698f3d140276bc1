"""stochpce benchmark launcher.

    python3 perfbench/run.py --workload pce_fig2 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Workers (worker.py) are fresh Python
processes started one after another, so one process generates all load: a
closed loop with one client.  The main worker runs the workload's CLI
command in-process through stochpce.cli.main(argv), again and again, until
--seconds is used up and at least MIN_REPS ran.  The workload seed is
forwarded to the CLI as --seed.

--trace 0 reports the end-to-end metrics: wall_s, the median command time
(import excluded); setup_s, the median over SETUP_PROCESSES set-up-only
workers and the main one of the time to import stochpce.cli, load the run
file and build the model; peak_rss_mb, ru_maxrss of the main worker after
its first command.  Both times are rescaled to a reference host speed by a
calibration kernel sampled while they run (calibration.py), because the
shared host's speed drifts by more than the regression bounds; the raw
medians are printed as information.  --trace 1 alternates untraced and
traced repetitions and reports the per-layer metrics (medians over the
traced ones), with trace.overhead_s = median traced wall - median untraced
wall, both unscaled.  Spans are written once, at the end, to
.perfbench_work/<workload>/spans.json.

Metric names and units come from BENCHMARK.json at the checkout root.  Every
repetition checks its output CSV (checks.py); a failed check, an exception
or a non-zero exit counts as a failed operation.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  Without a
stochpce to import, the launcher exits non-zero and prints no such line.
Standard library only, so the launcher stays small and each worker's peak
RSS is its own.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, write_config

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_PROCESSES = 3  # fresh processes that only time set-up, besides the main one
MIN_REPS = {0: 3, 1: 2}
DEADLINE_S = 170  # a run ends within 180 s even if the program hangs
BLAS_THREADS = "1"  # at most nproc; the hot loops do not call BLAS
EXIT_SETUP = 3


class SetupFailed(Exception):
    pass


def _run_worker(workload: str, seed: int, run_dir: str, flags: list,
                timeout: float) -> dict:
    """One worker process; returns its result record, or a record of why
    it produced none."""
    shutil.rmtree(run_dir, ignore_errors=True)
    write_config(workload, run_dir)
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--run-dir", run_dir, *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=timeout,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        return {"failure": f"worker timed out after {timeout:.0f} s"}
    if proc.returncode == EXIT_SETUP:
        raise SetupFailed(proc.stderr.strip())
    if proc.returncode != 0:
        return {"failure": f"worker exited with {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}"}
    with open(os.path.join(run_dir, "result.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run(workload: str, seed: int, seconds: float, trace: int):
    """Set-up-only workers (with --trace 0), then one worker that repeats
    the command for the rest of the time.  Returns (set-up samples, main
    worker result, repetitions)."""
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    work = os.path.join(WORK, workload)
    setups = []
    for pos in range(0 if trace else SETUP_PROCESSES):
        record = _run_worker(workload, seed, os.path.join(work, f"setup{pos}"),
                             ["--setup-only"], deadline - time.perf_counter())
        setups.append(record)
    remaining = seconds - (time.perf_counter() - start)
    flags = ["--seconds", repr(max(remaining, 0.0)), "--min-reps", str(MIN_REPS[trace])]
    if trace:
        flags.append("--trace")
    main = _run_worker(workload, seed, os.path.join(work, "main"), flags,
                       max(1.0, deadline - time.perf_counter()))
    setups.append(main)
    reps = main.get("reps") or [{"traced": False, "problems": [main["failure"]]}]
    return setups, main, reps


def _median(values, median=statistics.median):
    values = [v for v in values if v is not None]
    return median(values) if values else None


def _environment(main: dict, seed: int) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {**main.get("environment", {}), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": int(BLAS_THREADS), "git_commit": commit, "seed": seed}


def _metrics(setups, main: dict, reps, trace: int) -> dict:
    """Every metric this run measures, by name."""
    plain = [r for r in reps if not r["traced"]]
    if not trace:
        return {"wall_s": _median(r.get("scaled_s") for r in plain),
                "setup_s": _median(r.get("scaled_s") for r in setups),
                "peak_rss_mb": main.get("peak_rss_mb")}
    traced = [r for r in reps if "layers" in r]
    # median_low keeps counts whole: they repeat exactly across repetitions
    metrics = {name: _median((r["layers"][name] for r in traced), statistics.median_low)
               for name in (traced[0]["layers"] if traced else ())}
    metrics.update(main.get("probes", {}))
    for name in ("pce_max_abs_err", "mc_max_abs_err", "mc_stderr_max"):
        metrics[name] = _median(r["info"].get(name) for r in traced) or 0.0
    traced_wall = _median(r.get("wall_s") for r in traced)
    plain_wall = _median(r.get("wall_s") for r in plain)
    if traced_wall is not None and plain_wall is not None:
        metrics["trace.overhead_s"] = traced_wall - plain_wall
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}

    try:
        setups, main_result, reps = _run(args.workload, args.seed, args.seconds,
                                         args.trace)
    except SetupFailed as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 1
    failed = [r for r in reps if r["problems"]]
    metrics = _metrics(setups, main_result, reps, args.trace)
    missing = sorted(name for name in declared if metrics.get(name) is None)
    if missing:
        print(f"no measurement for {missing}", file=sys.stderr)
        return 1

    environment = _environment(main_result, args.seed)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(reps)}  set-up samples {len(setups)}")
    print("environment " + json.dumps(environment, sort_keys=True))
    for r in failed:
        print("FAILED: " + "; ".join(r["problems"]))
    print(f"  {'fail_frac':30s} {len(failed) / len(reps)!r:>24} ratio")
    raw = {"wall_raw_s": _median(r.get("wall_s") for r in reps if not r["traced"]),
           "setup_raw_s": _median(r.get("setup_s") for r in setups)}
    for name, value in raw.items():
        print(f"  {name + ' (info)':30s} {value!r:>24} s")
    identical = [r["info"]["rows_identical"] for r in reps
                 if "rows_identical" in r.get("info", {})]
    if identical:
        print(f"  {'rows_identical (info)':30s} {all(identical)!r:>24}")
    for name, value in metrics.items():
        print(f"  {name:30s} {value!r:>24} {declared.get(name, '')}")
    if args.trace:
        os.makedirs(os.path.join(WORK, args.workload), exist_ok=True)
        with open(os.path.join(WORK, args.workload, "spans.json"), "w",
                  encoding="utf-8") as handle:
            json.dump({"environment": environment,
                       "spans": [s for r in reps for s in r.get("spans", ())]},
                      handle)
    print(json.dumps({
        "correct": not failed, "attempted": len(reps), "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
