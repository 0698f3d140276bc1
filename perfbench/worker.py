"""Benchmark repetitions, in a fresh Python process.

    python3 perfbench/worker.py --workload W --seed N --run-dir DIR \
        [--setup-only] [--seconds S --min-reps K [--trace]]

Times the set-up a CLI user pays in a fresh process (import stochpce.cli,
load the run file, build the model).  Unless --setup-only, it then runs the
workload's command in-process through stochpce.cli.main(argv), over and over
until S seconds are used up and at least K repetitions ran, records the
process's peak RSS after the first command, and checks every output CSV.
With --trace, repetitions alternate untraced and traced; a traced one runs
under the span wrappers of spans.py and yields per-layer metrics and spans.
Set-up and untraced repetitions run under the host-speed sampler of
calibration.py, which gives each time as measured and rescaled to the
reference host speed.
Writes DIR/result.json.  Exit code 3 means set-up failed: stochpce could not
be imported from this checkout's src/, or the run file did not load.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

from calibration import (NUMPY_REFERENCE_S, PYTHON_REFERENCE_S, numpy_kernel,
                         python_kernel, timed)

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _setup(config_path: str):
    """Import the CLI and build the model, as the CLI does before any work."""
    sys.path.insert(0, SRC)
    import stochpce.cli
    from stochpce.config import load_config

    if os.path.dirname(os.path.abspath(stochpce.__file__)) != os.path.join(SRC, "stochpce"):
        raise ImportError(f"stochpce imported from {stochpce.__file__}, not {SRC}")
    config = load_config(config_path)
    model = config.build_model()
    return stochpce.cli, config, model


def _environment() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def _repetition(cli, args, argv, out_csv: str, run_id: str, traced: bool,
                kernel) -> dict:
    """Run the command once, timed, and check its output."""
    from checks import check_output
    from spans import Tracer, instrument, layer_metrics

    if os.path.exists(out_csv):
        os.remove(out_csv)
    rep = {"traced": traced, "problems": [], "info": {}}
    tracer = Tracer(run_id)
    try:
        if traced:
            with instrument(tracer), tracer.span("cli.main", "cli"):
                start = time.perf_counter()
                code = cli.main(argv)
                rep["wall_s"] = time.perf_counter() - start
        else:
            code, rep["wall_s"], rep["scaled_s"] = timed(
                lambda: cli.main(argv), kernel, NUMPY_REFERENCE_S)
    except Exception as exc:  # counted as a failed operation
        rep["problems"].append(f"command raised {exc!r}")
        return rep
    if code != 0:
        rep["problems"].append(f"command exited with {code}")
        return rep
    try:
        checked = check_output(args.workload, out_csv, args.seed)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        checked = {"problems": [f"output unreadable: {exc!r}"], "info": {}}
    rep["problems"] += checked["problems"]
    rep["info"] = checked["info"]
    if traced:
        rep["layers"] = layer_metrics(tracer, tracer.spans)
        rep["spans"] = tracer.spans
    return rep


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-reps", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    config_path = os.path.join(args.run_dir, f"{args.workload}.ini")
    try:
        (cli, config, model), setup_s, scaled_s = timed(
            lambda: _setup(config_path), python_kernel, PYTHON_REFERENCE_S)
    except Exception as exc:  # anything here means the benchmark cannot run
        print(f"set-up failed: {exc!r}", file=sys.stderr)
        return 3
    result = {"setup_s": setup_s, "scaled_s": scaled_s, "reps": []}
    if not args.setup_only:
        from spans import probe_metrics
        from workloads import cli_argv, output_path

        out_prefix = os.path.join(args.run_dir, "out", "bench")
        argv = cli_argv(args.workload, config_path, out_prefix, args.seed)
        out_csv = output_path(args.workload, out_prefix)
        run_name = os.path.basename(os.path.normpath(args.run_dir))
        kernel = numpy_kernel()
        start = time.perf_counter()
        rep_times = []
        while True:
            rep_start = time.perf_counter()
            traced = args.trace and len(result["reps"]) % 2 == 1
            run_id = f"{run_name}-rep{len(result['reps'])}"
            result["reps"].append(_repetition(cli, args, argv, out_csv, run_id, traced,
                                              kernel))
            if len(result["reps"]) == 1:
                usage = resource.getrusage(resource.RUSAGE_SELF)
                result["peak_rss_mb"] = usage.ru_maxrss / 1024
            rep_times.append(time.perf_counter() - rep_start)
            elapsed = time.perf_counter() - start
            if (len(result["reps"]) >= args.min_reps
                    and elapsed + statistics.median(rep_times) > args.seconds):
                break
        if args.trace:
            result["probes"] = probe_metrics(config, model)
        result["environment"] = _environment()
    with open(os.path.join(args.run_dir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
