"""Command-line front end: kle, pce, mc, compare, and sweep runs emitting CSV.

Every output file starts with '#'-prefixed metadata: package version, command,
seed, frame convention, and a full echo of the resolved configuration, so a
CSV is reproducible from its own header.  Volatile metadata (timestamp,
wall-clock timings) lives only in lines starting with '# generated' or
'# timing'; stripping those, two runs with the same config and seed produce
byte-identical files.

Exit codes: 0 success, 1 validation error, 2 numerical error, 3 Monte Carlo
failed to reach its convergence target (suppressed by --allow-unconverged).
"""

import argparse
import datetime
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__
from .config import RunConfig, emit_config, format_float, load_config
from .errors import ConfigError, StochPCEError
from .hierarchy import (
    build_couplings,
    enumerate_indices,
    hermiticity_error,
    initial_pce_state,
    mean_state,
    min_eigenvalue,
    observable_variance,
    propagate,
    trace_error,
)
from .kle import (
    OrnsteinUhlenbeckKernel,
    cumulative_rates,
    ou_modes,
    select_modes,
    solve_fredholm,
)
from .montecarlo import check_sampler, mc_average
from .operators import expectation

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_UNCONVERGED = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 by default; 2 is reserved for numerical errors."""

    def error(self, message):
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="stochpce",
                     description="Polynomial-chaos and Monte Carlo propagation "
                                 "of stochastically driven quantum systems")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("kle", "solve the noise eigenproblem and rank modes"),
            ("pce", "propagate the polynomial-chaos hierarchy"),
            ("mc", "run the Monte Carlo reference solver"),
            ("compare", "run PCE and MC side by side"),
            ("sweep", "scan PCE order (and stochastic dimension)")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to an INI run file")
        cmd.add_argument("--out", help="output path prefix (overrides [output] prefix)")
        cmd.add_argument("--seed", type=int, help="override the [mc] seed")
        cmd.add_argument("--allow-unconverged", action="store_true",
                         help="exit 0 even if MC misses its stderr target")
    return parser


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _header(config: RunConfig, command: str) -> list[str]:
    lines = [f"stochpce {__version__}",
             f"command: {command}",
             f"seed: {config.mc.seed}",
             "frame: outputs are Schrodinger-frame",
             "config:"]
    lines += [f"  {line}" for line in emit_config(config).splitlines()]
    return lines


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(float(value))
    return str(value)


def _write_csv(path: str, stable_comments, volatile_comments, columns, rows):
    parts = [f"# {line}\n" for line in stable_comments]
    parts += [f"# {line}\n" for line in volatile_comments]
    parts.append(",".join(columns) + "\n")
    for row in rows:
        parts.append(",".join(_format_cell(cell) for cell in row) + "\n")
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp_path = path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("".join(parts))
    os.replace(tmp_path, path)


def _solve_modes(config: RunConfig, model):
    """All candidate modes and their ranking rates: one eigenproblem solve,
    in closed form for OU noise and by Nystrom otherwise."""
    ou = isinstance(model.kernel, OrnsteinUhlenbeckKernel)
    modes = (ou_modes if ou else solve_fredholm)(
        model.kernel, config.model.tau, grid_size=config.kle.grid_size,
        n_modes=config.kle.candidate_modes)
    rates = cumulative_rates(modes, model)
    return modes, rates


def _pce_curve(config: RunConfig, model, rho0, observable, kle, couplings):
    """Propagate one hierarchy on the selected modes and the couplings'
    basis; returns per-output-time diagnostics."""
    basis = couplings.basis
    state0 = initial_pce_state(rho0, basis)
    t_out = config.output_times()
    states = propagate(state0, model, kle, couplings, t_out,
                       dt_max=config.pce.dt_max)
    rho = mean_state(states)
    return {"times": t_out, "mean": expectation(observable, rho),
            "variance": observable_variance(states, observable),
            "trace_err": trace_error(states),
            "herm_err": hermiticity_error(states),
            "min_eig": min_eigenvalue(rho), "n_equations": basis.size}


def _write_curve(path: str, header, volatile, curve) -> None:
    """One PCE curve as rows of t and the per-time diagnostics."""
    keys = ("times", "mean", "variance", "trace_err", "herm_err", "min_eig")
    _write_csv(path, header, volatile,
               ["t", "obs_mean", "obs_variance", "trace_err", "herm_err",
                "min_eig"], zip(*(curve[key] for key in keys)))


def _mc_exit(ensemble, allow_unconverged: bool) -> int:
    if ensemble.converged or allow_unconverged:
        return EXIT_OK
    print("monte carlo did not reach its stderr target; "
          "rerun with --allow-unconverged to accept", file=sys.stderr)
    return EXIT_UNCONVERGED


def _mc_observable_means(ensemble, observable) -> np.ndarray:
    return np.einsum("ij,tji->t", observable, ensemble.mean_rho).real


def _cmd_kle(config: RunConfig, prefix: str, _allow_unconverged: bool) -> int:
    model = config.build_model()
    modes, rates = _solve_modes(config, model)
    kle = select_modes(modes, rates, config.kle.s)
    header = _header(config, "kle")
    volatile = [f"generated: {_timestamp()}"]

    grid = modes[0].grid
    modes_header = list(header)
    if isinstance(model.kernel, OrnsteinUhlenbeckKernel):
        total = model.kernel.variance * config.model.tau
        captured = sum(mode.eigenvalue for mode in kle.modes)
        modes_header.append("mode_source: closed-form OU")
        modes_header.append("variance_captured: " + format_float(
            captured / total if total > 0 else float("nan")))
    else:
        modes_header.append(f"mode_source: Nystrom, {grid.size} nodes")
    rows = [(rec.index, rec.eigenvalue, rec.rate, int(rec.selected))
            for rec in kle.selection_report]
    _write_csv(f"{prefix}_modes.csv", modes_header, volatile,
               ["index", "lambda", "gamma", "selected"], rows)

    columns = ["t"] + [f"g{mode.index}" for mode in modes]
    sample_rows = [
        (grid.nodes[k], *(mode.values[k] for mode in modes))
        for k in range(grid.size)]
    _write_csv(f"{prefix}_eigenfunctions.csv", header, volatile,
               columns, sample_rows)
    return EXIT_OK


def _cmd_pce(config: RunConfig, prefix: str, _allow_unconverged: bool) -> int:
    model = config.build_model()
    rho0 = config.build_rho0()
    observable = config.build_observable()
    kle = select_modes(*_solve_modes(config, model), config.kle.s)
    couplings = build_couplings(enumerate_indices(config.kle.s, config.pce.p))
    curve = _pce_curve(config, model, rho0, observable, kle, couplings)
    header = _header(config, "pce")
    header.append(f"n_equations: {curve['n_equations']}")
    header.append("columns: trace_err = max_m |tr phi_m - delta_m0|; "
                  "herm_err = max_m frobenius(phi_m - phi_m^dag); "
                  "min_eig = smallest eigenvalue of the mean state")
    _write_curve(f"{prefix}_pce.csv", header, [f"generated: {_timestamp()}"],
                 curve)
    return EXIT_OK


def _cmd_mc(config: RunConfig, prefix: str, allow_unconverged: bool) -> int:
    model = config.build_model()
    rho0 = config.build_rho0()
    observable = config.build_observable()
    kle = None
    if config.mc.sampler == "kle":
        kle = select_modes(*_solve_modes(config, model), config.kle.s)
    ensemble = mc_average(model, rho0, config.mc, config.output_times(),
                          observable=observable, kle=kle)
    obs_means = _mc_observable_means(ensemble, observable)
    header = _header(config, "mc")
    header.append(f"converged: {int(ensemble.converged)}")
    volatile = [f"generated: {_timestamp()}"]
    rows = [(t, m, s, ensemble.n_used)
            for t, m, s in zip(ensemble.times, obs_means, ensemble.stderr_obs)]
    _write_csv(f"{prefix}_mc.csv", header, volatile,
               ["t", "obs_mean", "obs_stderr", "n_traj"], rows)
    return _mc_exit(ensemble, allow_unconverged)


def _cmd_compare(config: RunConfig, prefix: str, allow_unconverged: bool) -> int:
    model = config.build_model()
    check_sampler(config.mc, model.kernel)
    rho0 = config.build_rho0()
    observable = config.build_observable()

    # The first coupling build in a process loads SciPy; building them
    # before the PCE clock starts keeps that one-time cost out of pce_seconds.
    couplings = build_couplings(enumerate_indices(config.kle.s, config.pce.p))
    start = time.perf_counter()
    kle = select_modes(*_solve_modes(config, model), config.kle.s)
    curve = _pce_curve(config, model, rho0, observable, kle, couplings)
    pce_seconds = time.perf_counter() - start

    start = time.perf_counter()
    # mc_average reads kle only when the [mc] sampler is "kle"
    ensemble = mc_average(model, rho0, config.mc, config.output_times(),
                          observable=observable, kle=kle)
    mc_seconds = time.perf_counter() - start

    mc_means = _mc_observable_means(ensemble, observable)
    abs_diff = np.abs(curve["mean"] - mc_means)
    within = abs_diff <= ensemble.stderr_obs
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(ensemble.stderr_obs > 0, abs_diff / ensemble.stderr_obs,
                         np.where(abs_diff > 0, np.inf, 0.0))
    band_fraction = float(np.mean(within))

    header = _header(config, "compare")
    header.append(
        "summary: "
        f"n_equations={curve['n_equations']} "
        f"n_trajectories={ensemble.n_used} "
        f"max_abs_diff_over_stderr={format_float(float(np.max(ratio)))} "
        f"band_fraction={format_float(band_fraction)} "
        f"converged={int(ensemble.converged)}")
    volatile = [f"generated: {_timestamp()}",
                f"timing: pce_seconds={pce_seconds!r} mc_seconds={mc_seconds!r} "
                f"mc_over_pce={(mc_seconds / pce_seconds)!r}"]
    rows = zip(curve["times"], curve["mean"], mc_means, ensemble.stderr_obs,
               abs_diff, within)
    _write_csv(f"{prefix}_compare.csv", header, volatile,
               ["t", "pce_mean", "mc_mean", "mc_stderr", "abs_diff",
                "within_band"], rows)
    return _mc_exit(ensemble, allow_unconverged)


def _cmd_sweep(config: RunConfig, prefix: str, _allow_unconverged: bool) -> int:
    model = config.build_model()
    rho0 = config.build_rho0()
    observable = config.build_observable()
    modes, rates = _solve_modes(config, model)
    header = _header(config, "sweep")
    volatile = [f"generated: {_timestamp()}"]

    summary_rows = []
    for s in config.sweep.s_values:
        kle = select_modes(modes, rates, s)
        p_values = sorted(set(config.sweep.p_values))
        curves = {p: _pce_curve(config, model, rho0, observable, kle,
                                build_couplings(enumerate_indices(s, p)))
                  for p in p_values}
        reference = curves[p_values[-1]]
        for p in p_values:
            curve = curves[p]
            deviation = float(np.max(np.abs(curve["mean"] - reference["mean"])))
            summary_rows.append((s, p, curve["n_equations"], deviation))
            _write_curve(f"{prefix}_sweep_s{s}_p{p}.csv", header, volatile, curve)
    _write_csv(f"{prefix}_sweep_summary.csv", header, volatile,
               ["s", "p", "n_equations", "max_abs_dev_vs_reference"],
               summary_rows)
    return EXIT_OK


_COMMANDS = {"kle": _cmd_kle, "pce": _cmd_pce, "mc": _cmd_mc,
             "compare": _cmd_compare, "sweep": _cmd_sweep}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed is not None:
            if not 0 <= args.seed < 2**64:
                raise ConfigError(f"--seed must be an unsigned 64-bit integer, "
                                  f"got {args.seed}")
            config = replace(config, mc=replace(config.mc, seed=args.seed))
        prefix = args.out if args.out else config.output.prefix
        return _COMMANDS[args.command](config, prefix, args.allow_unconverged)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except StochPCEError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
