"""Acceptance suite: one test per shipped guarantee, one PASS/FAIL line each.

Every test prints `CRITERION n: PASS/FAIL - <measurements>` before asserting,
so the measured numbers survive into the report either way.  Each criterion
also carries a wall-clock budget, checked alongside the numerical condition.
"""
import math
import time
from importlib import resources

import numpy as np

from oracles import (
    coupling_weights,
    dephasing_coherence,
    galerkin_weight_quadrature,
    hermite_moment_tables,
    ou_kle_eigenvalues,
)
from stochpce import (
    OrnsteinUhlenbeckKernel,
    StochasticModel,
    build_couplings,
    enumerate_indices,
    initial_pce_state,
    mc_average,
    parse_config,
    propagate,
    solve_fredholm,
)
from stochpce.cli import main
from stochpce.hierarchy import (
    hermiticity_error,
    observable_mean,
    trace_error,
)
from stochpce.kle import cumulative_rates, select_modes
from stochpce.montecarlo import MCConfig
from stochpce.operators import SIGMA_X


def _report(number: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def _preset_path(tmp_path, name: str) -> str:
    text = (resources.files("stochpce") / "presets" / f"{name}.ini").read_text()
    path = tmp_path / f"{name}.ini"
    path.write_text(text)
    return str(path)


def _preset_config(name: str):
    text = (resources.files("stochpce") / "presets" / f"{name}.ini").read_text()
    return parse_config(text)


def _read_csv(path: str):
    comments, columns, rows = [], None, []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line[2:] if line.startswith("# ") else line[1:])
            elif columns is None:
                columns = line.split(",")
            else:
                rows.append(line.split(","))
    return comments, columns, rows


def _column(rows, columns, name, dtype=float):
    k = columns.index(name)
    return np.array([dtype(row[k]) for row in rows])


def test_criterion_1_basis_enumeration():
    """Multi-index sets: exact counts and canonical ordering, s <= 6, p <= 10."""
    start = time.perf_counter()
    n_220 = enumerate_indices(3, 9).size
    defects = []
    for s in range(1, 7):
        for p in range(0, 11):
            basis = enumerate_indices(s, p)
            expected = math.comb(s + p, p)
            if basis.size != expected:
                defects.append(f"size({s},{p})={basis.size}!={expected}")
                continue
            indices = basis.indices
            if indices[0] != (0,) * s:
                defects.append(f"({s},{p}) does not start at zero")
            if len(set(indices)) != len(indices):
                defects.append(f"({s},{p}) has duplicates")
            if any(sum(m) > p or min(m) < 0 for m in indices):
                defects.append(f"({s},{p}) leaves the truncation set")
            if list(indices) != sorted(indices, key=lambda m: (sum(m), m)):
                defects.append(f"({s},{p}) not graded-lexicographic")
            if any(basis.lookup[m] != pos for pos, m in enumerate(indices)):
                defects.append(f"({s},{p}) lookup broken")
    elapsed = time.perf_counter() - start

    ok = n_220 == 220 and not defects and elapsed < 1.0
    _report(1, ok,
            f"N(s=3,p=9)={n_220} (want 220); exhaustive s<=6,p<=10: "
            f"{len(defects)} defects{defects[:3] or ''}; {elapsed:.2f}s < 1s")


def test_criterion_2_coupling_weights():
    """Every Galerkin weight for s <= 3, p <= 5 against Gauss-Hermite
    quadrature of E[psi_m xi_n psi_l], including omitted zeros."""
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    for s in range(1, 4):
        for p in range(0, 6):
            basis = enumerate_indices(s, p)
            couplings = build_couplings(basis)
            q0, q1 = hermite_moment_tables(p)
            stored = coupling_weights(couplings)
            for m_pos, m in enumerate(basis.indices):
                for n in range(s):
                    for l_pos, l in enumerate(basis.indices):
                        expected = galerkin_weight_quadrature(m, n, l, q0, q1)
                        got = stored.get((m_pos, n, l_pos), 0.0)
                        worst = max(worst, abs(got - expected))
                        checked += 1
    elapsed = time.perf_counter() - start

    ok = worst <= 1e-10 and elapsed < 30.0
    _report(2, ok,
            f"{checked} (m, n, l) weights checked, max |dev| = {worst:.2e} "
            f"<= 1e-10; {elapsed:.1f}s < 30s")


def test_criterion_3_kle_against_analytic_spectrum():
    """Fredholm solve vs the exponential kernel's transcendental eigenvalues
    (top 8, relative to the dominant eigenvalue) plus the trace identity."""
    start = time.perf_counter()
    details = []
    ok = True
    for tau_c in (0.1, 10.0):
        kernel = OrnsteinUhlenbeckKernel(1.0, tau_c)
        modes = solve_fredholm(kernel, tau=1.0, grid_size=400)
        numeric = np.array([m.eigenvalue for m in modes])
        analytic = ou_kle_eigenvalues(1.0, tau_c, 1.0, 8)
        spec_err = float(np.max(np.abs(numeric[:8] - analytic) / analytic[0]))
        trace_dev = abs(numeric.sum() - kernel.variance * 1.0) / (
            kernel.variance * 1.0)
        ok = ok and spec_err <= 1e-4 and trace_dev <= 1e-8
        details.append(f"tau_c={tau_c}: max|dl|/l1={spec_err:.2e}<=1e-4, "
                       f"trace dev={trace_dev:.1e}<=1e-8")
    elapsed = time.perf_counter() - start

    ok = ok and elapsed < 10.0
    _report(3, ok, "; ".join(details) + f"; {elapsed:.1f}s < 10s")


def test_criterion_4_dephasing_closed_form():
    """Driftless dephasing preset against the exact Gaussian-phase decay:
    chaos solver to 2e-3, Monte Carlo within three standard errors."""
    start = time.perf_counter()
    config = _preset_config("dephasing_oracle")
    model = config.build_model()
    rho0 = config.build_rho0()
    t_out = config.output_times()
    exact = dephasing_coherence(config.noise.alpha, config.noise.tau_c, t_out)

    modes = solve_fredholm(model.kernel, config.model.tau,
                           grid_size=config.kle.grid_size,
                           n_modes=config.kle.candidate_modes)
    rates = cumulative_rates(modes, model)
    kle = select_modes(modes, rates, config.kle.s)
    basis = enumerate_indices(config.kle.s, config.pce.p)
    states = propagate(initial_pce_state(rho0, basis), model, kle,
                       build_couplings(basis), t_out,
                       dt_max=config.pce.dt_max)
    pce = np.array([observable_mean(st, SIGMA_X) for st in states])
    pce_err = float(np.max(np.abs(pce - exact)))

    ensemble = mc_average(model, rho0, config.mc, t_out)
    mc_means = np.einsum("ij,tji->t", SIGMA_X, ensemble.mean_rho).real
    mc_sigmas = float(np.max(
        np.abs(mc_means - exact) / np.maximum(ensemble.stderr_obs, 1e-12)))
    elapsed = time.perf_counter() - start

    ok = (pce_err <= 2e-3 and ensemble.converged and mc_sigmas <= 3.0
          and elapsed < 60.0)
    _report(4, ok,
            f"PCE(s=3,p=6) max|err|={pce_err:.2e}<=2e-3; MC converged="
            f"{ensemble.converged} n={ensemble.n_used}, max|err|/stderr="
            f"{mc_sigmas:.2f}<=3; {elapsed:.1f}s < 60s")


def test_criterion_5_strong_noise_benchmark(tmp_path):
    """Strong-noise benchmark preset, full compare pipeline: the converged
    Monte Carlo band (stderr <= 5e-3 at 200 output times) should contain the
    order-9, three-mode chaos curve at >= 95% of the grid, with the chaos
    solve beating Monte Carlo on wall clock."""
    start = time.perf_counter()
    cfg = _preset_path(tmp_path, "fig2")
    prefix = str(tmp_path / "fig2")
    rc = main(["compare", "--config", cfg, "--out", prefix])
    comments, columns, rows = _read_csv(f"{prefix}_compare.csv")

    summary = next(c for c in comments if c.startswith("summary:"))
    fields = dict(part.split("=") for part in summary.split()[1:])
    timing = next(c for c in comments if c.startswith("timing:"))
    tfields = dict(part.split("=") for part in timing.split()[1:])

    band_fraction = float(fields["band_fraction"])
    max_ratio = float(fields["max_abs_diff_over_stderr"])
    converged = fields["converged"] == "1" and rc == 0
    n_points = len(rows)
    max_stderr = float(np.max(_column(rows, columns, "mc_stderr")))
    pce_seconds = float(tfields["pce_seconds"])
    mc_seconds = float(tfields["mc_seconds"])
    elapsed = time.perf_counter() - start

    c_grid = n_points == 200
    c_conv = converged and max_stderr <= 5e-3
    c_speed = pce_seconds < mc_seconds
    c_band = band_fraction >= 0.95
    ok = c_grid and c_conv and c_speed and c_band and elapsed < 300.0
    _report(5, ok,
            f"band_fraction={band_fraction:.3f} (need >=0.95), "
            f"max|diff|/stderr={max_ratio:.1f}, n_times={n_points}, "
            f"MC converged={converged} n_traj={fields['n_trajectories']} "
            f"max_stderr={max_stderr:.2e}<=5e-3, "
            f"pce {pce_seconds:.2f}s < mc {mc_seconds:.2f}s; "
            f"{elapsed:.0f}s < 300s")


def test_criterion_6_spectral_gap_regimes():
    """Long correlation concentrates the spectrum (lambda1/lambda2 > 10);
    short correlation flattens it (ratio < 3)."""
    start = time.perf_counter()
    ratios = {}
    for tau_c in (10.0, 0.1):
        modes = solve_fredholm(OrnsteinUhlenbeckKernel(1.0, tau_c), tau=1.0,
                               grid_size=400, n_modes=2)
        ratios[tau_c] = modes[0].eigenvalue / modes[1].eigenvalue
    elapsed = time.perf_counter() - start

    ok = ratios[10.0] > 10.0 and ratios[0.1] < 3.0 and elapsed < 10.0
    _report(6, ok,
            f"lambda1/lambda2: tau_c=10 -> {ratios[10.0]:.1f} (>10), "
            f"tau_c=0.1 -> {ratios[0.1]:.2f} (<3); {elapsed:.1f}s < 10s")


def test_criterion_7_order_convergence_sweep(tmp_path):
    """Strong-noise preset, s = 3: max deviation from the order-9 reference
    must be non-increasing across p = 1, 3, 5, 7 (10% slack)."""
    start = time.perf_counter()
    cfg = _preset_path(tmp_path, "fig2")
    prefix = str(tmp_path / "fig2")
    rc = main(["sweep", "--config", cfg, "--out", prefix])
    _, columns, rows = _read_csv(f"{prefix}_sweep_summary.csv")
    devs = {(int(r[columns.index("s")]), int(r[columns.index("p")])):
            float(r[columns.index("max_abs_dev_vs_reference")]) for r in rows}
    chain = [devs[(3, p)] for p in (1, 3, 5, 7)]
    monotone = all(chain[k + 1] <= 1.1 * chain[k] for k in range(3))
    elapsed = time.perf_counter() - start

    ok = rc == 0 and monotone and elapsed < 180.0
    _report(7, ok,
            "dev vs p=9 reference at p=1,3,5,7: "
            + ", ".join(f"{d:.3f}" for d in chain)
            + f" (non-increasing, 10% slack); {elapsed:.0f}s < 180s")


def test_criterion_8_structural_invariants():
    """Trace/hermiticity conservation, RK4 refinement order, and 1/sqrt(n)
    error scaling."""
    start = time.perf_counter()
    rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)

    # (a) conservation along the strong-noise benchmark hierarchy
    config = _preset_config("fig2")
    model = config.build_model()
    modes = solve_fredholm(model.kernel, 1.0, grid_size=400, n_modes=12)
    rates = cumulative_rates(modes, model)
    kle = select_modes(modes, rates, 3)
    basis = enumerate_indices(3, 9)
    states = propagate(initial_pce_state(rho0, basis), model, kle,
                       build_couplings(basis), np.linspace(0.0, 1.0, 21),
                       dt_max=config.pce.dt_max)
    max_trace = max(trace_error(st) for st in states)
    max_herm = max(hermiticity_error(st) for st in states)
    c_conserve = max_trace <= 1e-8 and max_herm <= 1e-8

    # (b) RK4 order: error vs a dt/4 reference drops ~17x when dt halves
    small = StochasticModel(h0=model.h0, v=model.v,
                            kernel=OrnsteinUhlenbeckKernel(1.0, 1.0),
                            horizon=0.5)
    modes_small = solve_fredholm(small.kernel, 0.5, grid_size=200, n_modes=12)
    rates_small = cumulative_rates(modes_small, small)
    kle_small = select_modes(modes_small, rates_small, 2)
    basis_small = enumerate_indices(2, 3)
    couplings_small = build_couplings(basis_small)
    finals = []
    for step in (0.5 / 8, 0.5 / 16, 0.5 / 32):
        result = propagate(initial_pce_state(rho0, basis_small), small,
                           kle_small, couplings_small, [0.0, 0.5],
                           dt_max=step)[-1]
        finals.append(result.coefficients)
    factor = float(np.max(np.abs(finals[0] - finals[2]))
                   / np.max(np.abs(finals[1] - finals[2])))
    c_rk4 = 10.0 <= factor <= 24.0

    # (c) quadrupling trajectories halves the standard error
    t_out = np.linspace(0.0, 1.0, 6)
    ratios = []
    for seed in (11, 22, 33):
        small_run = mc_average(model, rho0,
                               MCConfig(n_traj=400, dt=0.01, seed=seed,
                                        batch=400, stderr_target=1e-12),
                               t_out)
        large_run = mc_average(model, rho0,
                               MCConfig(n_traj=1600, dt=0.01, seed=seed,
                                        batch=1600, stderr_target=1e-12),
                               t_out)
        ratios.append(np.mean(large_run.stderr_obs[1:]
                              / small_run.stderr_obs[1:]))
    scaling = float(np.mean(ratios))
    c_scaling = 0.4 <= scaling <= 0.6
    elapsed = time.perf_counter() - start

    ok = c_conserve and c_rk4 and c_scaling and elapsed < 120.0
    _report(8, ok,
            f"trace={max_trace:.1e}<=1e-8, herm={max_herm:.1e}<=1e-8; "
            f"RK4 refinement factor={factor:.1f} in [10,24]; "
            f"stderr ratio(4x)={scaling:.3f} in [0.4,0.6]; "
            f"{elapsed:.0f}s < 120s")
