"""Trajectory sampler, piecewise-exact stepping, and the ensemble engine."""
import math
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

from oracles import ou_path_lfilter, static_realization_sx, trajectory_states_loop
from stochpce import (
    IDENTITY,
    SIGMA_X,
    SIGMA_Z,
    CapacityError,
    DimensionMismatchError,
    MCConfig,
    OrnsteinUhlenbeckKernel,
    StochasticModel,
    mc_average,
)
from stochpce import montecarlo
from stochpce.config import parse_config
from stochpce.hierarchy import enumerate_indices, initial_pce_state, mean_state
from stochpce.kle import cumulative_rates, select_modes, solve_fredholm
from stochpce.montecarlo import sample_ou_path, trajectory_rng
from stochpce.operators import frame_rotations

RHO_PLUS_X = 0.5 * IDENTITY + 0.5 * SIGMA_X
RHO_PLUS_Z = 0.5 * IDENTITY + 0.5 * SIGMA_Z


def make_model(alpha=3.0, tau_c=10.0, h0=SIGMA_X, v=SIGMA_Z, horizon=1.0):
    return StochasticModel(h0=h0, v=v,
                           kernel=OrnsteinUhlenbeckKernel(alpha, tau_c),
                           horizon=horizon)


def states_along(model, path, rho0):
    """Schrodinger-frame state at every point of a path sampled on the
    uniform grid linspace(0, horizon, len(path)), from the one block stepper."""
    t_grid = np.linspace(0.0, model.horizon, path.size)
    out = np.empty((1, path.size, model.dim, model.dim), dtype=complex)
    montecarlo._TrajectoryStepper(model, t_grid).propagate(
        path[None, :], rho0, np.arange(path.size), out)
    return out[0]


def sx_curve(rhos):
    """<sigma_x> of each Schrodinger-frame state."""
    return np.einsum("ij,tji->t", SIGMA_X, rhos).real


# A qutrit whose h0 and v are complex, non-diagonal and do not commute.
H0_3 = np.array([[1.0, 0.3 - 0.2j, 0.0],
                 [0.3 + 0.2j, -0.4, 0.5j],
                 [0.0, -0.5j, 0.2]])
V_3 = np.array([[0.5, 0.2 + 0.7j, -0.1j],
                [0.2 - 0.7j, -0.3, 0.4],
                [0.1j, 0.4, 0.1]])
RHO_3 = np.array([[0.5, 0.2, 0.1j],
                  [0.2, 0.3, 0.0],
                  [-0.1j, 0.0, 0.2]])


def stepper_case(name, n_paths):
    """Model, initial state, 301-point grid, every third index recorded, and
    n_paths exact-OU paths from the seed-12345 substreams."""
    if name == "fig2":
        model, rho0 = make_model(), RHO_PLUS_X
    else:
        model, rho0 = make_model(alpha=2.0, tau_c=1.0, h0=H0_3, v=V_3), RHO_3
    t_grid = np.linspace(0.0, 1.0, 301)
    rngs = [trajectory_rng(12345, i) for i in range(n_paths)]
    paths = montecarlo.sample_ou_paths(model.kernel, t_grid, rngs)
    return model, rho0, t_grid, np.arange(0, 301, 3), paths


class TestMCConfig:
    def test_accepts_reasonable_values(self):
        config = MCConfig(n_traj=100, dt=0.01, seed=7)
        assert config.sampler == "exact_ou"
        assert config.batch == 500
        assert MCConfig(n_traj=np.int64(100), dt=0.01, seed=np.uint64(7)).seed == 7

    @pytest.mark.parametrize("kwargs", [
        dict(n_traj=1, dt=0.01, seed=1),
        dict(n_traj=10, dt=0.0, seed=1),
        dict(n_traj=10, dt=0.01, seed=-1),
        dict(n_traj=10, dt=0.01, seed=2**64),
        dict(n_traj=10, dt=0.01, seed=1, sampler="bogus"),
        dict(n_traj=10, dt=0.01, seed=1, batch=0),
        dict(n_traj=10, dt=0.01, seed=1, stderr_target=0.0),
        dict(n_traj=10, dt=float("nan"), seed=1),
        dict(n_traj=10, dt=0.01, seed=1, stderr_target=float("nan")),
        dict(n_traj=10.5, dt=0.01, seed=1),
        dict(n_traj=10.0, dt=0.01, seed=1),
        dict(n_traj=10, dt=0.01, seed=1, batch=2.5),
        dict(n_traj=10, dt=0.01, seed=1.9),
        dict(n_traj=10, dt=0.01, seed=True),
        dict(n_traj=10, dt=0.01, seed=1, batch=True),
        dict(n_traj="10", dt=0.01, seed=1),
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            MCConfig(**kwargs)


class TestTrajectoryRNG:
    def test_pure_in_seed_and_index(self):
        a = trajectory_rng(5, 3).standard_normal(4)
        b = trajectory_rng(5, 3).standard_normal(4)
        np.testing.assert_array_equal(a, b)

    def test_streams_are_distinct(self):
        a = trajectory_rng(5, 3).standard_normal(4)
        b = trajectory_rng(5, 4).standard_normal(4)
        c = trajectory_rng(6, 3).standard_normal(4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestOUSampler:
    def test_zero_amplitude_gives_zero_path(self):
        kernel = OrnsteinUhlenbeckKernel(0.0, 1.0)
        path = sample_ou_path(kernel, np.linspace(0, 1, 11),
                              np.random.default_rng(0))
        np.testing.assert_array_equal(path, np.zeros(11))

    def test_rejects_nonuniform_grid(self):
        kernel = OrnsteinUhlenbeckKernel(1.0, 1.0)
        with pytest.raises(ValueError):
            sample_ou_path(kernel, np.array([0.0, 0.1, 0.3]),
                           np.random.default_rng(0))

    def test_stationary_covariance(self):
        """Sample covariance must match alpha^2 exp(-lag/tau_c) at zero,
        medium, and long lag within four standard errors."""
        alpha, tau_c = 1.5, 0.3
        kernel = OrnsteinUhlenbeckKernel(alpha, tau_c)
        t_grid = np.linspace(0.0, 1.0, 26)
        n_paths = 20000
        rng = np.random.default_rng(42)
        # one generator for every row: rows draw from it in turn
        paths = montecarlo.sample_ou_paths(kernel, t_grid, [rng] * n_paths)

        for k in (0, 12, 25):
            expected = alpha**2 * np.exp(-t_grid[k] / tau_c)
            got = np.mean(paths[:, 0] * paths[:, k])
            c00 = alpha**2
            ckk = alpha**2
            stderr = np.sqrt((c00 * ckk + expected**2) / n_paths)
            assert abs(got - expected) < 4 * stderr, f"lag index {k}"
        # marginal variance along the grid (stationarity)
        var_end = np.mean(paths[:, -1] ** 2)
        assert abs(var_end - alpha**2) < 4 * alpha**2 * np.sqrt(2 / n_paths)

    @pytest.mark.parametrize("block", [1, 7, 128])
    @pytest.mark.parametrize("alpha,tau_c", [(3.0, 10.0), (1.5, 1e-3)],
                             ids=["fig2", "short_tau_c"])
    def test_block_sampler_matches_lfilter(self, alpha, tau_c, block):
        """The block recursion gives bitwise the lfilter path of each
        trajectory's substream, alone or in a block, on fig2's MC step grid
        (598 points, r = exp(-dt/10)) and with r = exp(-dt/1e-3)."""
        model = make_model(alpha=alpha, tau_c=tau_c)
        config = MCConfig(n_traj=1000, dt=0.002, seed=12345)
        engine = montecarlo._EnsembleEngine(model, RHO_PLUS_X, config,
                                            np.linspace(0.0, 1.0, 200),
                                            SIGMA_X, None)
        assert engine.t_grid.size == 598
        indices = range(5, 5 + block)
        paths = engine.sample_paths(indices)
        assert paths.shape == (block, 598)
        for row, index in enumerate(indices):
            expected = ou_path_lfilter(alpha, tau_c, engine.t_grid,
                                       trajectory_rng(12345, index))
            np.testing.assert_array_equal(paths[row], expected)
            np.testing.assert_array_equal(
                sample_ou_path(model.kernel, engine.t_grid,
                               trajectory_rng(12345, index)), expected)

    @pytest.mark.parametrize("t_grid", [np.array([]), np.array([0.0]),
                                        np.linspace(0.0, -1.0, 5),
                                        np.array([0.0, np.inf]),
                                        np.array([0.0, np.nan])])
    def test_rejects_grid_without_a_step(self, t_grid):
        kernel = OrnsteinUhlenbeckKernel(1.0, 1.0)
        with pytest.raises(ValueError):
            sample_ou_path(kernel, t_grid, np.random.default_rng(0))
        with pytest.raises(ValueError):
            montecarlo.sample_ou_paths(kernel, t_grid,
                                       [np.random.default_rng(0)] * 3)


class TestTrajectoryPropagation:
    def test_zero_path_gives_bare_drift(self):
        """A zero path leaves only h0: rho(t) = U0(t) rho0 U0(t)^dag, with a
        rho0 that does not commute with h0 = sigma_x, so it moves."""
        model = make_model()
        t_grid = np.linspace(0.0, 1.0, 51)
        rhos = states_along(model, np.zeros(51), RHO_PLUS_Z)
        assert rhos.shape == (51, 2, 2)
        u0 = frame_rotations(model, t_grid)
        expected = u0 @ RHO_PLUS_Z @ u0.conj().transpose(0, 2, 1)
        assert np.max(np.abs(expected[-1] - RHO_PLUS_Z)) > 0.1
        np.testing.assert_allclose(rhos, expected, rtol=0, atol=1e-12)

    def test_constant_path_pure_dephasing_is_exact(self):
        """With h0 = 0 each step unitary is exact, so a constant path gives
        <sigma_x> = cos(2 omega t) to machine precision at any dt."""
        omega = 0.7
        model = make_model(h0=np.zeros((2, 2), dtype=complex))
        t_grid = np.linspace(0.0, 1.0, 21)
        rhos = states_along(model, np.full(21, omega), RHO_PLUS_X)
        got = sx_curve(rhos)
        np.testing.assert_allclose(got, np.cos(2 * omega * t_grid), atol=1e-12)

    def test_constant_path_matches_rabi_formula(self):
        """Frozen noise against the closed-form Bloch answer.

        Regression guard for the drift half steps (nondiagonal h0),
        independent of every other solver in the package.
        """
        omega = 0.5
        model = make_model()
        n = 2001  # dt = 5e-4
        t_grid = np.linspace(0.0, 1.0, n)
        rhos = states_along(model, np.full(n, omega), RHO_PLUS_X)
        got = sx_curve(rhos[:: (n - 1) // 10])
        expected = static_realization_sx(omega, t_grid[:: (n - 1) // 10])
        np.testing.assert_allclose(got, expected, atol=1e-5)

    def test_second_order_self_consistency(self):
        """Midpoint splitting is 2nd order: successive dt-halvings shrink the
        change in the final observable by ~4x on a smooth path."""
        model = make_model()

        def final_sx(n_points):
            t = np.linspace(0.0, 1.0, n_points)
            path = np.sin(3.0 * t) + 0.5
            return float(sx_curve(states_along(model, path, RHO_PLUS_X))[-1])

        f1, f2, f4 = final_sx(101), final_sx(201), final_sx(401)
        ratio = abs(f1 - f2) / abs(f2 - f4)
        assert 2.8 <= ratio <= 5.5

    def test_trace_and_positivity_preserved(self):
        model = make_model()
        rng = np.random.default_rng(9)
        path = sample_ou_path(model.kernel, np.linspace(0, 1, 201), rng)
        rhos = states_along(model, path, RHO_PLUS_X)
        traces = np.trace(rhos, axis1=1, axis2=2)
        np.testing.assert_allclose(traces, 1.0, atol=1e-12)
        for rho in rhos[::50]:
            assert np.linalg.eigvalsh(rho).min() > -1e-12

    @pytest.mark.parametrize("block", [1, 7, montecarlo.BLOCK_SIZE])
    @pytest.mark.parametrize("name", ["fig2", "qutrit"])
    def test_block_rows_match_single_row_runs(self, name, block):
        """A row of a block gets bitwise the states of the same stepper run
        on that row alone, so a trajectory does not depend on its block."""
        model, rho0, t_grid, record_idx, paths = stepper_case(name, block)
        stepper = montecarlo._TrajectoryStepper(model, t_grid)
        d = model.dim
        out = np.empty((block, record_idx.size, d, d), dtype=complex)
        stepper.propagate(paths, rho0, record_idx, out)
        if block > 1:
            assert not np.array_equal(out[0, -1], out[1, -1])
        for row, path in enumerate(paths):
            alone = np.empty((1, record_idx.size, d, d), dtype=complex)
            stepper.propagate(path[None, :], rho0, record_idx, alone)
            np.testing.assert_array_equal(out[row], alone[0])

    def test_block_stepper_matches_per_trajectory_loop(self):
        """The Strang-split stepper agrees with the one-unitary-at-a-time
        rotating-frame loop, carried to the Schrodinger frame by U0 at the
        record times, on fig2 and on a qutrit whose h0 does not commute
        with v.  Against a 30-digit run of the same scheme the loop is off
        by 1.3e-15 (fig2) and 1.2e-15 (qutrit) after 300 steps and the
        stepper by 8.8e-15 and 2.5e-14."""
        for name in ("fig2", "qutrit"):
            model, rho0, t_grid, record_idx, paths = stepper_case(name, 4)
            out = np.empty((4, record_idx.size, model.dim, model.dim),
                           dtype=complex)
            montecarlo._TrajectoryStepper(model, t_grid).propagate(
                paths, rho0, record_idx, out)
            u0 = frame_rotations(model, t_grid[record_idx])
            for row, path in enumerate(paths):
                rotating = trajectory_states_loop(model.h0, model.v, t_grid,
                                                  path, rho0, record_idx)
                expected = u0 @ rotating @ u0.conj().transpose(0, 2, 1)
                np.testing.assert_allclose(out[row], expected, rtol=0,
                                           atol=1e-13, err_msg=name)

    def test_rejects_short_path(self):
        with pytest.raises(ValueError):
            montecarlo._TrajectoryStepper(make_model(), np.array([0.0]))


class TestEnsemble:
    def test_zero_noise_recovers_drift_exactly(self):
        """alpha = 0: every trajectory is the bare drift, stderr vanishes and
        the run converges after one batch."""
        model = make_model(alpha=0.0)
        t_out = np.linspace(0.0, 1.0, 6)
        config = MCConfig(n_traj=50, dt=0.01, seed=3, batch=10,
                          stderr_target=1e-6)
        result = mc_average(model, RHO_PLUS_X, config, t_out)
        assert result.converged
        assert result.n_used == 10
        assert np.max(result.stderr_obs) < 1e-6
        u0 = frame_rotations(model, t_out)
        np.testing.assert_allclose(
            result.obs_mean,
            sx_curve(u0 @ RHO_PLUS_X @ u0.conj().transpose(0, 2, 1)),
            rtol=0, atol=1e-12)

    def test_initial_time_reports_rho0_exactly(self):
        """U0(0) is exactly the identity, so at t = 0 Monte Carlo reports
        rho0's <sx> itself and its stderr is exactly zero (fig2 model); the
        chaos mean there is phi_0 = rho0."""
        model = make_model()
        np.testing.assert_array_equal(frame_rotations(model, 0.0),
                                      np.eye(2, dtype=complex))
        config = MCConfig(n_traj=40, dt=0.01, seed=3, batch=20,
                          stderr_target=1e-12)
        result = mc_average(model, RHO_PLUS_X, config, np.linspace(0, 1, 6))
        assert result.stderr_obs[0] == 0.0
        assert result.obs_mean[0] == sx_curve(RHO_PLUS_X[None])[0] == 1.0
        state = initial_pce_state(RHO_PLUS_X, enumerate_indices(3, 2))
        np.testing.assert_array_equal(mean_state(state), RHO_PLUS_X)

    def test_deterministic_in_seed(self):
        model = make_model()
        t_out = np.linspace(0.0, 1.0, 6)
        config = MCConfig(n_traj=120, dt=0.01, seed=21, batch=40,
                          stderr_target=1e-12)
        a = mc_average(model, RHO_PLUS_X, config, t_out)
        b = mc_average(model, RHO_PLUS_X, config, t_out)
        np.testing.assert_array_equal(a.obs_mean, b.obs_mean)
        np.testing.assert_array_equal(a.stderr_obs, b.stderr_obs)

        other = MCConfig(n_traj=120, dt=0.01, seed=22, batch=40,
                         stderr_target=1e-12)
        c = mc_average(model, RHO_PLUS_X, other, t_out)
        assert not np.array_equal(a.obs_mean, c.obs_mean)

    def test_block_size_does_not_change_results(self, monkeypatch):
        """Blocks split a batch but never reorder the reduction, so the
        ensemble is bitwise identical to stepping each batch as one block,
        for any block size, with either sampler."""
        model = make_model()
        modes = solve_fredholm(model.kernel, 1.0, 200, 12)
        kle = select_modes(modes, cumulative_rates(modes, model), 3)
        t_out = np.linspace(0.0, 1.0, 6)
        cases = [
            dict(n_traj=90, batch=30, block_size=7),
            # 290 is not a multiple of the block size
            dict(n_traj=580, batch=290),
            dict(n_traj=580, batch=290, block_size=7),
        ]
        for sampler in ("exact_ou", "kle"):
            for case in cases:
                case = dict(case)
                block_size = case.pop("block_size", montecarlo.BLOCK_SIZE)
                config = MCConfig(**case, dt=0.01, seed=13, sampler=sampler,
                                  stderr_target=1e-12)
                runs = []
                for size in (config.batch, block_size):
                    with monkeypatch.context() as patch:
                        patch.setattr(montecarlo, "BLOCK_SIZE", size)
                        runs.append(mc_average(model, RHO_PLUS_X, config, t_out,
                                               kle=kle))
                whole, blocked = runs
                np.testing.assert_array_equal(whole.obs_mean, blocked.obs_mean)
                np.testing.assert_array_equal(whole.stderr_obs, blocked.stderr_obs)
                assert whole.n_used == blocked.n_used == case["n_traj"]

    def test_memory_holds_one_block_of_states(self):
        """A batch keeps only its observable samples; the recorded states of
        one block at a time are dropped once read.  A qutrit batch of 1000
        trajectories at 201 output times once held all their states, a
        traced peak of 32.3 MB; now it is 5.8 MB."""
        model = make_model(alpha=2.0, tau_c=1.0, h0=H0_3, v=V_3)
        config = MCConfig(n_traj=1000, dt=0.005, seed=9, batch=1000,
                          stderr_target=1e-12)
        tracemalloc.start()
        try:
            result = mc_average(model, RHO_3, config,
                                np.linspace(0.0, 1.0, 201), observable=V_3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.n_used == 1000
        assert peak <= 10e6

    def test_oversized_batch_is_a_capacity_error(self, monkeypatch):
        """One batch's (batch, n_out) float samples plus one block's complex
        (rows, n_out, d, d) states over MAX_BATCH_BYTES raise before any
        trajectory runs; fig2 with a 10^12-trajectory batch once died on an
        11.4 PiB allocation.  The bound is inclusive: 6 output times, a
        batch of 10 in one block, 6 (10 * 8 + 10 * 4 * 16) = 4320 bytes."""
        t_out = np.linspace(0.0, 1.0, 6)
        config = MCConfig(n_traj=10, dt=0.01, seed=1, batch=10)
        monkeypatch.setattr(montecarlo, "MAX_BATCH_BYTES", 4320)
        assert mc_average(make_model(), RHO_PLUS_X, config, t_out).n_used == 10
        monkeypatch.setattr(montecarlo, "MAX_BATCH_BYTES", 4319)
        with pytest.raises(CapacityError, match="4320 bytes"):
            mc_average(make_model(), RHO_PLUS_X, config, t_out)
        monkeypatch.undo()
        huge = MCConfig(n_traj=10**12, dt=0.002, seed=1, batch=10**12)
        with pytest.raises(CapacityError,
                           match=r"lower \[mc\] batch or \[pce\] output_points"):
            mc_average(make_model(), RHO_PLUS_X, huge, np.linspace(0, 1, 200))

    def test_stderr_scales_inverse_sqrt(self):
        """Quadrupling the trajectory budget halves the standard error;
        the time-averaged ratio over three seeds sits in [0.4, 0.6]."""
        model = make_model()
        t_out = np.linspace(0.0, 1.0, 11)
        ratios = []
        for seed in (101, 202, 303):
            small = mc_average(model, RHO_PLUS_X,
                               MCConfig(n_traj=400, dt=0.01, seed=seed,
                                        batch=400, stderr_target=1e-12),
                               t_out)
            large = mc_average(model, RHO_PLUS_X,
                               MCConfig(n_traj=1600, dt=0.01, seed=seed,
                                        batch=1600, stderr_target=1e-12),
                               t_out)
            ratios.append(np.mean(large.stderr_obs[1:] / small.stderr_obs[1:]))
        assert 0.4 <= np.mean(ratios) <= 0.6

    def test_stderr_matches_exact_rational_two_pass(self):
        """fig1_bottom's <sx> sits near +-1 with a spread down to ~1e-4, where
        a one-pass variance loses about 7 digits.  Over 400 trajectories, in
        one batch or merged from several, the mean and the stderr match an
        exact rational two-pass sum over the same samples to 1e-15
        relative."""
        text = (resources.files("stochpce") / "presets" / "fig1_bottom.ini").read_text()
        run = parse_config(text)
        model, rho0 = run.build_model(), run.build_rho0()
        config = replace(run.mc, n_traj=400, stderr_target=1e-12)
        t_out = run.output_times()
        engine = montecarlo._EnsembleEngine(model, rho0, config, t_out,
                                            SIGMA_X, None)
        samples = np.empty((400, t_out.size))
        engine.run_block(range(400), samples)
        exact, exact_mean = np.empty(t_out.size), np.empty(t_out.size)
        for j in range(t_out.size):
            column = [Fraction(float(x)) for x in samples[:, j]]
            mean = sum(column) / 400
            variance = sum((x - mean) ** 2 for x in column) / 399
            exact[j] = math.sqrt(variance / 400)
            exact_mean[j] = float(mean)
        assert exact[0] == 0.0 and np.min(exact[1:]) < 1e-5
        for batch in (500, 100, 37):  # the preset's one batch, then merges
            result = mc_average(model, rho0, replace(config, batch=batch), t_out)
            np.testing.assert_allclose(result.obs_mean, exact_mean,
                                       rtol=1e-15, atol=0)
            assert result.stderr_obs[0] == 0.0
            np.testing.assert_allclose(result.stderr_obs[1:], exact[1:],
                                       rtol=1e-15, atol=0)

    def test_early_stop_on_convergence(self):
        model = make_model(alpha=0.3)
        config = MCConfig(n_traj=5000, dt=0.01, seed=5, batch=100,
                          stderr_target=0.05)
        result = mc_average(model, RHO_PLUS_X, config, np.linspace(0, 1, 6))
        assert result.converged
        assert result.n_used < 5000
        assert result.n_used % 100 == 0
        assert np.max(result.stderr_obs) <= 0.05

    def test_kle_sampler_needs_modes(self):
        model = make_model()
        config = MCConfig(n_traj=10, dt=0.01, seed=1, sampler="kle")
        with pytest.raises(ValueError):
            mc_average(model, RHO_PLUS_X, config, np.linspace(0, 1, 6))

    def test_kle_block_rows_are_per_row_products(self):
        """A kle block is one xi @ scaled_modes product per row, bitwise: a
        (B, s) @ (s, n) product differs in the last bits on fig2."""
        model = make_model()
        modes = solve_fredholm(model.kernel, 1.0, 200, 12)
        kle = select_modes(modes, cumulative_rates(modes, model), 3)
        config = MCConfig(n_traj=1000, dt=0.002, seed=12345, sampler="kle")
        engine = montecarlo._EnsembleEngine(model, RHO_PLUS_X, config,
                                            np.linspace(0.0, 1.0, 200),
                                            SIGMA_X, kle)
        indices = range(5, 5 + 128)
        paths = engine.sample_paths(indices)
        for row, index in enumerate(indices):
            xi = trajectory_rng(12345, index).standard_normal(3)
            np.testing.assert_array_equal(paths[row], xi @ engine.scaled_modes)

    def test_kle_sampler_agrees_when_truncation_is_mild(self):
        """At tau_c = 10 three modes carry almost the whole kernel, so the
        surrogate sampler must land on the exact sampler within noise."""
        model = make_model()
        modes = solve_fredholm(model.kernel, 1.0, 200, 12)
        rates = cumulative_rates(modes, model)
        kle = select_modes(modes, rates, 3)
        t_out = np.linspace(0.0, 1.0, 6)

        def run(sampler, seed):
            config = MCConfig(n_traj=600, dt=0.01, seed=seed, batch=600,
                              sampler=sampler, stderr_target=1e-12)
            return mc_average(model, RHO_PLUS_X, config, t_out,
                              kle=kle if sampler == "kle" else None)

        exact = run("exact_ou", 31)
        surrogate = run("kle", 77)
        gap = np.abs(exact.obs_mean - surrogate.obs_mean)
        budget = 4 * (exact.stderr_obs + surrogate.stderr_obs) + 0.02
        assert np.all(gap <= budget)

    def test_grid_validation(self):
        model = make_model()
        config = MCConfig(n_traj=10, dt=0.01, seed=1)
        with pytest.raises(ValueError):
            mc_average(model, RHO_PLUS_X, config, np.array([0.0, 0.1, 0.3]))
        with pytest.raises(ValueError):
            mc_average(model, RHO_PLUS_X, config, np.array([0.5, 0.6, 0.7]))
        # a decreasing grid would make the OU factor exp(|dt|/tau_c) > 1
        with pytest.raises(ValueError):
            mc_average(model, RHO_PLUS_X, config, np.linspace(0.0, -1.0, 5))
        for bad in ([0.0, np.inf], [0.0, np.nan], [0.0, 0.5, np.inf]):
            with pytest.raises(ValueError, match="finite"):
                mc_average(model, RHO_PLUS_X, config, np.array(bad))
        big_dt = MCConfig(n_traj=10, dt=0.5, seed=1)
        with pytest.raises(ValueError):
            mc_average(model, RHO_PLUS_X, big_dt, np.linspace(0, 1, 6))

    @pytest.mark.parametrize("sampler", ["exact_ou", "kle"])
    def test_grid_must_end_by_the_horizon(self, sampler):
        """The noise is represented on [0, horizon] only: an output grid to
        t = 3 on horizon 1 is an error that names both times, for either
        sampler, and a grid that ends at the horizon up to rounding runs."""
        model = make_model()
        modes = solve_fredholm(model.kernel, model.horizon, 60, 2)
        kle = select_modes(modes, cumulative_rates(modes, model), 2)
        config = MCConfig(n_traj=4, dt=0.01, seed=1, batch=4, sampler=sampler)
        with pytest.raises(ValueError, match=re.escape(
                "output grid ends at 3.0, past the model horizon 1.0")):
            mc_average(model, RHO_PLUS_X, config, np.linspace(0.0, 3.0, 7),
                       kle=kle)
        result = mc_average(model, RHO_PLUS_X, config,
                            np.linspace(0.0, 1.0 + 1e-13, 3), kle=kle)
        assert result.times[-1] == 1.0 + 1e-13

    @pytest.mark.parametrize("scale", [1e-10, 1e-2])
    def test_uniformity_is_relative_to_the_step(self, scale):
        """Grid uniformity is judged relative to the step, so the uneven
        grid [0, 1, 3, 4] * scale is rejected on a tiny time scale as on a
        large one, and the even grid on it runs at the times it asks for."""
        model = make_model(horizon=4 * scale)
        config = MCConfig(n_traj=4, dt=0.04 * scale, seed=1, batch=4)
        with pytest.raises(ValueError, match="uniform"):
            mc_average(model, RHO_PLUS_X, config,
                       np.array([0.0, 1.0, 3.0, 4.0]) * scale)
        t_out = np.linspace(0.0, 4 * scale, 4)
        result = mc_average(model, RHO_PLUS_X, config, t_out)
        np.testing.assert_allclose(result.times, t_out, rtol=1e-12, atol=0)

    def test_dimension_validation(self):
        model = make_model()
        config = MCConfig(n_traj=10, dt=0.01, seed=1)
        with pytest.raises(DimensionMismatchError):
            mc_average(model, np.eye(3) / 3.0, config, np.linspace(0, 1, 6))
        with pytest.raises(DimensionMismatchError):
            mc_average(model, RHO_PLUS_X, config, np.linspace(0, 1, 6),
                       observable=np.eye(3, dtype=complex))
