"""Karhunen-Loeve decomposition: kernels, Fredholm solve, closed-form OU
modes, mode selection."""
from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    ConstantKernel,
    nystrom_row_loop,
    ou_kle_eigenvalues,
    transition_rate_loop,
)
from stochpce import (
    IDENTITY,
    SIGMA_X,
    SIGMA_Z,
    DimensionMismatchError,
    KernelNotPositiveError,
    NumericalConsistencyError,
    OrnsteinUhlenbeckKernel,
    StochasticModel,
    TabulatedKernel,
    TruncatedKLE,
    ou_modes,
    select_modes,
    solve_fredholm,
)
from stochpce.kle import (
    ORTHOGONALITY_TOL,
    KLMode,
    QuadratureGrid,
    cumulative_rates,
    default_candidate_count,
    scaled_modes_matrix,
)
from stochpce.montecarlo import MCConfig, _EnsembleEngine


def make_model(kernel, h0=np.zeros((2, 2)), v=SIGMA_Z, horizon=1.0):
    return StochasticModel(h0=h0, v=v, kernel=kernel, horizon=horizon)


def covariance(modes) -> np.ndarray:
    """sum_n lambda_n g_n(t_i) g_n(t_j) over the given modes on their grid."""
    g = np.stack([m.values for m in modes])
    lam = np.array([m.eigenvalue for m in modes])
    return (g.T * lam) @ g


class TestKernels:
    def test_ou_values(self):
        kernel = OrnsteinUhlenbeckKernel(alpha=3.0, tau_c=10.0)
        assert kernel.variance == pytest.approx(9.0)
        assert kernel.at_lag(0.0) == pytest.approx(9.0)
        assert kernel.at_lag(10.0) == pytest.approx(9.0 * np.exp(-1.0))
        lags = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(kernel.at_lag(lags),
                                   9.0 * np.exp(-lags / 10.0))

    def test_ou_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            OrnsteinUhlenbeckKernel(alpha=1.0, tau_c=0.0)
        with pytest.raises(ValueError):
            OrnsteinUhlenbeckKernel(alpha=float("inf"), tau_c=1.0)
        # a negative amplitude is legal: only alpha^2 enters the kernel
        assert OrnsteinUhlenbeckKernel(alpha=-2.0, tau_c=1.0).variance == 4.0

    def test_tabulated_interpolates(self):
        spacing = 0.01
        lags = np.arange(0, 301) * spacing
        table = 4.0 * np.exp(-lags / 10.0)
        kernel = TabulatedKernel(values=table, spacing=spacing)
        assert kernel.variance == pytest.approx(4.0)
        probe = np.array([0.005, 0.5, 2.995])
        np.testing.assert_allclose(kernel.at_lag(probe),
                                   4.0 * np.exp(-probe / 10.0), rtol=1e-4)

    def test_tabulated_rejects_peak_violation(self):
        with pytest.raises(KernelNotPositiveError):
            TabulatedKernel(values=np.array([1.0, 2.0]), spacing=0.1)

    def test_tabulated_extends_past_table(self):
        kernel = TabulatedKernel(values=np.array([1.0, 0.5, 0.25]), spacing=1.0)
        assert kernel.at_lag(50.0) == pytest.approx(0.25)


class TestQuadratureGrid:
    def test_trapezoid_weights(self):
        grid = QuadratureGrid.trapezoid(2.0, 5)
        np.testing.assert_allclose(grid.nodes, np.linspace(0.0, 2.0, 5))
        np.testing.assert_allclose(grid.weights, [0.25, 0.5, 0.5, 0.5, 0.25])
        assert grid.weights.sum() == pytest.approx(2.0)
        assert grid.size == 5
        assert grid.span == pytest.approx(2.0)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            QuadratureGrid.trapezoid(1.0, 1)


class TestFredholmSolve:
    @pytest.mark.parametrize("tau_c", [0.1, 10.0])
    def test_top_eigenvalues_match_transcendental_roots(self, tau_c):
        """Numerical spectrum vs the exact exponential-kernel eigenvalues.

        The closed-form eigenvalues come from the roots of the standard
        transcendental equations for the exponential covariance on an
        interval, solved to machine precision by bracketed bisection.
        """
        modes = solve_fredholm(OrnsteinUhlenbeckKernel(1.0, tau_c), tau=1.0,
                               grid_size=400, n_modes=8)
        numeric = np.array([m.eigenvalue for m in modes])
        analytic = ou_kle_eigenvalues(1.0, tau_c, 1.0, 8)
        # leading modes: strict per-mode agreement
        for k in range(3):
            assert abs(numeric[k] - analytic[k]) / analytic[k] < 1e-4
        # full head of the spectrum: relative to the dominant scale
        np.testing.assert_allclose(numeric, analytic,
                                   atol=1e-4 * analytic[0], rtol=0)

    def test_trace_identity(self):
        """sum of all eigenvalues equals the quadrature of C(t, t)."""
        kernel = OrnsteinUhlenbeckKernel(1.3, 0.7)
        modes = solve_fredholm(kernel, tau=1.0, grid_size=200)
        total = sum(m.eigenvalue for m in modes)
        assert total == pytest.approx(kernel.variance * 1.0, rel=1e-8)

    def test_modes_orthonormal(self):
        modes = solve_fredholm(OrnsteinUhlenbeckKernel(1.0, 1.0), tau=1.0,
                               grid_size=150, n_modes=8)
        grid = modes[0].grid
        for a in range(8):
            for b in range(8):
                overlap = np.sum(grid.weights * modes[a].values * modes[b].values)
                assert overlap == pytest.approx(1.0 if a == b else 0.0, abs=1e-9)

    def test_sign_convention(self):
        """Nonnegative integral, or first sample nonnegative for odd modes."""
        modes = solve_fredholm(OrnsteinUhlenbeckKernel(1.0, 10.0), tau=1.0,
                               grid_size=200, n_modes=8)
        for mode in modes:
            total = np.sum(mode.grid.weights * mode.values)
            assert total > 1e-8 or (abs(total) <= 1e-8 and mode.values[0] >= 0)

    def test_descending_order_and_indices(self):
        modes = solve_fredholm(OrnsteinUhlenbeckKernel(2.0, 5.0), tau=1.0,
                               grid_size=120, n_modes=6)
        eigs = [m.eigenvalue for m in modes]
        assert eigs == sorted(eigs, reverse=True)
        assert [m.index for m in modes] == [1, 2, 3, 4, 5, 6]

    def test_rejects_bad_mode_count(self):
        with pytest.raises(ValueError):
            solve_fredholm(OrnsteinUhlenbeckKernel(1.0, 1.0), tau=1.0,
                           grid_size=50, n_modes=51)

    def test_constant_kernel_is_rank_one(self):
        modes = solve_fredholm(ConstantKernel(0.5), tau=1.0, grid_size=80)
        assert modes[0].eigenvalue == pytest.approx(0.25 * 1.0, rel=1e-12)
        assert not modes[0].is_null()
        assert all(m.is_null() for m in modes[1:])
        # the one live mode is the constant function 1/sqrt(tau)
        np.testing.assert_allclose(modes[0].values, 1.0, atol=1e-10)


class TestModeEvaluation:
    def setup_method(self):
        self.kernel = OrnsteinUhlenbeckKernel(1.0, 2.0)
        self.modes = solve_fredholm(self.kernel, tau=1.0, grid_size=200,
                                    n_modes=4)

    def test_nystrom_exact_at_nodes(self):
        nodes = self.modes[0].grid.nodes
        scaled = scaled_modes_matrix(self.modes, self.kernel, nodes)
        lam = np.array([m.eigenvalue for m in self.modes])
        np.testing.assert_allclose(scaled / np.sqrt(lam)[:, None],
                                   [m.values for m in self.modes], atol=1e-10)

    def test_nystrom_scalar_and_midpoint(self):
        """A scalar time gives one column, between the neighbouring samples."""
        mode = self.modes[1]
        mid = 0.5 * (mode.grid.nodes[10] + mode.grid.nodes[11])
        scaled = scaled_modes_matrix(self.modes, self.kernel, mid)
        assert scaled.shape == (4, 1)
        value = scaled[1, 0] / np.sqrt(mode.eigenvalue)
        lo, hi = sorted((mode.values[10], mode.values[11]))
        assert lo - 1e-3 <= value <= hi + 1e-3

    def test_kernel_evaluated_once_for_all_modes(self):
        """One kernel matrix per call, and each row bitwise its own
        matrix-vector product: a matrix-matrix product over the rows differs
        in the last bits."""
        lag_shapes = []

        class CountingKernel:
            def at_lag(_, lag):
                lag_shapes.append(np.shape(lag))
                return self.kernel.at_lag(lag)

        grid = self.modes[0].grid
        times = np.linspace(0.0, 1.0, 301)
        scaled = scaled_modes_matrix(self.modes[:3], CountingKernel(), times)
        assert lag_shapes == [(301, grid.size)]
        for row, mode in zip(scaled, self.modes[:3]):
            np.testing.assert_array_equal(
                row, nystrom_row_loop(self.kernel, mode.eigenvalue, mode.values,
                                      grid.nodes, grid.weights, times))

    def test_scaled_matrix_zeroes_null_modes(self):
        kernel = ConstantKernel(1.0)
        modes = solve_fredholm(kernel, tau=1.0, grid_size=60, n_modes=4)
        times = np.linspace(0.0, 1.0, 7)
        scaled = scaled_modes_matrix(modes, kernel, times)
        assert scaled.shape == (4, 7)
        np.testing.assert_allclose(scaled[0], 1.0, atol=1e-9)
        np.testing.assert_allclose(scaled[1:], 0.0, atol=0)


# (alpha, tau_c, tau) of the fig2 and fig1_top presets
FIG2 = (3.0, 10.0, 1.0)
FIG1_TOP = (1.0, 0.1, 1.0)


class TestClosedFormOU:
    @pytest.mark.parametrize("tau_c", [0.1, 10.0])
    def test_eigenvalues_match_transcendental_roots(self, tau_c):
        modes = ou_modes(OrnsteinUhlenbeckKernel(1.0, tau_c), tau=1.0,
                         grid_size=400, n_modes=8)
        numeric = np.array([m.eigenvalue for m in modes])
        np.testing.assert_allclose(
            numeric, ou_kle_eigenvalues(1.0, tau_c, 1.0, 8), rtol=1e-12, atol=0)
        assert [m.index for m in modes] == list(range(1, 9))
        assert all(m.lambda_max == numeric[0] for m in modes)

    def test_nystrom_converges_at_second_order(self):
        """The trapezoid Nystrom eigenvalues approach the closed form as h^2:
        four times the nodes, sixteen times smaller errors."""
        kernel = OrnsteinUhlenbeckKernel(*FIG2[:2])
        exact = np.array([m.eigenvalue for m in ou_modes(kernel, 1.0, 400, 8)])
        errors = [np.abs(np.array([m.eigenvalue for m in
                                   solve_fredholm(kernel, 1.0, nodes, 8)])
                         - exact) for nodes in (400, 1600)]
        assert np.all(errors[0] >= 12 * errors[1])

    @pytest.mark.parametrize("params", [FIG2, FIG1_TOP], ids=["fig2", "fig1_top"])
    def test_matches_nystrom_modes_and_signs(self, params):
        """Every candidate mode of the preset has the Nystrom mode's sign and,
        within the Nystrom error, its samples."""
        alpha, tau_c, tau = params
        kernel = OrnsteinUhlenbeckKernel(alpha, tau_c)
        closed = ou_modes(kernel, tau, 400, 12)
        nystrom = solve_fredholm(kernel, tau, 400, 12)
        for a, b in zip(closed, nystrom):
            assert a.grid.size == b.grid.size
            np.testing.assert_allclose(a.grid.nodes, b.grid.nodes, rtol=0, atol=0)
            assert np.max(np.abs(a.values - b.values)) < 1e-3
            assert a.eigenvalue == pytest.approx(b.eigenvalue, rel=1e-3)

    def test_samples_are_the_closed_form(self):
        alpha, tau_c, tau = FIG1_TOP
        kernel = OrnsteinUhlenbeckKernel(alpha, tau_c)
        modes = ou_modes(kernel, tau, 400, 12)
        for rank, mode in enumerate(modes):
            form = mode.closed_form
            assert form.even == (rank % 2 == 0)
            assert form.centre == tau / 2
            assert rank * np.pi / tau < form.frequency < (rank + 1) * np.pi / tau
            np.testing.assert_array_equal(mode.values, form(mode.grid.nodes))

    def test_scaled_matrix_is_the_closed_form(self):
        """sqrt(lambda) g(t) from the closed form, with no kernel evaluation:
        at the grid nodes it is the scaled samples."""
        class NoKernel:
            def at_lag(self, lag):
                raise AssertionError("closed-form modes evaluated the kernel")

        modes = ou_modes(OrnsteinUhlenbeckKernel(*FIG2[:2]), 1.0, 400, 12)
        nodes = modes[0].grid.nodes
        np.testing.assert_allclose(
            scaled_modes_matrix(modes, NoKernel(), nodes),
            [np.sqrt(m.eigenvalue) * m.values for m in modes], rtol=0, atol=1e-14)
        times = np.linspace(0.0, 1.0, 301)
        scaled = scaled_modes_matrix(modes, NoKernel(), times)
        for row, mode in zip(scaled, modes):
            np.testing.assert_array_equal(
                row, np.sqrt(mode.eigenvalue) * mode.closed_form(times))

    def test_zero_amplitude_gives_null_modes_like_nystrom(self):
        kernel = OrnsteinUhlenbeckKernel(0.0, 1.0)
        times = np.linspace(0.0, 1.0, 7)
        for build in (ou_modes, solve_fredholm):
            modes = build(kernel, 1.0, 60, 4)
            assert all(m.is_null() for m in modes)
            np.testing.assert_array_equal(
                scaled_modes_matrix(modes, kernel, times), np.zeros((4, 7)))

    def test_all_grid_modes_pass_the_exact_checks(self):
        """n_modes defaults to grid_size, up to frequencies near 400 pi; the
        normalization check's quadrature grows with the frequency."""
        modes = ou_modes(OrnsteinUhlenbeckKernel(*FIG2[:2]), 1.0, 400)
        assert len(modes) == 400
        assert modes[-1].closed_form.frequency > 399 * np.pi
        select_modes(modes, [m.eigenvalue for m in modes], 400)

    def test_orthogonality_is_checked_in_the_exact_norm(self):
        """On the trapezoid grid the exact fig1_top modes overlap by more than
        the tolerance; select_modes checks them where they are orthogonal."""
        alpha, tau_c, tau = FIG1_TOP
        modes = ou_modes(OrnsteinUhlenbeckKernel(alpha, tau_c), tau, 400, 12)
        samples = np.stack([m.values for m in modes])
        grid_gram = (samples * modes[0].grid.weights) @ samples.T
        assert np.max(np.abs(np.triu(grid_gram, k=1))) > ORTHOGONALITY_TOL
        kle = select_modes(modes, [m.eigenvalue for m in modes], 12)
        assert kle.stochastic_dim == 12

    def test_rejects_bad_mode_count(self):
        with pytest.raises(ValueError):
            ou_modes(OrnsteinUhlenbeckKernel(1.0, 1.0), tau=1.0, grid_size=50,
                     n_modes=51)


class TestClosedFormChecks:
    """The normalization and orthogonality checks catch a wrong closed form."""

    def setup_method(self):
        self.modes = ou_modes(OrnsteinUhlenbeckKernel(*FIG2[:2]), 1.0, 400, 3)

    @staticmethod
    def with_form(mode, form):
        return KLMode(eigenvalue=mode.eigenvalue, values=form(mode.grid.nodes),
                      grid=mode.grid, index=mode.index,
                      lambda_max=mode.lambda_max, closed_form=form)

    def test_wrong_amplitude_fails_normalization(self):
        mode = self.modes[2]
        form = replace(mode.closed_form, amplitude=1.001 * mode.closed_form.amplitude)
        with pytest.raises(NumericalConsistencyError, match="normalized"):
            self.with_form(mode, form)

    def test_frequency_off_its_root_fails_orthogonality(self):
        """A frequency nudged off its root, with its amplitude renormalized,
        gives a unit-norm mode that is no longer orthogonal to mode 1."""
        mode = self.modes[2]
        a = mode.closed_form.centre
        w = mode.closed_form.frequency * (1 + 1e-4)
        nudged = self.with_form(mode, replace(
            mode.closed_form, frequency=w,
            amplitude=1.0 / np.sqrt(a + np.sin(2 * w * a) / (2 * w))))
        select_modes(self.modes, [3.0, 2.0, 1.0], 3)
        with pytest.raises(NumericalConsistencyError, match="not orthogonal"):
            select_modes(self.modes[:2] + [nudged], [3.0, 2.0, 1.0], 3)

    def test_nan_frequency_fails_both_checks(self):
        mode = self.modes[2]
        bad = replace(mode.closed_form, frequency=float("nan"))
        with pytest.raises(NumericalConsistencyError):
            self.with_form(mode, bad)
        # a mode that skipped construction is still caught at selection
        object.__setattr__(mode, "closed_form", bad)
        with pytest.raises(NumericalConsistencyError):
            select_modes(self.modes, [3.0, 2.0, 1.0], 3)


class TestReconstruction:
    def test_full_solve_reproduces_kernel(self):
        kernel = OrnsteinUhlenbeckKernel(1.0, 1.0)
        modes = solve_fredholm(kernel, tau=1.0, grid_size=150)
        rebuilt = covariance(modes)
        t = modes[0].grid.nodes
        exact = kernel.at_lag(np.abs(t[:, None] - t[None, :]))
        assert np.max(np.abs(rebuilt - exact)) < 1e-6

    def test_truncation_shows_in_covariance(self):
        kernel = OrnsteinUhlenbeckKernel(1.0, 0.1)  # slow spectral decay
        modes = solve_fredholm(kernel, tau=1.0, grid_size=150)
        full = covariance(modes)
        truncated = covariance(modes[:3])
        assert np.max(np.abs(full - truncated)) > 1e-2


class TestTransitionRates:
    def test_static_system_rate_closed_form(self):
        """With h0 = 0 every gap vanishes: rate = sum|v_jk|^2 (int sqrt(l) g)^2 / tau.

        For v = sigma_z that coefficient is 2, independent of the h0
        eigenbasis because the Frobenius norm is basis-invariant.
        """
        kernel = OrnsteinUhlenbeckKernel(1.0, 10.0)
        modes = solve_fredholm(kernel, tau=1.0, grid_size=200, n_modes=4)
        rates = cumulative_rates(modes, make_model(kernel))
        for mode, rate in zip(modes, rates):
            integral = np.sum(mode.grid.weights *
                              np.sqrt(mode.eigenvalue) * mode.values)
            expected = 2.0 * integral**2 / 1.0
            assert rate == pytest.approx(expected, abs=1e-12)

    def test_null_mode_rate_is_negligible(self):
        """sqrt(lambda) ~ 1e-8 for a numerically-null mode, so its rate can
        never compete with a live mode in the selection ranking."""
        kernel = ConstantKernel(1.0)
        modes = solve_fredholm(kernel, tau=1.0, grid_size=60)
        live_rate, rate = cumulative_rates([modes[0], modes[3]],
                                           make_model(kernel, h0=SIGMA_X))
        assert rate <= 1e-12 * live_rate

    def test_fast_drift_suppresses_even_modes(self):
        """A large level splitting filters modes by their spectral content.

        With h0 = 20 sx and v = sz the only matrix elements connect the two
        sx eigenstates (gap 40), so each rate is a Fourier coefficient of
        sqrt(lambda) g at frequency 40 - tiny for the smooth leading mode.
        """
        kernel = OrnsteinUhlenbeckKernel(1.0, 10.0)
        modes = solve_fredholm(kernel, tau=1.0, grid_size=300, n_modes=2)
        [static] = cumulative_rates(modes[:1], make_model(kernel))
        [driven] = cumulative_rates(modes[:1], make_model(kernel, h0=20 * SIGMA_X))
        assert driven < 1e-2 * static

    @pytest.mark.parametrize("h0,v", [
        (SIGMA_X, SIGMA_Z),
        (np.array([[1.0, 0.3 - 0.2j, 0.0], [0.3 + 0.2j, -0.4, 0.5j],
                   [0.0, -0.5j, 0.2]]),
         np.array([[0.5, 0.2 + 0.7j, -0.1j], [0.2 - 0.7j, -0.3, 0.4],
                   [0.1j, 0.4, 0.1]])),
    ], ids=["fig2", "qutrit"])
    def test_rates_match_per_mode_loop(self, h0, v):
        """The model's cached eigensystem and one phase table give bitwise
        the rates of diagonalising h0 again for every mode."""
        kernel = OrnsteinUhlenbeckKernel(3.0, 10.0)
        model = make_model(kernel, h0=h0, v=v, horizon=0.8)
        modes = solve_fredholm(kernel, tau=0.8, grid_size=400, n_modes=12)
        grid = modes[0].grid
        expected = [transition_rate_loop(model.h0, model.v, 0.8, m.eigenvalue,
                                         m.values, grid.nodes, grid.weights)
                    for m in modes]
        assert cumulative_rates(modes, model) == expected

    def test_rejects_modes_on_different_grids(self):
        kernel = OrnsteinUhlenbeckKernel(1.0, 1.0)
        a = solve_fredholm(kernel, tau=1.0, grid_size=50, n_modes=1)
        b = solve_fredholm(kernel, tau=1.0, grid_size=50, n_modes=1)
        with pytest.raises(DimensionMismatchError):
            cumulative_rates(a + b, make_model(kernel))


class TestSelection:
    def setup_method(self):
        self.kernel = OrnsteinUhlenbeckKernel(1.0, 10.0)
        self.modes = solve_fredholm(self.kernel, tau=1.0, grid_size=200,
                                    n_modes=8)
        self.rates = cumulative_rates(self.modes, make_model(self.kernel))

    def test_selects_top_rates(self):
        kle = select_modes(self.modes, self.rates, 3)
        assert isinstance(kle, TruncatedKLE)
        assert kle.stochastic_dim == 3
        assert list(kle.rates) == sorted(kle.rates, reverse=True)
        assert min(kle.rates) >= max(
            r for r, record in zip(self.rates, kle.selection_report)
            if not record.selected)

    def test_report_covers_all_candidates(self):
        kle = select_modes(self.modes, self.rates, 3)
        assert len(kle.selection_report) == 8
        assert sum(record.selected for record in kle.selection_report) == 3
        assert [record.index for record in kle.selection_report] == list(
            range(1, 9))

    def test_smooth_drift_free_selection_is_by_eigenvalue(self):
        """For h0 = 0 odd modes integrate to zero, so the selected set is the
        even (symmetric) modes in descending-eigenvalue order."""
        kle = select_modes(self.modes, self.rates, 3)
        assert [m.index for m in kle.modes] == [1, 3, 5]

    def test_rejects_mismatched_rates(self):
        with pytest.raises(DimensionMismatchError):
            select_modes(self.modes, self.rates[:-1], 2)

    def test_rejects_excess_s(self):
        with pytest.raises(ValueError):
            select_modes(self.modes, self.rates, 9)

    def test_rejects_non_orthogonal_modes(self):
        mode = self.modes[0]
        with pytest.raises(NumericalConsistencyError):
            select_modes([mode, mode], [1.0, 1.0], 2)

    def test_default_candidate_count(self):
        assert default_candidate_count(1) == 12
        assert default_candidate_count(3) == 12
        assert default_candidate_count(4) == 16
        assert default_candidate_count(10) == 40


class TestSampling:
    def test_sample_covariance_matches_truncated_reconstruction(self):
        """Paths from the Monte Carlo kle sampler, built from S modes, must
        reproduce the truncated covariance, not the full kernel - that gap is
        exactly the truncation error."""
        kernel = OrnsteinUhlenbeckKernel(1.0, 0.1)
        modes = solve_fredholm(kernel, tau=1.0, grid_size=100, n_modes=12)
        rates = cumulative_rates(modes, make_model(kernel))
        kle = select_modes(modes, rates, 3)

        t_grid = modes[0].grid.nodes
        n_paths = 6000
        # two MC steps per quadrature interval: the nodes are the even steps
        model = make_model(kernel)
        config = MCConfig(n_traj=n_paths, dt=0.5 * (t_grid[1] - t_grid[0]),
                          seed=2024, sampler="kle")
        engine = _EnsembleEngine(model, 0.5 * IDENTITY, config, t_grid,
                                 SIGMA_Z, kle)
        np.testing.assert_allclose(engine.t_grid[::2], t_grid, rtol=0,
                                   atol=1e-14)
        paths = engine.sample_paths(range(n_paths))[:, ::2]
        sample_cov = (paths.T @ paths) / n_paths
        target = covariance(kle.modes)

        # variance of a covariance estimate: (C_ii C_jj + C_ij^2) / n
        scale = kernel.variance
        stderr = np.sqrt((scale**2 + target**2) / n_paths)
        checks = [(0, 0), (50, 50), (99, 99), (0, 50), (25, 75)]
        for i, j in checks:
            assert abs(sample_cov[i, j] - target[i, j]) < 4 * stderr[i, j]
        # and it must NOT match the untruncated kernel at short lags
        exact = kernel.at_lag(np.abs(t_grid[:, None] - t_grid[None, :]))
        assert abs(target[0, 0] - exact[0, 0]) > 20 * stderr[0, 0]
