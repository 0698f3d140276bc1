"""Hermite-Galerkin hierarchy: basis, couplings, integrator, moments."""
import itertools
import math
import re
import tracemalloc
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from scipy.special import roots_hermitenorm

from oracles import (
    ConstantKernel,
    coupling_weights,
    csr_accumulate_loop,
    dephasing_coherence,
    dephasing_sx_variance,
    galerkin_rhs_loop,
    galerkin_rk4_loop,
    galerkin_weight_quadrature,
    gauss_hermite_collocation_rk4,
    hermite_moment_tables,
    pce_curve_loop,
    static_ensemble_sx,
    weighted_norm,
)
from stochpce import (
    IDENTITY,
    SIGMA_X,
    SIGMA_Z,
    CapacityError,
    CorruptedStateError,
    DimensionMismatchError,
    InvalidOperatorError,
    MultiIndexSet,
    NumericalConsistencyError,
    OrnsteinUhlenbeckKernel,
    PropagationDivergedError,
    StochasticModel,
    build_couplings,
    enumerate_indices,
    expectation,
    hierarchy,
    initial_pce_state,
    parse_config,
    propagate,
)
from stochpce.hierarchy import (
    BLOCK_SIZE,
    BLOCK_STAGES,
    DIVERGENCE_FACTOR,
    RK4_WEIGHTS,
    WEIGHTED_NORM_TOL,
    PCEState,
    _check_weighted_norm,
    _chunks,
    _commutator_matrix,
    _coordinates,
    _matrices,
    _rhs,
    _rk4_steps,
    _sparse_product,
    _summed_couplings,
    hermiticity_error,
    mean_state,
    min_eigenvalue,
    observable_mean,
    observable_variance,
    trace_error,
)
from stochpce.kle import (
    cumulative_rates,
    ou_modes,
    scaled_modes_matrix,
    select_modes,
    solve_fredholm,
)
from stochpce.operators import frame_rotations, rotating_frame_potential

RHO_PLUS_X = 0.5 * IDENTITY + 0.5 * SIGMA_X
# A three-level model whose h0 and v are complex, non-diagonal and do not
# commute, so neither commutator has a transpose symmetry.
H0_3 = np.array([[1.0, 0.3 - 0.2j, 0.0],
                 [0.3 + 0.2j, -0.4, 0.5j],
                 [0.0, -0.5j, 0.2]])
V_3 = np.array([[0.5, 0.2 + 0.7j, -0.1j],
                [0.2 - 0.7j, -0.3, 0.4],
                [0.1j, 0.4, 0.1]])
RHO_3 = np.array([[0.5, 0.2, 0.1j],
                  [0.2, 0.3, 0.0],
                  [-0.1j, 0.0, 0.2]])


def make_model(kernel, h0=SIGMA_X, v=SIGMA_Z, horizon=1.0):
    return StochasticModel(h0=h0, v=v, kernel=kernel, horizon=horizon)


def _generator(model):
    """[Lv | L0], the constant dense half of propagate's generator."""
    return np.concatenate([_commutator_matrix(model.v),
                           _commutator_matrix(model.h0)], axis=1)


def build_kle(model, s, grid_size=200, candidates=12):
    modes = solve_fredholm(model.kernel, model.horizon, grid_size, candidates)
    rates = cumulative_rates(modes, model)
    return select_modes(modes, rates, s)


def weighted_set(weights, level) -> MultiIndexSet:
    """{m : sum_n weights[n] m_n <= level} in graded-lex order."""
    ranges = [range(level // w + 1) for w in weights]
    members = [m for m in itertools.product(*ranges)
               if sum(w * mn for w, mn in zip(weights, m)) <= level]
    return MultiIndexSet(tuple(sorted(members, key=lambda m: (sum(m), m))))


def run_observable(model, s, p, t_grid, dt_max=1e-3, grid_size=200, obs=SIGMA_X):
    """End-to-end helper: KLE -> couplings -> propagate -> <obs>(t)."""
    kle = build_kle(model, s, grid_size=grid_size)
    basis = enumerate_indices(s, p)
    couplings = build_couplings(basis)
    states = propagate(initial_pce_state(RHO_PLUS_X, basis), model, kle,
                       couplings, t_grid, dt_max=dt_max)
    return np.array([observable_mean(st, obs) for st in states])


class TestMultiIndexSet:
    @pytest.mark.parametrize("s,p,expected", [
        (1, 5, 6), (2, 3, 10), (3, 2, 10), (3, 9, 220), (4, 0, 1),
    ])
    def test_size(self, s, p, expected):
        basis = enumerate_indices(s, p)
        assert basis.size == expected
        assert basis.size == math.comb(s + p, p)

    def test_graded_lex_order(self):
        basis = enumerate_indices(3, 4)
        assert basis.indices[0] == (0, 0, 0)
        degrees = [sum(m) for m in basis.indices]
        assert degrees == sorted(degrees)
        for left, right in zip(basis.indices[:-1], basis.indices[1:]):
            if sum(left) == sum(right):
                assert left < right  # lex ascending within a degree block

    def test_lookup_inverts_enumeration(self):
        basis = enumerate_indices(2, 6)
        for pos, m in enumerate(basis.indices):
            assert basis.lookup[m] == pos

    def test_total_degree_set_from_indices(self):
        """A set built from its indices alone derives what enumerate_indices
        gives: s, p as the largest total degree, and the lookup."""
        basis = enumerate_indices(3, 4)
        rebuilt = MultiIndexSet(basis.indices)
        assert (rebuilt.s, rebuilt.p, rebuilt.size) == (3, 4, 35)
        assert rebuilt.lookup == basis.lookup

    @pytest.mark.parametrize("indices,reason", [
        (((0, 0), (1, 0), (1, 1)), "downward-closed"),  # (0, 1) missing
        (((0, 0), (0, 2), (0, 1)), "graded-lex"),
        (((0, 0), (1, 0), (0, 1)), "graded-lex"),  # lex order within degree 1
        (((0, 0), (0, 1), (0, 1)), "graded-lex"),  # duplicate
        (((1, 0), (0, 0)), "zero index"),
        (((0, 0), (1,)), "length"),
        ((), "zero index"),
    ])
    def test_rejects_sets_breaking_the_contract(self, indices, reason):
        with pytest.raises(ValueError, match=reason):
            MultiIndexSet(indices)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            enumerate_indices(0, 3)
        with pytest.raises(ValueError):
            enumerate_indices(2, -1)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            enumerate_indices(40, 10)  # comb(50, 10) ~ 1e10 coefficients


class TestCouplings:
    def test_weights_match_hermite_quadrature(self):
        """Every stored weight equals E[psi_m xi_n psi_l], and every pair
        the table omits has a vanishing moment."""
        basis = enumerate_indices(2, 3)
        couplings = build_couplings(basis)
        q0, q1 = hermite_moment_tables(basis.p + 1)

        stored = coupling_weights(couplings)
        for m_pos, m in enumerate(basis.indices):
            for n in range(basis.s):
                for l_pos, l in enumerate(basis.indices):
                    expected = galerkin_weight_quadrature(m, n, l, q0, q1)
                    got = stored.get((m_pos, n, l_pos), 0.0)
                    assert got == pytest.approx(expected, abs=1e-10)

    def test_sparsity_census(self):
        """Partner count per index is sum_n([m_n >= 1] + [deg < p])."""
        for s, p in [(3, 4), (2, 5)]:
            basis = enumerate_indices(s, p)
            weights = coupling_weights(build_couplings(basis))
            assert len(weights) <= 2 * s * basis.size
            per_index = {pos: 0 for pos in range(basis.size)}
            for m_pos, _n, _l_pos in weights:
                per_index[m_pos] += 1
            for pos, m in enumerate(basis.indices):
                expected = sum((1 if mn >= 1 else 0) +
                               (1 if sum(m) < p else 0) for mn in m)
                assert per_index[pos] == expected

    def test_raising_and_lowering_weights(self):
        """Raising weight sqrt(m_n + 1), lowering weight sqrt(m_n), and every
        M_n equal to its transpose bit for bit, on a total-degree and a
        weighted set: the conservation of weighted_norm rests on that."""
        for basis in (enumerate_indices(3, 9), weighted_set((1, 3, 6), 27)):
            couplings = build_couplings(basis)
            for (m_pos, n, l_pos), weight in coupling_weights(couplings).items():
                m = basis.indices[m_pos]
                l = basis.indices[l_pos]
                if sum(l) == sum(m) + 1:
                    assert weight == math.sqrt(m[n] + 1)
                else:
                    assert sum(l) == sum(m) - 1
                    assert weight == math.sqrt(m[n])
            for matrix in couplings.mode_matrices:
                assert matrix.nnz > 0
                assert not (matrix.toarray() != matrix.T.toarray()).any()


class TestSummedCouplings:
    """propagate sums the per-mode matrices into one CSR matrix whose data
    are weight * s[mode] at each stage."""

    @pytest.mark.parametrize("make_basis", [
        lambda: enumerate_indices(3, 9),
        lambda: weighted_set((1, 3, 6), 27),
    ], ids=["total_degree_p9", "weighted_27"])
    def test_mode_patterns_are_disjoint(self, make_basis):
        """M_n[m, l] != 0 only for l = m +- e_n, so no entry belongs to two
        modes and the summed pattern is fixed."""
        patterns = [set(zip(*matrix.nonzero()))
                    for matrix in build_couplings(make_basis()).mode_matrices]
        assert all(patterns)
        for left, right in itertools.combinations(patterns, 2):
            assert not left & right

    def test_summed_matrix_is_the_weighted_mode_sum(self):
        """Columns 2l hold sum_n s_n M_n[:, l], columns 2l + 1 the drift's
        identity, whose mode is numbered S."""
        couplings = build_couplings(weighted_set((1, 3, 6), 27))
        n_basis = couplings.basis.size
        summed, modes = _summed_couplings(couplings)
        assert summed.shape == (n_basis, 2 * n_basis)
        assert summed.nnz == n_basis + sum(m.nnz for m in couplings.mode_matrices)
        s_vec = np.array([0.7, -1.3, 2.1, 1.0])
        summed.data = summed.data * s_vec[modes]
        expected = sum(s_n * matrix
                       for s_n, matrix in zip(s_vec, couplings.mode_matrices))
        got = summed.toarray()
        np.testing.assert_array_equal(got[:, 0::2], expected.toarray())
        np.testing.assert_array_equal(got[:, 1::2], np.eye(n_basis))


class TestTracelessCoordinates:
    @pytest.mark.parametrize("d", [2, 3])
    def test_round_trip(self, d):
        """Hermitian -> (d*d - 1) coordinates plus trace -> Hermitian gives
        the off-diagonal entries back bitwise (they are copies) and the
        diagonal within 1 ulp of each matrix's largest diagonal entry (it
        is tr(X) / d plus a sum over the diagonal G_a, so an entry near 0
        can lose more of its own ulps to cancellation)."""
        rng = np.random.default_rng(d)
        raw = (rng.standard_normal((7, d, d))
               + 1j * rng.standard_normal((7, d, d)))
        x = 0.5 * (raw + raw.conj().transpose(0, 2, 1))
        y = _coordinates(x)
        assert y.shape == (7, d * d - 1) and y.dtype == np.float64
        back = _matrices(y, np.trace(x, axis1=1, axis2=2).real, d)
        off = ~np.eye(d, dtype=bool)
        np.testing.assert_array_equal(
            np.ascontiguousarray(back[:, off]).view(np.int64),
            np.ascontiguousarray(x[:, off]).view(np.int64))
        diag = np.arange(d)
        np.testing.assert_array_equal(back.imag[:, diag, diag], 0.0)
        err = np.abs(back.real[:, diag, diag] - x.real[:, diag, diag])
        largest = np.max(np.abs(x.real[:, diag, diag]), axis=1, keepdims=True)
        assert np.all(err <= np.spacing(largest))


class TestWeightedSets:
    """Downward-closed sets that follow the noise: on fig2 (lambda = 8.71,
    0.175, 0.045) the weighted sets m1 + 3 m2 + 6 m3 <= 27 and <= 36."""

    def test_sizes(self):
        assert weighted_set((1, 3, 6), 27).size == 315
        assert weighted_set((1, 3, 6), 36).size == 658
        assert weighted_set((1, 3, 6), 27).p == 27

    def test_weights_match_hermite_quadrature(self):
        """Criterion 2's check on the N = 315 set: every (m, n, l) weight,
        omitted zeros included, against Gauss-Hermite quadrature of
        E[psi_m xi_n psi_l].  Weights and tables are both orthonormal, so
        every value is O(1) and the raw weights compare at 1e-10."""
        basis = weighted_set((1, 3, 6), 27)
        q0, q1 = hermite_moment_tables(basis.p + 1)
        stored = coupling_weights(build_couplings(basis))
        worst = 0.0
        for m_pos, m in enumerate(basis.indices):
            for n in range(basis.s):
                for l_pos, l in enumerate(basis.indices):
                    expected = galerkin_weight_quadrature(m, n, l, q0, q1)
                    got = stored.get((m_pos, n, l_pos), 0.0)
                    worst = max(worst, abs(got - expected))
        assert worst <= 1e-10

    def test_fig2_weighted_sets_agree(self):
        """<sx>(t) on fig2 from the N = 315 and N = 658 sets agrees to 1e-6,
        and the weighted norm of the N = 315 run stays within 1e-9 of its
        start (the total-degree p = 9 set is off by 0.52 here)."""
        model = make_model(OrnsteinUhlenbeckKernel(3.0, 10.0))
        kle = build_kle(model, 3, grid_size=400, candidates=12)
        t_grid = np.linspace(0.0, 1.0, 200)
        curves = []
        for level in (27, 36):
            basis = weighted_set((1, 3, 6), level)
            states = propagate(initial_pce_state(RHO_PLUS_X, basis), model,
                               kle, build_couplings(basis), t_grid,
                               dt_max=5e-3)
            curves.append([observable_mean(st, SIGMA_X) for st in states])
            if level == 27:
                norm0 = weighted_norm(states[0])
                drift = max(abs(weighted_norm(st) - norm0) for st in states)
                assert drift <= 1e-9
        assert np.max(np.abs(np.subtract(*curves))) <= 1e-6


class TestRHS:
    def setup_method(self):
        self.model = make_model(OrnsteinUhlenbeckKernel(1.0, 1.0))
        self.kle = build_kle(self.model, 2)
        self.basis = enumerate_indices(2, 3)
        self.couplings = build_couplings(self.basis)

    def _random_hermitian_state(self, seed=3):
        rng = np.random.default_rng(seed)
        raw = (rng.standard_normal((self.basis.size, 2, 2)) +
               1j * rng.standard_normal((self.basis.size, 2, 2)))
        coeffs = 0.5 * (raw + raw.conj().transpose(0, 2, 1))
        return PCEState(coefficients=coeffs, t=0.3, basis=self.basis)

    def test_rhs_is_the_commutator_loop(self):
        """One RHS in traceless coordinates is
        y(-i [h0, phi_m] - i sum_n s_n [v, (M_n phi)_m])."""
        state = self._random_hermitian_state()
        t = 0.3
        s_vec = scaled_modes_matrix(self.kle.modes, self.model.kernel, [t])[:, 0]
        summed, modes = _summed_couplings(self.couplings)
        y = _coordinates(state.coefficients)
        x, out = np.empty((y.shape[0], 2 * y.shape[1])), np.zeros(y.shape)
        deriv = _rhs(_sparse_product(summed, y.shape[1]),
                     summed.data * np.append(s_vec, 1.0)[modes],
                     _generator(self.model), y, x, out)
        expected = galerkin_rhs_loop(self.model.h0, self.model.v, s_vec,
                                     state.coefficients,
                                     self.couplings.mode_matrices)
        np.testing.assert_allclose(deriv, _coordinates(expected), rtol=0,
                                   atol=1e-13)

    @pytest.mark.parametrize("op", [H0_3, V_3, SIGMA_X, SIGMA_Z],
                             ids=["qutrit_h0", "qutrit_v", "fig2_h0", "fig2_v"])
    def test_commutator_matrix_is_the_commutator(self, op):
        """y(X) @ L is y(-i [op, X]), and L is bitwise -L.T, for fig2's
        operators and the qutrit's.  A complex, non-diagonal 3x3 operator
        has no symmetry that would hide a transposed matrix or a swapped
        real/imaginary block."""
        d = op.shape[0]
        matrix = _commutator_matrix(op)
        assert matrix.shape == (d * d - 1,) * 2 and matrix.dtype == np.float64
        assert np.max(np.abs(matrix)) > 0.1
        np.testing.assert_array_equal(matrix, -matrix.T)
        rng = np.random.default_rng(11)
        raw = rng.standard_normal((5, d, d)) + 1j * rng.standard_normal((5, d, d))
        xs = 0.5 * (raw + raw.conj().transpose(0, 2, 1))
        expected = _coordinates(-1j * (op @ xs - xs @ op))
        np.testing.assert_allclose(_coordinates(xs) @ matrix, expected,
                                   rtol=0, atol=1e-14)

    @staticmethod
    def _rhs_case(name):
        """(summed, generator, y) on fig2's basis (s = 3, p = 9, qubit) or
        a qutrit one, with random stage data and coordinates."""
        rng = np.random.default_rng(5)
        if name == "fig2":
            model = make_model(OrnsteinUhlenbeckKernel(3.0, 10.0))
            basis = enumerate_indices(3, 9)
        else:
            model = make_model(OrnsteinUhlenbeckKernel(1.0, 1.0), h0=H0_3,
                               v=V_3)
            basis = enumerate_indices(2, 4)
        summed, _ = _summed_couplings(build_couplings(basis))
        summed.data = rng.standard_normal(summed.nnz)
        y = rng.standard_normal((basis.size, model.dim ** 2 - 1))
        return summed, _generator(model), y

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("name", ["fig2", "qutrit"])
    def test_rhs_is_bitwise_the_sparse_product(self, name, order):
        """_rhs adds summed @ (y @ generator), read as (2N, d*d - 1), into
        out: on a zeroed out it is bitwise that product, on a nonzero one
        bitwise the loop that adds each row's entries in their order.  The
        integrator's buffers are C-contiguous; a Fortran-ordered out must
        still receive the result, not a copy.  x must be C-contiguous."""
        summed, generator, y = self._rhs_case(name)
        x = np.full((y.shape[0], generator.shape[1]), np.nan)
        product = _sparse_product(summed, y.shape[1])
        dense = (y @ generator).reshape(-1, y.shape[1])
        out = np.zeros(y.shape, order=order)
        got = _rhs(product, summed.data, generator, y, x, out)
        assert got is out
        np.testing.assert_array_equal(got, summed @ dense)
        base = np.random.default_rng(7).standard_normal(y.shape)
        out = np.array(base, order=order)
        _rhs(product, summed.data, generator, y, x, out)
        np.testing.assert_array_equal(
            out, csr_accumulate_loop(summed, dense, base.copy()))
        assert not np.array_equal(out, base + summed @ dense)
        with pytest.raises(ValueError):
            _rhs(product, summed.data, generator, y, np.asfortranarray(x), out)

    @pytest.mark.parametrize("name", ["fig2", "qutrit"])
    def test_buffered_steps_are_bitwise_the_rk4_expression(self, name):
        """Two _rk4_steps steps are, bit for bit, the steps formed from
        fresh arrays: each stage's unscaled data times y_k @ (c generator),
        c = h/2, h/2, h, accumulated into a copy of y, then the RK4_WEIGHTS
        sum of [y, y2, y3, y4] with the h/6 stage accumulated into it."""
        summed, generator, y = self._rhs_case(name)
        h = 0.01
        data = np.random.default_rng(6).standard_normal((5, summed.nnz))
        matrix = summed.copy()

        def accumulate(stage_data, factor, x, base):
            matrix.data = stage_data
            return csr_accumulate_loop(
                matrix, (x @ (factor * generator)).reshape(-1, x.shape[1]),
                base.copy())

        expected = y
        for j in range(2):
            y2 = accumulate(data[2 * j], h / 2, expected, expected)
            y3 = accumulate(data[2 * j + 1], h / 2, y2, expected)
            y4 = accumulate(data[2 * j + 1], h, y3, expected)
            weighted = np.dot(RK4_WEIGHTS,
                              np.stack([expected, y2, y3, y4]).reshape(4, -1))
            expected = accumulate(data[2 * j + 2], h / 6, y4,
                                  weighted.reshape(y.shape))
        got, unscaled = y.copy(), data.copy()
        _rk4_steps(_sparse_product(summed, y.shape[1]), generator, data, h,
                   got, np.empty((y.shape[0], generator.shape[1])),
                   np.empty((4,) + y.shape))
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(data, unscaled)

    def test_fig2_steps_match_the_increment_form(self):
        """On fig2's model and basis (s = 3, p = 9), over as many steps as a
        fig2 pce run takes (2189), _rk4_steps stays within 1e-13 of
        y + ((a1 + 2 a2 + a3) / 3 + a4) with each a_k from a zeroed
        product.  The two forms round differently, step by step."""
        model = make_model(OrnsteinUhlenbeckKernel(3.0, 10.0))
        modes = ou_modes(model.kernel, model.horizon, n_modes=12)
        kle = select_modes(modes, cumulative_rates(modes, model), 3)
        basis = enumerate_indices(3, 9)
        summed, entry_modes = _summed_couplings(build_couplings(basis))
        generator = _generator(model)
        product = _sparse_product(summed, 3)
        n_steps, h = 2189, 1 / 2189
        y = _coordinates(initial_pce_state(RHO_PLUS_X, basis).coefficients)
        expected = y.copy()
        x, stack = np.empty((basis.size, 6)), np.empty((4,) + y.shape)
        matrix = summed.copy()

        def increment(stage_data, inputs):
            matrix.data = stage_data
            return matrix @ (inputs @ generator).reshape(-1, 3)

        for first in range(0, n_steps, 100):
            steps = min(100, n_steps - first)
            times = (h / 2) * np.arange(2 * first, 2 * (first + steps) + 1)
            s_stage = np.vstack([scaled_modes_matrix(kle.modes, model.kernel,
                                                     times),
                                 np.ones(times.size)])
            data = s_stage.T[:, entry_modes] * summed.data
            for j in range(steps):
                a1 = increment((h / 2) * data[2 * j], expected)
                a2 = increment((h / 2) * data[2 * j + 1], expected + a1)
                a3 = increment(h * data[2 * j + 1], expected + a2)
                a4 = increment((h / 6) * data[2 * j + 2], expected + a3)
                expected = expected + ((a1 + 2 * a2 + a3) / 3 + a4)
            _rk4_steps(product, generator, data, h, y, x, stack)
        assert np.max(np.abs(y[1:])) > 0.05  # the noise moved it
        assert not np.array_equal(y, expected)
        np.testing.assert_allclose(y, expected, rtol=0, atol=1e-13)

    def test_rk4_weights_keep_the_fig2_weighted_norm(self):
        """RK4_WEIGHTS sum to exactly 1 as rationals, and over the fig2
        preset's 2189 steps the weighted norm, which the exact flow
        conserves, drifts by at most 1.2e-13 (7.4e-14 measured).  The
        weights (-1/3, 1/3, 2/3, 1/3) sum to 1 - 5.6e-17 and drift by
        1.9e-13."""
        assert sum(map(Fraction, RK4_WEIGHTS.tolist())) == 1
        config = parse_config(
            (resources.files("stochpce") / "presets" / "fig2.ini").read_text())
        model = config.build_model()
        modes = ou_modes(model.kernel, config.model.tau,
                         grid_size=config.kle.grid_size,
                         n_modes=config.kle.candidate_modes)
        kle = select_modes(modes, cumulative_rates(modes, model), config.kle.s)
        basis = enumerate_indices(config.kle.s, config.pce.p)
        states = propagate(initial_pce_state(config.build_rho0(), basis),
                           model, kle, build_couplings(basis),
                           config.output_times(), dt_max=config.pce.dt_max)
        norm0 = weighted_norm(states[0])
        assert max(abs(weighted_norm(st) - norm0) for st in states) <= 1.2e-13

    @staticmethod
    def _assert_matches_commutator_loop(model, kle, basis, rho0, t_grid,
                                        dt_max):
        couplings = build_couplings(basis)
        start = initial_pce_state(rho0, basis)
        states = propagate(start, model, kle, couplings, t_grid, dt_max=dt_max)
        reference = galerkin_rk4_loop(
            start.coefficients, t_grid, dt_max, model.h0, lambda t: model.v,
            lambda t: scaled_modes_matrix(kle.modes, model.kernel, [t])[:, 0],
            couplings.mode_matrices)
        got = np.array([st.coefficients for st in states])
        assert np.max(np.abs(reference[-1, 1:])) > 0.05  # the noise moved it
        np.testing.assert_allclose(got, reference, rtol=0, atol=1e-13)

    def test_propagate_matches_commutator_loop(self):
        """The real-coordinate RHS reproduces RK4 over the per-coefficient
        complex commutator loop on a 3x3 model."""
        model = make_model(OrnsteinUhlenbeckKernel(2.0, 1.0), h0=H0_3,
                           v=V_3)
        self._assert_matches_commutator_loop(
            model, build_kle(model, 2), enumerate_indices(2, 4), RHO_3,
            np.array([0.0, 0.3, 0.7, 1.0]), 0.01)

    def test_fig2_propagate_matches_commutator_loop(self):
        """The same on fig2's noise and basis (s = 3, p = 9, N = 220) over a
        short grid."""
        model = make_model(OrnsteinUhlenbeckKernel(3.0, 10.0))
        self._assert_matches_commutator_loop(
            model, build_kle(model, 3, grid_size=400, candidates=12),
            enumerate_indices(3, 9), RHO_PLUS_X, np.array([0.0, 0.1, 0.25]),
            5e-3)

    @pytest.mark.parametrize("h0,alpha,s,p", [(20.0 * SIGMA_X, 1.0, 3, 4),
                                              (SIGMA_X, 3.0, 3, 9)],
                             ids=["fig1_bottom", "fig2"])
    def test_propagate_matches_rotating_frame_loop(self, h0, alpha, s, p):
        """The Schrodinger-frame hierarchy agrees within 1e-9 with RK4 over
        the same loop in the h0 rotating frame (h0 = 0, V(t) =
        U0(t)^dag v U0(t)), rotated back by U0(t), at the presets' dt_max.
        fig1_bottom's h0 = 20 sx is the stiffest shipped drift."""
        model = make_model(OrnsteinUhlenbeckKernel(alpha, 10.0), h0=h0)
        kle = build_kle(model, s, grid_size=400, candidates=12)
        basis = enumerate_indices(s, p)
        couplings = build_couplings(basis)
        start = initial_pce_state(RHO_PLUS_X, basis)
        t_grid, dt_max = np.array([0.0, 0.05, 0.1]), 5e-4
        states = propagate(start, model, kle, couplings, t_grid, dt_max=dt_max)
        rotating = galerkin_rk4_loop(
            start.coefficients, t_grid, dt_max, np.zeros((2, 2)),
            lambda t: rotating_frame_potential(model, t),
            lambda t: scaled_modes_matrix(kle.modes, model.kernel, [t])[:, 0],
            couplings.mode_matrices)
        u0 = frame_rotations(model, t_grid)[:, None]
        reference = u0 @ rotating @ np.swapaxes(u0.conj(), -1, -2)
        got = np.array([st.coefficients for st in states])
        assert np.max(np.abs(reference[-1, 1:])) > 0.01  # the noise moved it
        np.testing.assert_allclose(got, reference, rtol=0, atol=1e-9)

    def test_rejects_foreign_couplings(self):
        state = initial_pce_state(RHO_PLUS_X, self.basis)
        other = build_couplings(enumerate_indices(2, 4))
        with pytest.raises(DimensionMismatchError, match="bases"):
            propagate(state, self.model, self.kle, other, [0.0, 0.1])

    def test_rejects_wrong_stochastic_dim(self):
        """A 3-mode KLE must not run on a 2-mode basis (the third mode would
        otherwise be dropped without notice)."""
        state = initial_pce_state(RHO_PLUS_X, self.basis)
        kle3 = build_kle(self.model, 3)
        with pytest.raises(DimensionMismatchError, match="KLE has 3 modes"):
            propagate(state, self.model, kle3, self.couplings, [0.0, 0.1])

    def test_rejects_wrong_model_dim(self):
        state = initial_pce_state(RHO_PLUS_X, self.basis)
        big = StochasticModel(h0=np.eye(3, dtype=complex),
                              v=np.eye(3, dtype=complex),
                              kernel=self.model.kernel, horizon=1.0)
        with pytest.raises(DimensionMismatchError, match="model dimension"):
            propagate(state, big, self.kle, self.couplings, [0.0, 0.1])


class TestPropagateValidation:
    def setup_method(self):
        self.model = make_model(OrnsteinUhlenbeckKernel(1.0, 1.0))
        self.kle = build_kle(self.model, 1)
        self.basis = enumerate_indices(1, 2)
        self.couplings = build_couplings(self.basis)
        self.state = initial_pce_state(RHO_PLUS_X, self.basis)

    def test_grid_must_start_at_state_time(self):
        """The message prints both times as plain floats, not NumPy reprs."""
        with pytest.raises(ValueError, match=re.escape(
                "t_grid starts at 0.5, state is at 0.0")):
            propagate(self.state, self.model, self.kle, self.couplings,
                      [0.5, 1.0])

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            propagate(self.state, self.model, self.kle, self.couplings,
                      [0.0, 0.5, 0.5])

    @pytest.mark.parametrize("t_grid", [[0.0, np.nan], [0.0, np.inf],
                                        [0.0, 0.5, np.nan]])
    def test_grid_must_be_finite(self, t_grid):
        with pytest.raises(ValueError, match="finite"):
            propagate(self.state, self.model, self.kle, self.couplings, t_grid)

    def test_grid_must_end_by_the_horizon(self):
        """The KL modes represent the noise on [0, horizon] only: a grid to
        t = 3 on horizon 1 is an error that names both times, and a grid
        that ends at the horizon up to rounding runs."""
        with pytest.raises(ValueError, match=re.escape(
                "t_grid ends at 3.0, past the model horizon 1.0")):
            propagate(self.state, self.model, self.kle, self.couplings,
                      [0.0, 1.0, 3.0])
        states = propagate(self.state, self.model, self.kle, self.couplings,
                           [0.0, 1.0 + 1e-13], dt_max=0.05)
        assert states[-1].t == 1.0 + 1e-13

    def test_dt_max_must_be_positive(self):
        with pytest.raises(ValueError):
            propagate(self.state, self.model, self.kle, self.couplings,
                      [0.0, 1.0], dt_max=0.0)
        with pytest.raises(ValueError):
            propagate(self.state, self.model, self.kle, self.couplings,
                      [0.0, 1.0], dt_max=float("nan"))

    def test_oversized_records_are_a_capacity_error(self, monkeypatch):
        """The records of one call, T * N * d * d complex entries, over
        MAX_RECORD_BYTES raise before any RK4 step.  fig2's 201 records of
        220 coefficients take 201 * 220 * 4 * 16 bytes; the bound is
        inclusive."""
        model = make_model(OrnsteinUhlenbeckKernel(3.0, 10.0))
        kle = build_kle(model, 3)
        basis = enumerate_indices(3, 9)
        couplings = build_couplings(basis)
        state = initial_pce_state(RHO_PLUS_X, basis)
        t_grid = np.linspace(0.0, 1.0, 201)
        record_bytes = 201 * 220 * 4 * 16
        with monkeypatch.context() as patch:
            patch.setattr(hierarchy, "MAX_RECORD_BYTES", record_bytes - 1)
            patch.setattr(hierarchy, "_rk4_steps",
                          lambda *args: pytest.fail("integrated"))
            with pytest.raises(CapacityError,
                               match=f"201 records of 220 coefficients need "
                                     f"{record_bytes} bytes"):
                propagate(state, model, kle, couplings, t_grid, dt_max=5e-3)
        monkeypatch.setattr(hierarchy, "MAX_RECORD_BYTES", record_bytes)
        assert len(propagate(state, model, kle, couplings, t_grid,
                             dt_max=5e-3)) == 201

    def test_diverged_trace_detected(self):
        bad = np.zeros((self.basis.size, 2, 2), dtype=complex)
        bad[0] = (1.0 + 2e-6) * RHO_PLUS_X
        state = PCEState(coefficients=bad, t=0.0, basis=self.basis)
        with pytest.raises(PropagationDivergedError, match="trace"):
            propagate(state, self.model, self.kle, self.couplings, [0.0, 0.1])

    def test_diverged_hermiticity_detected(self):
        bad = np.zeros((self.basis.size, 2, 2), dtype=complex)
        bad[0] = RHO_PLUS_X
        bad[1, 0, 1] = 1e-5  # non-Hermitian, traceless perturbation
        state = PCEState(coefficients=bad, t=0.0, basis=self.basis)
        with pytest.raises(PropagationDivergedError, match="hermiticity"):
            propagate(state, self.model, self.kle, self.couplings, [0.0, 0.1])

    def test_nan_state_detected(self):
        """A NaN coefficient makes every invariant NaN, which must fail the
        checks rather than compare False against the tolerance."""
        bad = np.zeros((self.basis.size, 2, 2), dtype=complex)
        bad[0] = RHO_PLUS_X
        bad[1, 0, 0] = np.nan
        state = PCEState(coefficients=bad, t=0.0, basis=self.basis)
        with pytest.raises(PropagationDivergedError, match="nan"):
            propagate(state, self.model, self.kle, self.couplings, [0.0, 0.1])

    def test_nan_weighted_norm_fails_check(self):
        """The weighted norm of a NaN state is NaN, and the growth check must
        reject it rather than compare False against its bound."""
        bad = np.zeros((self.basis.size, 2, 2), dtype=complex)
        bad[0] = RHO_PLUS_X
        bad[2, 1, 0] = np.nan
        state = PCEState(coefficients=bad, t=0.0, basis=self.basis)
        norm = weighted_norm(state)
        assert np.isnan(norm)
        with pytest.raises(PropagationDivergedError, match="weighted norm nan"):
            _check_weighted_norm(norm, weighted_norm(self.state), 0.1)

    def test_unstable_integration_detected(self):
        """RK4 at dt_max = 0.25 is unstable for strong noise yet keeps every
        trace and hermiticity exactly; only the weighted norm, conserved by
        the exact flow, grows (to ~1e8 by t = 0.25)."""
        model = make_model(OrnsteinUhlenbeckKernel(30.0, 1.0))
        kle = build_kle(model, 2)
        basis = enumerate_indices(2, 12)
        with pytest.raises(PropagationDivergedError, match="weighted norm"):
            propagate(initial_pce_state(RHO_PLUS_X, basis), model, kle,
                      build_couplings(basis), np.linspace(0.0, 1.0, 5),
                      dt_max=0.25)

    def test_divergence_inside_a_block_names_its_record(self, monkeypatch):
        """Records are checked at the end of their chunk, but the error names
        the first failing time.  Four short intervals are stable; the fifth
        (one step of 0.246) is not, and three records follow it in the same
        chunk.  The expected time comes from chained one-interval runs with
        the checks switched off."""
        model = make_model(OrnsteinUhlenbeckKernel(30.0, 1.0))
        kle = build_kle(model, 2)
        basis = enumerate_indices(2, 12)
        couplings = build_couplings(basis)
        start = initial_pce_state(RHO_PLUS_X, basis)
        grid = [0.0, 0.001, 0.002, 0.003, 0.004, 0.25, 0.5, 0.75, 1.0]
        assert len(grid) - 1 <= BLOCK_SIZE
        with monkeypatch.context() as patch:
            patch.setattr(hierarchy, "DIVERGENCE_FACTOR", np.inf)
            state, norms = start, []
            for t0, t1 in zip(grid[:-1], grid[1:]):
                state = propagate(state, model, kle, couplings, [t0, t1],
                                  dt_max=0.25)[-1]
                norms.append(weighted_norm(state))
        bound = weighted_norm(start) * (1.0 + DIVERGENCE_FACTOR
                                        * WEIGHTED_NORM_TOL)
        first = next(pos for pos, norm in enumerate(norms) if not norm <= bound)
        assert 0 < first < len(norms) - 1
        message = (f"weighted norm {norms[first]:.3e} exceeds its initial "
                   f"{weighted_norm(start):.3e} at t = {grid[first + 1]!r};")
        with pytest.raises(PropagationDivergedError, match=re.escape(message)):
            propagate(start, model, kle, couplings, grid, dt_max=0.25)


class TestPropagation:
    def test_invariants_along_a_driven_run(self):
        model = make_model(OrnsteinUhlenbeckKernel(3.0, 10.0))
        kle = build_kle(model, 2)
        basis = enumerate_indices(2, 4)
        couplings = build_couplings(basis)
        states = propagate(initial_pce_state(RHO_PLUS_X, basis), model, kle,
                           couplings, np.linspace(0.0, 1.0, 11), dt_max=1e-3)
        assert len(states) == 11
        norm0 = weighted_norm(states[0])
        assert norm0 == pytest.approx(1.0)  # a pure initial state
        for st in states:
            assert trace_error(st) <= 1e-8
            assert hermiticity_error(st) <= 1e-8
            assert abs(weighted_norm(st) - norm0) <= 1e-9

    def test_blocks_match_chained_single_intervals(self):
        """Integrating in chunks of BLOCK_SIZE intervals gives the chained
        one-interval results, on an uneven grid of three full chunks and a
        partial one whose intervals take 1 to 4 steps each.  The complex to
        coordinate round trip between the chained runs is not bitwise, so
        the bound is 1e-14."""
        model = make_model(OrnsteinUhlenbeckKernel(3.0, 10.0))
        kle = build_kle(model, 2)
        basis = enumerate_indices(2, 4)
        couplings = build_couplings(basis)
        n_intervals = 3 * BLOCK_SIZE + 5
        spans = 0.004 * (1 + np.arange(n_intervals) % 4) - 1e-4
        grid = np.concatenate([[0.0], np.cumsum(spans)])
        state = initial_pce_state(RHO_PLUS_X, basis)
        states = propagate(state, model, kle, couplings, grid, dt_max=0.004)
        chained = [state]
        for t0, t1 in zip(grid[:-1], grid[1:]):
            chained.append(propagate(chained[-1], model, kle, couplings,
                                     [t0, t1], dt_max=0.004)[-1])
        assert [st.t for st in states] == [st.t for st in chained]
        got = np.array([st.coefficients for st in states])
        expected = np.array([st.coefficients for st in chained])
        assert np.max(np.abs(expected[-1, 1:])) > 0.01  # the noise moved it
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("block_stages,block_size", [
        (BLOCK_STAGES, BLOCK_SIZE), (7, 1), (7, 3), (40, 2)])
    def test_chunks_tile_the_steps_within_both_caps(self, monkeypatch,
                                                    block_stages, block_size):
        """Chunks walk every interval's steps in order, hold at most
        BLOCK_STAGES stages and BLOCK_SIZE interval ends each, and split an
        interval only where not one more step fits."""
        monkeypatch.setattr(hierarchy, "BLOCK_STAGES", block_stages)
        monkeypatch.setattr(hierarchy, "BLOCK_SIZE", block_size)
        big = block_stages // 2  # 2 * big + 1 stages: over budget alone
        steps = ([1] * (block_size + 3) + [big, 3 * big + 5]
                 + [max(1, big // 2)] * 3 + [1, 2])
        chunks = list(_chunks(steps))
        ranges = [r for chunk in chunks for r in chunk]
        walked = [(i, step) for i, first, stop in ranges
                  for step in range(first, stop)]
        assert walked == [(i, step) for i, n in enumerate(steps)
                          for step in range(n)]
        for pos, chunk in enumerate(chunks):
            stages = sum(2 * (stop - first) + 1 for _, first, stop in chunk)
            ends = sum(stop == steps[i] for i, _, stop in chunk)
            assert 0 < stages <= block_stages and ends <= block_size
            full = stages + 3 > block_stages
            assert pos == len(chunks) - 1 or full or ends == block_size
            for i, _, stop in chunk[:-1]:
                assert stop == steps[i]  # a split range ends its chunk
            if chunk[-1][2] < steps[chunk[-1][0]]:
                assert full
        if (block_stages, block_size) == (BLOCK_STAGES, BLOCK_SIZE):
            assert [chunk[-1] for chunk in chunks] == [
                (15, 0, 1), (19, 0, 251), (20, 0, 250), (20, 250, 505),
                (20, 505, 760), (22, 0, 113), (25, 0, 2)]

    def test_long_interval_runs(self, monkeypatch):
        """An interval over the stage budget is integrated over several
        chunks; on Nystrom modes, whose GEMV bits move with the number of
        stage times, the records match one unsplit chunk to 1e-14."""
        n_steps = 600  # the last interval, 0.59 of 0.6, spans three chunks
        model = make_model(OrnsteinUhlenbeckKernel(3.0, 10.0))
        kle = build_kle(model, 2)
        basis = enumerate_indices(2, 3)
        couplings = build_couplings(basis)
        state = initial_pce_state(RHO_PLUS_X, basis)
        grid = [0.0, 0.4, 0.41, 1.0]
        dt_max = 0.6 / n_steps
        split = propagate(state, model, kle, couplings, grid, dt_max=dt_max)
        monkeypatch.setattr(hierarchy, "BLOCK_STAGES", 10 ** 9)
        whole = propagate(state, model, kle, couplings, grid, dt_max=dt_max)
        got = np.array([st.coefficients for st in split])
        expected = np.array([st.coefficients for st in whole])
        assert np.max(np.abs(expected[-1, 1:])) > 0.01  # the noise moved it
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)

    def test_chunking_changes_no_bit_on_closed_form_modes(self, monkeypatch):
        """On closed-form OU modes every stage value is computed on its own,
        so the records are bitwise the same for the default chunks, one
        chunk for the whole grid and chunks of one to three steps."""
        model = make_model(OrnsteinUhlenbeckKernel(3.0, 10.0))
        modes = ou_modes(model.kernel, model.horizon, n_modes=6)
        kle = select_modes(modes, cumulative_rates(modes, model), 2)
        basis = enumerate_indices(2, 3)
        couplings = build_couplings(basis)
        state = initial_pce_state(RHO_PLUS_X, basis)
        grid = np.concatenate([[0.0, 0.3], 0.3 + np.arange(1, 36) * 0.02])
        records = []
        for block_stages, block_size in ((BLOCK_STAGES, BLOCK_SIZE),
                                         (10 ** 9, 10 ** 9), (7, 1)):
            monkeypatch.setattr(hierarchy, "BLOCK_STAGES", block_stages)
            monkeypatch.setattr(hierarchy, "BLOCK_SIZE", block_size)
            states = propagate(state, model, kle, couplings, grid, dt_max=1e-3)
            records.append(np.array([st.coefficients for st in states]))
        assert np.max(np.abs(records[0][-1, 1:])) > 0.01  # the noise moved it
        np.testing.assert_array_equal(records[1], records[0])
        np.testing.assert_array_equal(records[2], records[0])

    def test_peak_memory_does_not_grow_with_steps(self):
        """One output interval of ~20000 steps peaks within 1.5x of one of
        ~500 steps: stage data are built per chunk, not per interval."""
        model = make_model(OrnsteinUhlenbeckKernel(3.0, 10.0))
        kle = build_kle(model, 2)
        basis = enumerate_indices(2, 2)
        couplings = build_couplings(basis)
        state = initial_pce_state(RHO_PLUS_X, basis)
        peaks = []
        for n_steps in (500, 20000):
            tracemalloc.start()
            try:
                propagate(state, model, kle, couplings, [0.0, 1.0],
                          dt_max=1.0 / n_steps)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]

    def test_rk4_convergence_order(self):
        """Halving dt_max shrinks the self-error vs a dt/4 reference by ~17x:
        err(h)/err(h/2) = (1 - 4^-4)/(2^-4 - 4^-4) for a 4th-order method."""
        model = make_model(OrnsteinUhlenbeckKernel(1.0, 1.0), horizon=0.5)
        kle = build_kle(model, 2)
        basis = enumerate_indices(2, 3)
        couplings = build_couplings(basis)
        start = initial_pce_state(RHO_PLUS_X, basis)
        grid = [0.0, 0.5]

        h = 0.5 / 8
        solutions = {}
        for level, step in enumerate([h, h / 2, h / 4]):
            final = propagate(start, model, kle, couplings, grid,
                              dt_max=step)[-1]
            solutions[level] = final.coefficients
        err_coarse = np.max(np.abs(solutions[0] - solutions[2]))
        err_fine = np.max(np.abs(solutions[1] - solutions[2]))
        factor = err_coarse / err_fine
        assert 10.0 <= factor <= 24.0

    @pytest.mark.parametrize("p", [3, 6, 10, 30, 60])
    def test_one_mode_hierarchy_equals_gauss_hermite_collocation(self, p):
        """For s = 1 the order-p hierarchy is (p+1)-point Gauss-Hermite
        collocation in another basis; stepped by RK4 on the same stage grid
        (fig2's dominant mode), the two agree to round-off."""
        model = make_model(OrnsteinUhlenbeckKernel(3.0, 10.0))
        kle = build_kle(model, 1, grid_size=400, candidates=12)
        basis = enumerate_indices(1, p)
        final = propagate(initial_pce_state(RHO_PLUS_X, basis), model, kle,
                          build_couplings(basis), [0.0, 1.0], dt_max=5e-3)[-1]
        steps, h = 200, 1.0 / 200
        stage_times = (h / 2) * np.arange(2 * steps + 1)
        reference = gauss_hermite_collocation_rk4(
            RHO_PLUS_X, p, h, model.h0, model.v,
            scaled_modes_matrix(kle.modes, model.kernel, stage_times)[0])
        assert np.max(np.abs(reference[1:])) > 0.05  # the noise moved it
        np.testing.assert_allclose(final.coefficients, reference, rtol=0,
                                   atol=1e-13)

    def test_degree_200_one_mode_fig2_run(self):
        """The fig2 preset on its dominant mode at degree 200, whose Hermite
        norm 200! would overflow a float64: the run conserves the weighted
        norm to 1e-9, and its final variance of sx agrees with degree 80 to
        1e-9."""
        config = parse_config(
            (resources.files("stochpce") / "presets" / "fig2.ini").read_text())
        model = config.build_model()
        modes = ou_modes(model.kernel, config.model.tau,
                         grid_size=config.kle.grid_size,
                         n_modes=config.kle.candidate_modes)
        kle = select_modes(modes, cumulative_rates(modes, model), 1)
        obs = config.build_observable()
        final_variance = {}
        for p in (80, 200):
            basis = enumerate_indices(1, p)
            states = propagate(initial_pce_state(config.build_rho0(), basis),
                               model, kle, build_couplings(basis),
                               config.output_times(),
                               dt_max=config.pce.dt_max)
            norm0 = weighted_norm(states[0])
            assert max(abs(weighted_norm(st) - norm0) for st in states) <= 1e-9
            final_variance[p] = observable_variance(states[-1], obs)
        assert final_variance[200] > 0.1  # the noise spread sx
        assert abs(final_variance[200] - final_variance[80]) <= 1e-9

    def test_zeroth_order_only_is_frozen(self):
        """P = 0 has no couplings: the single coefficient must not move at all."""
        model = make_model(OrnsteinUhlenbeckKernel(2.0, 5.0))
        kle = build_kle(model, 3)
        basis = enumerate_indices(3, 0)
        couplings = build_couplings(basis)
        assert [m.nnz for m in couplings.mode_matrices] == [0, 0, 0]
        states = propagate(initial_pce_state(RHO_PLUS_X, basis), model, kle,
                           couplings, np.linspace(0.0, 1.0, 6), dt_max=0.01)
        for st in states:
            np.testing.assert_array_equal(st.coefficients,
                                          states[0].coefficients)

    def test_zero_amplitude_noise_gives_noiseless_motion(self):
        """alpha = 0 makes every KL mode null; the mean must follow the bare
        drift, which leaves the initial |+x> state invariant for h0 = sx."""
        model = make_model(OrnsteinUhlenbeckKernel(0.0, 10.0))
        obs = run_observable(model, 3, 4, np.linspace(0.0, 1.0, 6),
                             dt_max=0.01)
        np.testing.assert_allclose(obs, 1.0, atol=1e-12)

    def test_dephasing_matches_closed_form(self):
        """h0 = 0, v = sz: the coherence decay has an exact Gaussian-phase
        answer; three retained modes and order six reproduce it to 2e-3."""
        model = make_model(OrnsteinUhlenbeckKernel(0.25, 10.0),
                           h0=np.zeros((2, 2), dtype=complex))
        t_grid = np.linspace(0.0, 1.0, 21)
        obs = run_observable(model, 3, 6, t_grid, grid_size=300)
        np.testing.assert_allclose(obs, dephasing_coherence(0.25, 10.0, t_grid),
                                   atol=2e-3)

    def test_dephasing_error_decreases_with_order(self):
        """Max deviation from the closed form is non-increasing over
        P in {2, 4, 6, 8} (10% slack for floor effects)."""
        model = make_model(OrnsteinUhlenbeckKernel(0.25, 10.0),
                           h0=np.zeros((2, 2), dtype=complex))
        t_grid = np.linspace(0.0, 1.0, 21)
        exact = dephasing_coherence(0.25, 10.0, t_grid)
        errors = []
        for p in (2, 4, 6, 8):
            obs = run_observable(model, 3, p, t_grid, grid_size=300)
            errors.append(np.max(np.abs(obs - exact)))
        for previous, current in zip(errors[:-1], errors[1:]):
            assert current <= 1.1 * previous

    def test_static_noise_matches_hermite_ensemble(self):
        """Constant kernel <=> one frozen Gaussian amplitude: the hierarchy
        must land on the Gauss-Hermite average of the exact Rabi formula.

        Regression guard for the drift term: this oracle has a nondiagonal
        h0 and is sensitive to any slip in applying it, unlike dephasing
        checks (h0 = 0) or solver cross-comparisons that share the code.
        """
        model = make_model(ConstantKernel(0.5))
        t_grid = np.linspace(0.0, 1.0, 11)
        obs = run_observable(model, 1, 9, t_grid, grid_size=100)
        np.testing.assert_allclose(obs, static_ensemble_sx(0.5, t_grid),
                                   atol=1e-9)


class TestMoments:
    def setup_method(self):
        self.model = make_model(OrnsteinUhlenbeckKernel(0.25, 10.0),
                                h0=np.zeros((2, 2), dtype=complex))
        self.kle = build_kle(self.model, 3, grid_size=300)
        self.basis = enumerate_indices(3, 8)
        self.couplings = build_couplings(self.basis)

    def test_initial_moments(self):
        state = initial_pce_state(RHO_PLUS_X, self.basis)
        np.testing.assert_allclose(mean_state(state), RHO_PLUS_X, atol=1e-14)
        assert observable_mean(state, SIGMA_X) == pytest.approx(1.0)
        assert observable_variance(state, SIGMA_X) == 0.0

    def test_mean_state_is_schrodinger_frame(self):
        """The bare drift h0 = sz turns |+x> by exp(-i sz t); RK4 at
        dt_max = 1e-3 follows it to 1e-12."""
        model = make_model(OrnsteinUhlenbeckKernel(0.0, 1.0), h0=SIGMA_Z)
        kle = build_kle(model, 1)
        basis = enumerate_indices(1, 1)
        states = propagate(initial_pce_state(RHO_PLUS_X, basis), model, kle,
                           build_couplings(basis), [0.0, 0.4], dt_max=1e-3)
        rho = mean_state(states[-1])
        u0 = np.diag(np.exp(-1j * np.array([1.0, -1.0]) * 0.4))
        expected = u0 @ RHO_PLUS_X @ u0.conj().T
        np.testing.assert_allclose(rho, expected, atol=1e-12)
        np.testing.assert_allclose(rho, rho.conj().T, atol=0)

    def test_dephasing_variance_closed_form(self):
        states = propagate(initial_pce_state(RHO_PLUS_X, self.basis),
                           self.model, self.kle, self.couplings,
                           np.linspace(0.0, 1.0, 6), dt_max=1e-3)
        got = np.array([observable_variance(st, SIGMA_X) for st in states])
        expected = dephasing_sx_variance(0.25, 10.0, np.linspace(0.0, 1.0, 6))
        np.testing.assert_allclose(got, expected, atol=5e-3)
        assert np.all(got >= 0.0)

    def test_static_variance_matches_hermite_quadrature(self):
        """Var over realizations for the frozen-amplitude Rabi model, checked
        against direct Gauss-Hermite quadrature of the exact formula."""
        model = make_model(ConstantKernel(0.5))
        kle = build_kle(model, 1, grid_size=100)
        basis = enumerate_indices(1, 9)
        states = propagate(initial_pce_state(RHO_PLUS_X, basis), model, kle,
                           build_couplings(basis), [0.0, 1.0], dt_max=1e-3)
        got = observable_variance(states[-1], SIGMA_X)

        nodes, weights = roots_hermitenorm(300)
        weights = weights / weights.sum()
        w2 = (0.5 * nodes) ** 2
        f = (1.0 + w2 * np.cos(2.0 * np.sqrt(1.0 + w2) * 1.0)) / (1.0 + w2)
        expected = float(weights @ f**2 - (weights @ f) ** 2)
        assert got == pytest.approx(expected, abs=1e-6)

    def test_corrupted_mean_rejected(self):
        bad = np.zeros((self.basis.size, 2, 2), dtype=complex)
        bad[0] = 0.9 * RHO_PLUS_X
        state = PCEState(coefficients=bad, t=0.0, basis=self.basis)
        with pytest.raises(CorruptedStateError):
            mean_state(state)

    def test_state_time_is_a_python_float(self):
        """A NumPy scalar time is stored as a float, so a read-out error
        names t = 0.25, not t = np.float64(0.25)."""
        bad = np.zeros((self.basis.size, 2, 2), dtype=complex)
        bad[0] = 0.9 * RHO_PLUS_X
        state = PCEState(coefficients=bad, t=np.float64(0.25), basis=self.basis)
        assert type(state.t) is float and state.t == 0.25
        with pytest.raises(CorruptedStateError, match=re.escape(
                "at t = 0.25 deviates from 1")):
            mean_state(state)

    def test_nan_mean_rejected(self):
        bad = np.zeros((self.basis.size, 2, 2), dtype=complex)
        bad[0] = RHO_PLUS_X
        bad[0, 1, 1] = np.nan
        state = PCEState(coefficients=bad, t=0.0, basis=self.basis)
        with pytest.raises(CorruptedStateError,
                           match=r"^mean state trace \(nan\+0j\) at t = 0\.0 "):
            mean_state(state)

    def test_nan_higher_coefficient_rejected_by_variance(self):
        """A NaN phi_m with m != 0 leaves the mean alone but not the
        variance, which must not come out as a silent nan."""
        bad = np.zeros((self.basis.size, 2, 2), dtype=complex)
        bad[0] = RHO_PLUS_X
        bad[2, 0, 1] = np.nan
        state = PCEState(coefficients=bad, t=0.25, basis=self.basis)
        with pytest.raises(CorruptedStateError, match=r"t = 0\.25 "):
            observable_variance(state, SIGMA_X)

    def test_min_eigenvalue(self):
        assert min_eigenvalue(RHO_PLUS_X) == pytest.approx(0.0, abs=1e-12)
        assert min_eigenvalue(0.5 * IDENTITY) == pytest.approx(0.5)

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_min_eigenvalue_rejects_non_finite(self, value):
        """eigvalsh returns -0.0 for [[nan, 0], [0, 1]], which would pass
        a NaN state as positive."""
        with pytest.raises(CorruptedStateError, match="non-finite"):
            min_eigenvalue([[value, 0], [0, 1]])


def _fig2_case():
    """The fig2 model (H = sx + Omega sz, C(t) = 9 exp(-|t|/10), s=3, p=9)
    on 41 output times, more than two read-out blocks, observed by sx."""
    model = make_model(OrnsteinUhlenbeckKernel(3.0, 10.0))
    basis = enumerate_indices(3, 9)
    states = propagate(initial_pce_state(RHO_PLUS_X, basis), model,
                       build_kle(model, 3), build_couplings(basis),
                       np.linspace(0.0, 1.0, 41), dt_max=5e-3)
    return states, SIGMA_X


def _qutrit_case():
    """The three-level model with a non-diagonal complex h0 (s=2, p=4) on
    41 output times, observed by a complex non-diagonal observable."""
    model = make_model(OrnsteinUhlenbeckKernel(1.0, 2.0), h0=H0_3, v=V_3)
    basis = enumerate_indices(2, 4)
    states = propagate(initial_pce_state(RHO_3, basis), model,
                       build_kle(model, 2, grid_size=100), build_couplings(basis),
                       np.linspace(0.0, 1.0, 41), dt_max=1e-2)
    obs = np.array([[0.0, 1.0, 0.5j], [1.0, 0.3, 0.2], [-0.5j, 0.2, -1.0]])
    return states, obs


def _read_out(states, obs) -> dict:
    rho = mean_state(states)
    return {"mean_state": rho,
            "observable_mean": observable_mean(states, obs),
            "expectation": expectation(obs, rho),
            "observable_variance": observable_variance(states, obs),
            "trace_error": trace_error(states),
            "hermiticity_error": hermiticity_error(states),
            "min_eigenvalue": min_eigenvalue(rho)}


@pytest.fixture(scope="module", params=[_fig2_case, _qutrit_case],
                ids=["fig2", "qutrit"])
def read_out_case(request):
    return request.param()


class TestBatchedReadout:
    def test_batch_entries_are_bitwise_scalar_calls(self, read_out_case):
        states, obs = read_out_case
        batch = _read_out(states, obs)
        d = states[0].dim
        for name, values in batch.items():
            expected_shape = (len(states), d, d) if name == "mean_state" else (len(states),)
            assert values.shape == expected_shape, name
        for k, state in enumerate(states):
            single = _read_out(state, obs)
            for name, value in single.items():
                if name == "mean_state":
                    assert value.shape == (d, d)
                else:
                    assert type(value) is float, name
                assert np.asarray(value).tobytes() == batch[name][k].tobytes(), \
                    (name, k)

    def test_batch_matches_per_record_loop(self, read_out_case):
        states, obs = read_out_case
        batch = _read_out(states, obs)
        got = np.stack([batch[name] for name in (
            "observable_mean", "observable_variance", "trace_error",
            "hermiticity_error", "min_eigenvalue")], axis=1)
        expected = pce_curve_loop(obs, [st.coefficients for st in states])
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("corruption", ["trace", "nan"])
    def test_batch_names_first_corrupted_record(self, read_out_case, corruption):
        """Records 5 and 23 are both corrupted; the error names record 5."""
        states, obs = read_out_case
        states = list(states)
        for k in (5, 23):
            coeffs = states[k].coefficients.copy()
            if corruption == "trace":
                coeffs[0] *= 0.9
            else:
                coeffs[0, 1, 1] = np.nan
                coeffs[3, 0, 1] = np.nan
            states[k] = PCEState(coefficients=coeffs, t=states[k].t,
                                 basis=states[k].basis)
        named = re.escape(f"t = {states[5].t!r} ")
        with pytest.raises(CorruptedStateError, match=named):
            mean_state(states)
        with pytest.raises(CorruptedStateError, match=named):
            observable_mean(states, obs)
        if corruption == "nan":
            with pytest.raises(CorruptedStateError, match=named):
                observable_variance(states, obs)
            stack = np.stack([st.coefficients[0] for st in states])
            with pytest.raises(CorruptedStateError, match="^matrix 5 "):
                min_eigenvalue(stack)

    def test_expectation_names_first_failing_matrix(self):
        rho = np.stack([RHO_PLUS_X] * 20)
        rho[7, 0, 1] += 1e-6j
        rho[12, 0, 1] += 1e-6j
        with pytest.raises(NumericalConsistencyError, match="operator 7 "):
            expectation(SIGMA_X, rho)
        with pytest.raises(NumericalConsistencyError,
                           match="^expectation value of operator has"):
            expectation(SIGMA_X, rho[7])
        rho[3, 1, 1] = np.inf
        with pytest.raises(InvalidOperatorError, match="^operator 3 has non-finite"):
            expectation(SIGMA_X, rho)

    def test_batch_of_mixed_bases_rejected(self):
        """Two sets of the same size: the weights of one are wrong for the
        other's coefficients."""
        other = MultiIndexSet(((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (0, 3)))
        states = [initial_pce_state(RHO_PLUS_X, basis)
                  for basis in (enumerate_indices(2, 2), other)]
        with pytest.raises(DimensionMismatchError, match="different bases"):
            trace_error(states)
