"""Operator algebra, propagators, and the rotating-frame transform."""
import numpy as np
import pytest
from scipy.linalg import expm

from stochpce import (
    IDENTITY,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DimensionMismatchError,
    InvalidOperatorError,
    NumericalConsistencyError,
    OrnsteinUhlenbeckKernel,
    StochasticModel,
)
from stochpce.operators import (
    as_operator,
    check_hermitian,
    expectation,
    frame_rotations,
    rotating_frame_potential,
    validate_density_matrix,
)

RHO_PLUS_X = 0.5 * IDENTITY + 0.5 * SIGMA_X


def make_model(h0, v=SIGMA_Z, horizon=1.0):
    return StochasticModel(h0=h0, v=v,
                           kernel=OrnsteinUhlenbeckKernel(alpha=1.0, tau_c=1.0),
                           horizon=horizon)


class TestPauliConstants:
    def test_squares_are_identity(self):
        for sigma in (SIGMA_X, SIGMA_Y, SIGMA_Z):
            np.testing.assert_allclose(sigma @ sigma, IDENTITY, atol=1e-15)

    def test_cyclic_products(self):
        np.testing.assert_allclose(SIGMA_X @ SIGMA_Y, 1j * SIGMA_Z, atol=1e-15)
        np.testing.assert_allclose(SIGMA_Y @ SIGMA_Z, 1j * SIGMA_X, atol=1e-15)
        np.testing.assert_allclose(SIGMA_Z @ SIGMA_X, 1j * SIGMA_Y, atol=1e-15)

    def test_constants_are_write_protected(self):
        with pytest.raises(ValueError):
            SIGMA_X[0, 0] = 5.0


class TestValidators:
    def test_as_operator_rejects_non_square(self):
        with pytest.raises(InvalidOperatorError):
            as_operator(np.ones((2, 3)))

    def test_as_operator_rejects_non_finite(self):
        with pytest.raises(InvalidOperatorError):
            as_operator(np.array([[np.nan, 0], [0, 1]]))

    def test_check_hermitian_rejects(self):
        with pytest.raises(InvalidOperatorError):
            check_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_density_matrix_valid(self):
        out = validate_density_matrix(RHO_PLUS_X)
        np.testing.assert_allclose(out, RHO_PLUS_X)

    def test_density_matrix_bad_trace(self):
        with pytest.raises(InvalidOperatorError, match="trace"):
            validate_density_matrix(0.6 * IDENTITY)

    def test_density_matrix_negative_eigenvalue(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(InvalidOperatorError, match="negative"):
            validate_density_matrix(bad)

    def test_expectation_real(self):
        assert expectation(SIGMA_X, RHO_PLUS_X) == pytest.approx(1.0)

    def test_expectation_flags_imaginary_part(self):
        rho_bad = np.array([[0, 1j], [0, 0]])
        with pytest.raises(NumericalConsistencyError):
            expectation(SIGMA_X, rho_bad)


class TestStochasticModel:
    def test_requires_positive_horizon(self):
        with pytest.raises(InvalidOperatorError):
            make_model(SIGMA_X, horizon=0.0)

    def test_requires_matching_dims(self):
        with pytest.raises(DimensionMismatchError):
            StochasticModel(h0=SIGMA_X, v=np.eye(3, dtype=complex),
                            kernel=OrnsteinUhlenbeckKernel(1.0, 1.0), horizon=1.0)

    def test_eigensystem_is_cached(self):
        model = make_model(SIGMA_X)
        assert model.h0_eigensystem() is model.h0_eigensystem()

    def test_operators_are_frozen(self):
        model = make_model(SIGMA_X)
        with pytest.raises(ValueError):
            model.h0[0, 0] = 1.0


class TestPropagators:
    def test_static_propagator_matches_expm(self):
        """frame_rotations against dense expm for a non-diagonal 3x3 h0.

        The batched call must equal each scalar call bitwise, and both must
        include the closing eigenvector rotation (dropping it is invisible
        for diagonal h0).
        """
        rng = np.random.default_rng(11)
        raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h0 = 0.5 * (raw + raw.conj().T)
        model = make_model(h0, v=np.diag([1.0, 0.0, -1.0]).astype(complex))
        times = np.array([0.0, 0.31, 2.7])
        batch = frame_rotations(model, times)
        assert batch.shape == (3, 3, 3)
        for t, u0 in zip(times, batch):
            np.testing.assert_allclose(u0, expm(-1j * h0 * t), atol=1e-12)
            np.testing.assert_array_equal(frame_rotations(model, t), u0)

    def test_propagator_composition(self):
        model = make_model(SIGMA_X + 0.3 * SIGMA_Z)
        u1, u2, u3 = frame_rotations(model, np.array([0.4, 0.7, 1.1]))
        np.testing.assert_allclose(u2 @ u1, u3, atol=1e-12)


class TestRotatingFrame:
    def test_matches_expm_sandwich(self):
        """V(t) = e^{+i h0 t} v e^{-i h0 t}, checked against dense expm.

        Regression guard: a batched-propagator shortcut once dropped the
        closing eigenvector rotation, silently evolving basis-conjugated
        dynamics whenever h0 was nondiagonal.
        """
        model = make_model(SIGMA_X)
        times = np.array([0.0, 0.37, 1.0])
        batch = rotating_frame_potential(model, times)
        for t, v_t in zip(times, batch):
            u0 = expm(-1j * SIGMA_X * t)
            expected = u0.conj().T @ SIGMA_Z @ u0
            np.testing.assert_allclose(v_t, expected, atol=1e-12)
            np.testing.assert_array_equal(rotating_frame_potential(model, t), v_t)

    def test_identity_frame_when_drift_vanishes(self):
        model = make_model(np.zeros((2, 2), dtype=complex))
        for t in (0.0, 0.5, 1.0):
            np.testing.assert_allclose(rotating_frame_potential(model, t),
                                       SIGMA_Z, atol=1e-14)

    def test_frame_preserves_spectrum(self):
        model = make_model(5 * SIGMA_X, v=SIGMA_Z + 0.1 * SIGMA_Y)
        base = np.linalg.eigvalsh(model.v)
        rotated = np.linalg.eigvalsh(rotating_frame_potential(model, 0.83))
        np.testing.assert_allclose(rotated, base, atol=1e-12)
