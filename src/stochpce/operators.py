"""Complex operator algebra for small quantum systems.

Operators are plain complex numpy arrays (dimensionless units, hbar = 1).
This module provides the Pauli constants, structural validators, the
batched h0 frame rotation U0(t) (Monte Carlo's half-step drift), the
rotating-frame noise coupling (no solver uses it, as both step in the
Schrodinger frame; it stays for the benchmark's probe, which times it), and
observable expectations, of one state or of a (T, d, d) stack of them
(as_operator_stack and unstack carry that shape rule).

All functions are pure; returned arrays are freshly allocated.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidOperatorError,
    NumericalConsistencyError,
)

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-10
TRACE_IMAG_TOL = 1e-12
EXPECTATION_IMAG_TOL = 1e-10
POSITIVITY_TOL = -1e-9

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)

for _m in (SIGMA_X, SIGMA_Y, SIGMA_Z, IDENTITY):
    _m.setflags(write=False)


def as_operator(a) -> np.ndarray:
    """Coerce to a square complex matrix."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidOperatorError(f"operator must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidOperatorError("operator has non-finite entries")
    return a


def check_hermitian(a) -> np.ndarray:
    a = as_operator(a)
    dev = np.max(np.abs(a - a.conj().T))
    if not (dev <= HERMITIAN_TOL):
        raise InvalidOperatorError(
            f"operator not Hermitian: max deviation {dev:.3e} > {HERMITIAN_TOL:.1e}")
    return a


def check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimensionMismatchError(f"dimension mismatch: {a.shape} vs {b.shape}")


def validate_density_matrix(rho) -> np.ndarray:
    """Check trace one, Hermiticity, and (diagnostically) positivity.

    Positivity is a diagnostic: eigenvalues below -1e-9 raise, tiny negative
    values from roundoff pass.  PCE-propagated means are validated elsewhere
    with looser tolerances since the truncated hierarchy does not guarantee
    positivity.
    """
    rho = check_hermitian(rho)
    tr = np.trace(rho)
    if not (abs(tr.real - 1.0) <= TRACE_TOL):
        raise InvalidOperatorError(f"density matrix trace {float(tr.real)!r} not 1 within {TRACE_TOL:.1e}")
    if not (abs(tr.imag) <= TRACE_IMAG_TOL):
        raise InvalidOperatorError(f"density matrix trace has imaginary part {tr.imag:.3e}")
    eigs = np.linalg.eigvalsh(rho)
    if not (eigs.min() >= POSITIVITY_TOL):
        raise InvalidOperatorError(f"density matrix has negative eigenvalue {eigs.min():.3e}")
    return rho


@dataclass(frozen=True)
class StochasticModel:
    """A driven system: static drift h0, noise coupling v, noise kernel, horizon.

    The generator is H(t) = h0 + Omega(t) v with Omega a stationary Gaussian
    process of the given correlation kernel, evolved over [0, horizon].
    """

    h0: np.ndarray
    v: np.ndarray
    kernel: object
    horizon: float
    _eig: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        h0 = check_hermitian(self.h0)
        v = check_hermitian(self.v)
        check_same_dim(h0, v)
        if not (np.isfinite(self.horizon) and self.horizon > 0):
            raise InvalidOperatorError(f"horizon must be positive, got {self.horizon}")
        h0.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "h0", h0)
        object.__setattr__(self, "v", v)
        energies, states = np.linalg.eigh(h0)
        energies.setflags(write=False)
        states.setflags(write=False)
        object.__setattr__(self, "_eig", (energies, states))

    @property
    def dim(self) -> int:
        return self.h0.shape[0]

    def h0_eigensystem(self):
        """Cached (energies, eigenvector columns) of h0."""
        return self._eig


def frame_rotations(model: StochasticModel, times) -> np.ndarray:
    """U0(t) = exp(-i h0 t) at every time, shape times.shape + (d, d).

    Built as I + Q (exp(-i E t) - 1) Q^dag from h0's eigensystem, so U0(0) is
    exactly the identity.  A scalar t gives one (d, d) unitary, an array of
    T times a (T, d, d) stack; each entry is bitwise the same as its scalar
    call.
    """
    energies, states = model.h0_eigensystem()
    phases = np.exp(-1j * np.multiply.outer(times, energies)) - 1.0
    return np.eye(model.dim) + (states * phases[..., None, :]) @ states.conj().T


def rotating_frame_potential(model: StochasticModel, t) -> np.ndarray:
    """V(t) = U0(t)^dag v U0(t): the noise coupling in the h0 rotating frame.

    Accepts a scalar t or an array of times, like frame_rotations.
    """
    u0 = frame_rotations(model, t)
    out = np.swapaxes(u0.conj(), -1, -2) @ model.v @ u0
    return 0.5 * (out + np.swapaxes(out.conj(), -1, -2))


def as_operator_stack(a) -> tuple:
    """(stack, batched) for a square matrix or a stack of them, as complex.

    A (d, d) matrix becomes the (1, d, d) stack of one, with batched False;
    a (T, d, d) stack is returned as it is, with batched True.  Functions
    that take either compute on the stack only and return unstack(values,
    batched), so one item is a batch of one.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise InvalidOperatorError(
            f"expected a (d, d) operator or a (T, d, d) stack, got shape {a.shape}")
    return a.reshape((-1,) + a.shape[-2:]), a.ndim == 3


def unstack(values: np.ndarray, batched: bool):
    """A batch's results as they are, or the one entry of a batch of one:
    its (d, d) array, or a float where entries are scalars."""
    if batched:
        return values
    return values[0] if values.ndim > 1 else float(values[0])


def expectation(obs, rho):
    """tr(obs rho) for Hermitian obs; the imaginary part must vanish.

    rho is one (d, d) matrix, giving a float, or a (T, d, d) stack, giving
    a (T,) array; each entry is bitwise its scalar call.  A stack raises
    the scalar call's error for its first failing matrix, named by index.
    """
    obs = check_hermitian(obs)
    rho, batched = as_operator_stack(rho)
    if obs.shape != rho.shape[1:]:
        raise DimensionMismatchError(
            f"dimension mismatch: {obs.shape} vs {rho.shape[1:]}")
    finite = np.all(np.isfinite(rho), axis=(-2, -1))
    with np.errstate(invalid="ignore"):  # inf * 0 in a non-finite matrix
        val = np.trace(obs @ rho, axis1=-2, axis2=-1)
    bad = ~(finite & (np.abs(val.imag) <= EXPECTATION_IMAG_TOL))
    if bad.any():
        k = int(np.argmax(bad))
        where = f" {k}" if batched else ""
        if not finite[k]:
            raise InvalidOperatorError(f"operator{where} has non-finite entries")
        raise NumericalConsistencyError(f"expectation value of operator{where} "
                                        f"has imaginary part {val.imag[k]:.3e}")
    return unstack(val.real, batched)
