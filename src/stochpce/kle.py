"""Karhunen-Loeve decomposition of stationary Gaussian noise.

Solves the Fredholm eigenproblem

    integral_0^tau C(t1, t2) g_n(t2) dt2 = lambda_n g_n(t1)

by Nystrom discretization on a uniform trapezoid grid, computes
perturbation-theoretic transition rates for each mode against a driven
system, and selects the modes that matter most for the dynamics.

Conventions:
  - eigenfunctions are L2-normalized on the quadrature grid
    (sum_k w_k g(t_k)^2 = 1) with sign fixed so sum_k w_k g(t_k) >= 0
    (falling back to g(t_0) >= 0 when that sum vanishes);
  - eigenvalues in [-1e-6 * lambda_max, 0) are roundoff and clamped to
    zero; anything lower means an indefinite kernel and raises
    KernelNotPositiveError.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateModeError,
    DimensionMismatchError,
    KernelNotPositiveError,
    NumericalConsistencyError,
)

WEIGHT_SUM_TOL = 1e-10
NORMALIZATION_TOL = 1e-8
ORTHOGONALITY_TOL = 1e-6
SIGN_SUM_TOL = 1e-12
HARD_NEGATIVE_THRESHOLD = -1e-6
NULL_MODE_THRESHOLD = 1e-12


@dataclass(frozen=True, eq=False)
class OrnsteinUhlenbeckKernel:
    """C(t1, t2) = alpha^2 exp(-|t1 - t2| / tau_c)."""

    alpha: float
    tau_c: float

    def __post_init__(self):
        if not (np.isfinite(self.alpha)):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        if not (np.isfinite(self.tau_c) and self.tau_c > 0):
            raise ValueError(f"tau_c must be positive, got {self.tau_c}")

    def at_lag(self, lag):
        """C(|lag|); accepts scalars or arrays."""
        return self.alpha**2 * np.exp(-np.abs(lag) / self.tau_c)

    @property
    def variance(self) -> float:
        return float(self.alpha**2)


@dataclass(frozen=True, eq=False)
class TabulatedKernel:
    """C(|lag|) tabulated on a uniform lag grid k * spacing, k = 0..len-1.

    Linear interpolation between samples; lags beyond the table evaluate to
    the last tabulated value.  Construction checks the necessary positivity
    condition C(0) >= |C(lag)|.
    """

    values: np.ndarray
    spacing: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 2:
            raise ValueError("tabulated kernel needs a 1-D array of >= 2 values")
        if not np.all(np.isfinite(values)):
            raise ValueError("tabulated kernel has non-finite values")
        if not (np.isfinite(self.spacing) and self.spacing > 0):
            raise ValueError(f"spacing must be positive, got {self.spacing}")
        if np.any(np.abs(values[1:]) > values[0]):
            raise KernelNotPositiveError(
                "tabulated kernel violates C(0) >= |C(lag)|")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def at_lag(self, lag):
        lags = self.spacing * np.arange(self.values.size)
        return np.interp(np.abs(lag), lags, self.values)

    @property
    def variance(self) -> float:
        return float(self.values[0])


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Quadrature nodes and positive weights on [0, tau] with sum w = tau."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise ValueError("nodes and weights must be 1-D arrays of equal length")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if nodes[0] < 0:
            raise ValueError("nodes must lie in [0, tau]")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        span = nodes[-1] - nodes[0]
        if not (abs(weights.sum() - span) <= WEIGHT_SUM_TOL * max(1.0, span)):
            raise ValueError(
                f"weights sum to {weights.sum()!r}, expected the span {span!r}")
        nodes = nodes.copy(); nodes.setflags(write=False)
        weights = weights.copy(); weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def trapezoid(cls, tau: float, grid_size: int) -> "QuadratureGrid":
        """Uniform nodes on [0, tau] with trapezoid weights."""
        if grid_size < 2:
            raise ValueError(f"grid_size must be >= 2, got {grid_size}")
        if not (np.isfinite(tau) and tau > 0):
            raise ValueError(f"tau must be positive, got {tau}")
        nodes = np.linspace(0.0, tau, grid_size)
        h = tau / (grid_size - 1)
        weights = np.full(grid_size, h)
        weights[0] = weights[-1] = h / 2
        return cls(nodes, weights)

    @property
    def size(self) -> int:
        return self.nodes.size

    @property
    def span(self) -> float:
        return float(self.nodes[-1] - self.nodes[0])


@dataclass(frozen=True, eq=False)
class KLMode:
    """One Karhunen-Loeve eigenpair sampled on a quadrature grid.

    index is the 1-based rank by descending eigenvalue within its solve;
    lambda_max is the largest eigenvalue of that solve, kept so the
    null-mode predicate needs no external context.
    """

    eigenvalue: float
    values: np.ndarray
    grid: QuadratureGrid
    index: int
    lambda_max: float = None

    def __post_init__(self):
        if self.lambda_max is None:
            object.__setattr__(self, "lambda_max", self.eigenvalue)
        if self.eigenvalue < 0:
            raise ValueError(f"eigenvalue must be nonnegative, got {self.eigenvalue}")
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.nodes.shape:
            raise DimensionMismatchError("mode values do not match the grid")
        norm = float(np.sum(self.grid.weights * values**2))
        if not (abs(norm - 1.0) <= NORMALIZATION_TOL):
            raise NumericalConsistencyError(
                f"mode not L2-normalized: sum w g^2 = {norm!r}")
        values = values.copy(); values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def is_null(self) -> bool:
        """True when the eigenvalue is numerically zero for its solve."""
        return self.eigenvalue <= NULL_MODE_THRESHOLD * max(self.lambda_max, 0.0)


def solve_fredholm(kernel, tau: float, grid_size: int = 400,
                   n_modes: int | None = None) -> list[KLMode]:
    """Nystrom solve of the Fredholm eigenproblem on a trapezoid grid.

    Assembles K_ij = C(t_i, t_j), symmetrizes with the weight matrix
    (B = W^{1/2} K W^{1/2}), diagonalizes, and maps eigenvectors back
    through W^{-1/2}.  Returns the top n_modes (default: all grid_size)
    by descending eigenvalue, normalized and sign-fixed.

    Eigenvalues in [-1e-6 * lambda_max, 0) are clamped to zero; anything
    lower raises KernelNotPositiveError.
    """
    if n_modes is None:
        n_modes = grid_size
    if not 1 <= n_modes <= grid_size:
        raise ValueError(f"n_modes must be in [1, grid_size], got {n_modes}")
    grid = QuadratureGrid.trapezoid(tau, grid_size)
    t = grid.nodes
    k_matrix = kernel.at_lag(np.abs(t[:, None] - t[None, :]))
    sqrt_w = np.sqrt(grid.weights)
    b = k_matrix * np.outer(sqrt_w, sqrt_w)
    b = 0.5 * (b + b.T)
    eigenvalues, vectors = np.linalg.eigh(b)
    eigenvalues = eigenvalues[::-1]
    vectors = vectors[:, ::-1]

    lam_max = max(float(eigenvalues[0]), 0.0)
    hard_floor = HARD_NEGATIVE_THRESHOLD * lam_max
    if not (eigenvalues.min() >= hard_floor):
        raise KernelNotPositiveError(
            f"kernel is not positive semidefinite: eigenvalue "
            f"{eigenvalues.min():.3e} below {hard_floor:.3e}")
    eigenvalues = np.where(eigenvalues < 0, 0.0, eigenvalues)

    modes = []
    for rank in range(n_modes):
        g = vectors[:, rank] / sqrt_w
        total = float(np.sum(grid.weights * g))
        if total < -SIGN_SUM_TOL:
            g = -g
        elif abs(total) <= SIGN_SUM_TOL and g[0] < 0:
            g = -g
        modes.append(KLMode(eigenvalue=float(eigenvalues[rank]), values=g,
                            grid=grid, index=rank + 1, lambda_max=lam_max))
    return modes


def evaluate_mode(mode: KLMode, kernel, t):
    """Nystrom extension g(t) = (1/lambda) sum_k w_k C(t, t_k) g(t_k).

    Exact at grid nodes; smooth in between.  Undefined for null modes.
    Accepts scalar or array t and returns a matching shape.
    """
    if mode.is_null():
        raise DegenerateModeError(
            f"mode {mode.index} has eigenvalue {mode.eigenvalue!r}; "
            "the Nystrom extension is undefined for null modes")
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    lags = np.abs(t_arr[:, None] - mode.grid.nodes[None, :])
    out = kernel.at_lag(lags) @ (mode.grid.weights * mode.values) / mode.eigenvalue
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return float(out[0])
    return out


def scaled_modes_matrix(modes, kernel, times) -> np.ndarray:
    """Rows of sqrt(lambda_n) g_n(t) over the given times; null modes give zero rows.

    This is the quantity the propagators consume, and it is well defined for
    every mode: sqrt(lambda) g(t) = sqrt(lambda) *(Nystrom extension) tends to
    zero as lambda does, so null modes contribute nothing.
    """
    times = np.asarray(times, dtype=float)
    out = np.zeros((len(modes), times.size))
    for row, mode in enumerate(modes):
        if mode.is_null():
            continue
        out[row] = np.sqrt(mode.eigenvalue) * evaluate_mode(mode, kernel, times)
    return out


def transition_rate(mode: KLMode, h0, v, tau: float) -> float:
    """Cumulative perturbative rate of the mode against the system (h0, v).

    Diagonalizes h0 into (E_j, |j>) and sums, over all ordered level pairs
    including j = k,

        (1/tau) |<j|v|k> integral_0^tau e^{i (E_j - E_k) t} sqrt(lambda) g(t) dt|^2

    with the integral taken by quadrature on the mode's grid.  When v is
    diagonal in a nondegenerate h0 eigenbasis only the j = k terms remain.
    For degenerate h0 spectra the eigenbasis (hence the rate split across the
    degenerate subspace) is solver-dependent; the cumulative sum is still
    well defined up to that basis choice.
    """
    from .operators import check_hermitian, check_same_dim

    h0 = check_hermitian(h0)
    v = check_hermitian(v)
    check_same_dim(h0, v)
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    energies, states = np.linalg.eigh(h0)
    v_eig = states.conj().T @ v @ states
    sq_lg = np.sqrt(mode.eigenvalue) * mode.values
    t = mode.grid.nodes
    gaps = energies[:, None] - energies[None, :]
    phases = np.exp(1j * gaps[:, :, None] * t[None, None, :])
    integrals = phases @ (mode.grid.weights * sq_lg)
    rate = float(np.sum(np.abs(v_eig) ** 2 * np.abs(integrals) ** 2) / tau)
    return rate


def cumulative_rates(modes, h0, v, tau: float) -> list[float]:
    """transition_rate for each mode, in the given order."""
    return [transition_rate(mode, h0, v, tau) for mode in modes]


@dataclass(frozen=True, eq=False)
class ModeRecord:
    """One row of the selection report."""

    index: int
    eigenvalue: float
    rate: float
    selected: bool


@dataclass(frozen=True, eq=False)
class TruncatedKLE:
    """The S retained modes, ordered by descending transition rate."""

    modes: tuple
    rates: tuple
    selection_report: tuple

    @property
    def stochastic_dim(self) -> int:
        return len(self.modes)


def select_modes(modes, rates, s: int) -> TruncatedKLE:
    """Keep the top s modes by transition rate.

    Ties break toward larger eigenvalue, then lower mode index, so the
    selection is deterministic.  Retained modes must be pairwise
    L2-orthogonal on their shared grid.
    """
    modes = list(modes)
    rates = [float(r) for r in rates]
    if len(rates) != len(modes):
        raise DimensionMismatchError("one rate per mode required")
    if not 1 <= s <= len(modes):
        raise ValueError(f"cannot select {s} of {len(modes)} modes")
    order = sorted(range(len(modes)),
                   key=lambda i: (-rates[i], -modes[i].eigenvalue, modes[i].index))
    chosen = order[:s]
    chosen_set = set(chosen)

    grid = modes[0].grid
    for mode in modes[1:]:
        if mode.grid is not grid:
            raise DimensionMismatchError("modes must share a quadrature grid")
    for a_pos in range(s):
        for b_pos in range(a_pos + 1, s):
            ga = modes[chosen[a_pos]].values
            gb = modes[chosen[b_pos]].values
            overlap = float(np.sum(grid.weights * ga * gb))
            if not (abs(overlap) <= ORTHOGONALITY_TOL):
                raise NumericalConsistencyError(
                    f"retained modes {modes[chosen[a_pos]].index} and "
                    f"{modes[chosen[b_pos]].index} not orthogonal: {overlap:.3e}")

    report = tuple(
        ModeRecord(index=modes[i].index, eigenvalue=modes[i].eigenvalue,
                   rate=rates[i], selected=(i in chosen_set))
        for i in range(len(modes)))
    return TruncatedKLE(modes=tuple(modes[i] for i in chosen),
                        rates=tuple(rates[i] for i in chosen),
                        selection_report=report)


def default_candidate_count(s: int) -> int:
    """How many modes to rank before selecting s of them."""
    return max(4 * s, 12)


def reconstruct_covariance(kle) -> np.ndarray:
    """sum_n lambda_n g_n(t_i) g_n(t_j) over the given modes.

    Accepts a TruncatedKLE or any iterable of KLMode sharing a grid.  With
    every mode of a solve retained this reproduces the kernel matrix; with a
    truncation it shows exactly the covariance the truncated model sees.
    """
    modes = kle.modes if isinstance(kle, TruncatedKLE) else tuple(kle)
    if not modes:
        raise ValueError("no modes given")
    g = np.stack([m.values for m in modes])
    lam = np.array([m.eigenvalue for m in modes])
    return (g.T * lam) @ g

