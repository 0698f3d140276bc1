"""Karhunen-Loeve decomposition of stationary Gaussian noise.

Finds the eigenpairs of the Fredholm problem

    integral_0^tau C(t1, t2) g_n(t2) dt2 = lambda_n g_n(t1).

For an Ornstein-Uhlenbeck kernel they are known in closed form (ou_modes):
cosines and sines whose frequencies solve a transcendental equation, found
here by bisection.  Any other kernel goes through a Nystrom discretization on
a uniform trapezoid grid (solve_fredholm).  Both return modes sampled on the
same trapezoid grid.  The module then ranks the modes by their
perturbation-theoretic transition rates against a driven system
(cumulative_rates), selects the modes that matter most for the dynamics
(select_modes), and evaluates the retained modes between grid nodes as the
rows sqrt(lambda_n) g_n(t) the propagators consume (scaled_modes_matrix):
from the closed form when a mode has one, by Nystrom extension otherwise.
Each of these acts on all modes at once: h0's eigensystem, the phase
factors and the kernel matrix are built once per call, not once per mode.

Conventions:
  - eigenfunctions are L2-normalized (sum_k w_k g(t_k)^2 = 1 on the
    quadrature grid for Nystrom modes; exactly, checked by composite
    Gauss-Legendre quadrature, for closed-form modes) with sign fixed so
    sum_k w_k g(t_k) >= 0 on the grid (falling back to g(t_0) >= 0 when
    that sum vanishes);
  - eigenvalues in [-1e-6 * lambda_max, 0) are roundoff and clamped to
    zero; anything lower means an indefinite kernel and raises
    KernelNotPositiveError;
  - a null mode (eigenvalue <= 1e-12 * lambda_max) is kept, not rejected:
    it gets a zero row in scaled_modes_matrix and a negligible rate.
"""

from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .errors import (
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
# Composite Gauss-Legendre rule for closed-form modes: PANEL_NODES nodes per
# panel and at most PANEL_PHASE radians of the highest frequency per panel,
# so products of two modes are integrated to rounding error.
PANEL_NODES = 16
PANEL_PHASE = 4.0


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
class ClosedForm:
    """g(t) = amplitude * cos(frequency * (t - centre)) for an even mode,
    amplitude * sin(frequency * (t - centre)) for an odd one."""

    frequency: float
    even: bool
    amplitude: float
    centre: float

    def __call__(self, times) -> np.ndarray:
        phase = self.frequency * (np.asarray(times, dtype=float) - self.centre)
        return self.amplitude * (np.cos(phase) if self.even else np.sin(phase))


@cache
def _legendre_panel() -> tuple:
    """PANEL_NODES-point Gauss-Legendre nodes and weights on [-1, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(PANEL_NODES)
    nodes.setflags(write=False); weights.setflags(write=False)
    return nodes, weights


def _legendre_rule(grid: QuadratureGrid, frequency: float) -> tuple:
    """Composite Gauss-Legendre nodes and weights on the grid's interval that
    integrate products of modes up to the given frequency to rounding error;
    the node count grows with the frequency."""
    if not np.isfinite(frequency):
        raise NumericalConsistencyError(
            f"mode frequency {frequency!r} is not finite")
    start, span = grid.nodes[0], grid.span
    panels = max(1, int(np.ceil(frequency * span / PANEL_PHASE)))
    width = span / panels
    unit_nodes, unit_weights = _legendre_panel()
    nodes = ((start + width * np.arange(panels))[:, None]
             + (width / 2) * (unit_nodes + 1))
    weights = np.broadcast_to((width / 2) * unit_weights, nodes.shape)
    return nodes.ravel(), weights.ravel()


@dataclass(frozen=True, eq=False)
class KLMode:
    """One Karhunen-Loeve eigenpair sampled on a quadrature grid.

    index is the 1-based rank by descending eigenvalue within its solve;
    lambda_max is the largest eigenvalue of that solve, kept so the
    null-mode predicate needs no external context.  closed_form, when set,
    is the exact eigenfunction the samples come from; it is normalized
    exactly rather than on the grid.
    """

    eigenvalue: float
    values: np.ndarray
    grid: QuadratureGrid
    index: int
    lambda_max: float
    closed_form: ClosedForm | None = None

    def __post_init__(self):
        if self.eigenvalue < 0:
            raise ValueError(f"eigenvalue must be nonnegative, got {self.eigenvalue}")
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.nodes.shape:
            raise DimensionMismatchError("mode values do not match the grid")
        if self.closed_form is None:
            norm = float(np.sum(self.grid.weights * values**2))
        else:
            nodes, weights = _legendre_rule(self.grid, self.closed_form.frequency)
            norm = float(np.sum(weights * self.closed_form(nodes) ** 2))
        if not (abs(norm - 1.0) <= NORMALIZATION_TOL):
            raise NumericalConsistencyError(
                f"mode not L2-normalized: integral g^2 = {norm!r}")
        values = values.copy(); values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def is_null(self) -> bool:
        """True when the eigenvalue is numerically zero for its solve."""
        return self.eigenvalue <= NULL_MODE_THRESHOLD * max(self.lambda_max, 0.0)


def _sign(grid: QuadratureGrid, g: np.ndarray) -> float:
    """+1 or -1, so that sign * g has sum_k w_k g(t_k) >= 0, or g(t_0) >= 0
    when that sum vanishes."""
    total = float(np.sum(grid.weights * g))
    if total < -SIGN_SUM_TOL or (abs(total) <= SIGN_SUM_TOL and g[0] < 0):
        return -1.0
    return 1.0


def _check_mode_count(grid_size: int, n_modes: int | None) -> int:
    """n_modes, defaulting to grid_size; it must lie in [1, grid_size]."""
    if n_modes is None:
        n_modes = grid_size
    if not 1 <= n_modes <= grid_size:
        raise ValueError(f"n_modes must be in [1, grid_size], got {n_modes}")
    return n_modes


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
    n_modes = _check_mode_count(grid_size, n_modes)
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
        modes.append(KLMode(eigenvalue=float(eigenvalues[rank]),
                            values=_sign(grid, g) * g,
                            grid=grid, index=rank + 1, lambda_max=lam_max))
    return modes


def _ou_residual(w, even, a: float, c: float) -> np.ndarray:
    """c cos(wa) - w sin(wa) for even modes, w cos(wa) + c sin(wa) for odd
    ones: zero at the frequencies of the OU eigenfunctions."""
    cos, sin = np.cos(w * a), np.sin(w * a)
    return np.where(even, c * cos - w * sin, w * cos + c * sin)


def ou_modes(kernel, tau: float, grid_size: int = 400,
             n_modes: int | None = None) -> list[KLMode]:
    """Closed-form Karhunen-Loeve eigenpairs of an Ornstein-Uhlenbeck kernel.

    With the interval centred at a = tau/2 and c = 1/tau_c, the mode of
    0-based rank r has one frequency w in (r pi/tau, (r+1) pi/tau): even r
    gives cos(w (t - a)) with c cos(wa) - w sin(wa) = 0, odd r gives
    sin(w (t - a)) with w cos(wa) + c sin(wa) = 0 (Ghanem & Spanos,
    Stochastic Finite Elements, 1991, sec. 2.3).  The brackets hold no pole,
    so one vectorized bisection finds every root, halving until no bracket
    can shrink further.  The eigenvalue is 2 c alpha^2 / (w^2 + c^2),
    decreasing in r, and the squared L2 norm is a + sin(2wa)/(2w) (even) or
    a - sin(2wa)/(2w) (odd).

    Takes and returns what solve_fredholm does: the top n_modes (default
    grid_size) sampled on the same trapezoid grid with the same sign
    convention, each also carrying its ClosedForm.
    """
    n_modes = _check_mode_count(grid_size, n_modes)
    grid = QuadratureGrid.trapezoid(tau, grid_size)
    a, c = 0.5 * tau, 1.0 / kernel.tau_c
    rank = np.arange(n_modes)
    even = rank % 2 == 0
    lo, hi = rank * np.pi / tau, (rank + 1) * np.pi / tau
    lo_residual = _ou_residual(lo, even, a, c)
    while True:
        w = 0.5 * (lo + hi)
        if not np.any((lo < w) & (w < hi)):
            break
        below = _ou_residual(w, even, a, c) * lo_residual > 0
        lo = np.where(below, w, lo)
        hi = np.where(below, hi, w)

    eigenvalues = 2.0 * c * kernel.variance / (w**2 + c**2)
    parity = np.where(even, 1.0, -1.0)
    amplitudes = 1.0 / np.sqrt(a + parity * np.sin(2 * w * a) / (2 * w))
    lam_max = float(eigenvalues[0])
    modes = []
    for r in range(n_modes):
        form = ClosedForm(frequency=float(w[r]), even=bool(even[r]),
                          amplitude=float(amplitudes[r]), centre=a)
        form = replace(form, amplitude=_sign(grid, form(grid.nodes))
                       * form.amplitude)
        modes.append(KLMode(eigenvalue=float(eigenvalues[r]),
                            values=form(grid.nodes), grid=grid, index=r + 1,
                            lambda_max=lam_max, closed_form=form))
    return modes


def _shared_grid(modes) -> QuadratureGrid:
    """The one quadrature grid every mode is sampled on."""
    if not modes:
        raise ValueError("no modes given")
    grid = modes[0].grid
    if any(mode.grid is not grid for mode in modes[1:]):
        raise DimensionMismatchError("modes must share a quadrature grid")
    return grid


def scaled_modes_matrix(modes, kernel, times) -> np.ndarray:
    """Rows of sqrt(lambda_n) g_n(t) over the given times; null modes give zero rows.

    Modes with a closed form are evaluated from it.  Otherwise g_n(t) is the
    Nystrom extension (1/lambda_n) sum_k w_k C(t, t_k) g_n(t_k), exact at the
    grid nodes and smooth in between.  This is the quantity the propagators
    consume, and it is well defined for every mode: sqrt(lambda) g(t) tends
    to zero as lambda does, so null modes contribute nothing.  The kernel
    matrix C(t, t_k) is built once; each row stays its own matrix-vector
    product, because one matrix-matrix product differs in the last bits.
    """
    grid = _shared_grid(modes)
    times = np.asarray(times, dtype=float)
    out = np.zeros((len(modes), times.size))
    live = [(row, mode) for row, mode in enumerate(modes) if not mode.is_null()]
    if all(mode.closed_form is not None for mode in modes):
        for row, mode in live:
            out[row] = np.sqrt(mode.eigenvalue) * mode.closed_form(times)
        return out
    kernel_matrix = kernel.at_lag(np.abs(np.atleast_1d(times)[:, None]
                                         - grid.nodes[None, :]))
    for row, mode in live:
        extension = kernel_matrix @ (grid.weights * mode.values) / mode.eigenvalue
        out[row] = np.sqrt(mode.eigenvalue) * extension
    return out


def cumulative_rates(modes, model) -> list[float]:
    """Cumulative perturbative rate of each mode against the model's (h0, v).

    With h0 = sum_j E_j |j><j| (the model's cached eigensystem) and
    tau = model.horizon, the rate of a mode sums, over all ordered level
    pairs including j = k,

        (1/tau) |<j|v|k> integral_0^tau e^{i (E_j - E_k) t} sqrt(lambda) g(t) dt|^2

    with the integral taken by quadrature on the modes' shared grid.  When v
    is diagonal in a nondegenerate h0 eigenbasis only the j = k terms remain.
    For degenerate h0 spectra the eigenbasis (hence the rate split across the
    degenerate subspace) is solver-dependent; the cumulative sum is still
    well defined up to that basis choice.  Rates come in the order of modes.
    """
    grid = _shared_grid(modes)
    energies, states = model.h0_eigensystem()
    v_eig_sq = np.abs(states.conj().T @ model.v @ states) ** 2
    gaps = energies[:, None] - energies[None, :]
    phases = np.exp(1j * gaps[:, :, None] * grid.nodes[None, None, :])
    rates = []
    for mode in modes:
        integrals = phases @ (grid.weights * (np.sqrt(mode.eigenvalue) * mode.values))
        rates.append(float(np.sum(v_eig_sq * np.abs(integrals) ** 2) / model.horizon))
    return rates


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
    L2-orthogonal: exactly when they have a closed form, on their shared
    grid otherwise.
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

    grid = _shared_grid(modes)
    kept = [modes[i] for i in chosen]
    if all(mode.closed_form is not None for mode in kept):
        frequency = np.max([mode.closed_form.frequency for mode in kept])
        nodes, weights = _legendre_rule(grid, frequency)
        samples = np.stack([mode.closed_form(nodes) for mode in kept])
    else:
        weights = grid.weights
        samples = np.stack([mode.values for mode in kept])
    overlaps = np.triu((samples * weights) @ samples.T, k=1)
    bad = np.argwhere(~(np.abs(overlaps) <= ORTHOGONALITY_TOL))
    if bad.size:
        a_pos, b_pos = bad[0]
        raise NumericalConsistencyError(
            f"retained modes {modes[chosen[a_pos]].index} and "
            f"{modes[chosen[b_pos]].index} not orthogonal: "
            f"{overlaps[a_pos, b_pos]:.3e}")

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
