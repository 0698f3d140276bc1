"""Hermite polynomial chaos hierarchy for the stochastically driven system.

The density matrix is expanded in the orthonormal multivariate Hermite
polynomials psi_m(xi) = prod_j He_{m_j}(xi_j) / sqrt(m_j!) of the S
Karhunen-Loeve variables, over a downward-closed set of
N multi-indices (enumerate_indices builds the total-degree set |m|_1 <= P,
of size (S+P)!/(S!P!); any other downward-closed set works the same way).
Galerkin projection of the Schrodinger-frame evolution turns the stochastic
equation into N coupled deterministic operator ODEs

    d phi_m / dt = -i [h0, phi_m] - i sum_n s_n(t) sum_l G_{m,n,l} [v, phi_l]

where s_n = sqrt(lambda_n) g_n and G_{m,n,l} = E[psi_m xi_n psi_l] has the closed form
G_{m,n,l} = (sqrt(m_n + 1) delta_{m_n+1, l_n} + sqrt(m_n) delta_{m_n-1, l_n})
            prod_{j != n} delta_{m_j, l_j},
so each coefficient couples to at most 2 S partners: the lowered ones are
always in the set, the raised ones only where the set contains them.  G is
symmetric in m and l.

The stochastic mean is exactly phi_0 (all higher Hermite polynomials have
zero mean); observable variance falls out of orthonormality for free.

Every phi_m is Hermitian (G is real and the flow is -i[H, .]) and keeps its
trace, so the integrator carries each as its d*d - 1 real coordinates
y_a = tr(G_a phi_m) / 2 in the generalized Gell-Mann matrices G_a
(_traceless_basis), and its trace as a constant.  In these coordinates
-i[h0, .] and -i[v, .] are constant real antisymmetric matrices L0 and Lv.
The per-mode coupling matrices M_n have disjoint
patterns (M_n[m, l] != 0 only for l = m +- e_n), so they and the drift fit one
CSR matrix whose pattern never changes.  Public states stay complex (N, d, d).

One RHS is then one small dense product and one sparse product, and at these
sizes their cost is mostly call overhead.  So _rhs makes two calls, np.dot
into a buffer and SciPy's csr_matvecs kernel rather than the matrix's `@`,
which adds operator dispatch and a fresh result array.  The kernel adds
into its output, so one broadcast copy fills a stack of four copies of the
state, _rhs adds the first three stage increments into slots 1-3, one
weighted sum of the stack makes the RK4 update and the last stage adds
straight into the state: 10 NumPy-level calls per step, in buffers
allocated once per propagate.  The RK4 stage factors scale the small
generator, not the coupling data.  On a loaded 2-vCPU Xeon host one fig2
step (N = 220) takes about 46 us, of which the four _rhs calls take about
40 us.

SciPy is imported only where a CSR matrix is built (build_couplings,
_summed_couplings), so importing this module, and running the kle and mc
commands, never loads it.  propagate binds csr_matvecs to the summed
pattern once per call (_sparse_product) and hands that to every _rhs.

The read-out functions (mean_state, observable_mean, observable_variance,
trace_error, hermiticity_error, min_eigenvalue) take one PCEState or a
sequence of them, min_eigenvalue a (d, d) matrix or a (T, d, d) stack, and
answer in kind: a float or a (d, d) matrix for one, a (T,) or (T, d, d)
array for a batch.  One item is computed as a batch of one, so every batch
entry is bitwise its single call, and a batch raises the single call's
error for its first failing record, naming that record's time.  On a
2-vCPU Xeon host, reading out the 201 records of a fig2 run (N = 220) this
way takes about 9 ms, against about 50 ms for one call per record and
function.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CapacityError,
    CorruptedStateError,
    DimensionMismatchError,
    PropagationDivergedError,
)
from .kle import TruncatedKLE, scaled_modes_matrix
from .operators import (
    StochasticModel,
    as_operator_stack,
    check_hermitian,
    expectation,
    unstack,
    validate_density_matrix,
)

MAX_BASIS_SIZE = 10_000_000
MAX_RK4_STEPS = 100_000_000  # per propagate call
MAX_RECORD_BYTES = 2**30  # the complex (N, d, d) records of one propagate call
TRACE_CONSERVATION_TOL = 1e-8
HERMITICITY_TOL = 1e-8
WEIGHTED_NORM_TOL = 1e-8
DIVERGENCE_FACTOR = 100.0
MEAN_TRACE_TOL = 1e-6
DEFAULT_SUBSTEP_FRACTION = 2000
BLOCK_SIZE = 16  # records per propagate chunk and per read-out block, at most
BLOCK_STAGES = 512  # RK4 stages per chunk, at most
# y + (a1 + 2 a2 + a3) / 3 as a weighted sum of [y, y + a1, y + a2, y + a3].
# With t = 1/3 in floats, 1 - 4 t is exact and the weights sum to exactly 1;
# (-1/3, 1/3, 2/3, 1/3) sum to 1 - 5.6e-17 and let the weighted norm decay.
_THIRD = 1 / 3
RK4_WEIGHTS = np.array([1 - 4 * _THIRD, _THIRD, 2 * _THIRD, _THIRD])
RK4_WEIGHTS.setflags(write=False)


@dataclass(frozen=True, eq=False)
class MultiIndexSet:
    """A downward-closed multi-index set in graded-lex order.

    indices is the only input: the zero index first, then ascending total
    degree and, within a degree, ascending lexicographic order; every index
    lowered by one in any coordinate is also a member, so every lowered
    coupling partner is in the set.  s, p (the largest total degree) and
    lookup (index -> position) are derived once.
    """

    indices: tuple
    s: int = field(init=False)
    p: int = field(init=False)
    lookup: dict = field(init=False)

    def __post_init__(self):
        indices = self.indices
        if not indices or not indices[0] or any(indices[0]):
            raise ValueError("a multi-index set starts with the zero index")
        s = len(indices[0])
        if any(len(m) != s for m in indices):
            raise ValueError(f"multi-indices must all have length {s}")
        keys = [(sum(m), m) for m in indices]
        if any(a >= b for a, b in zip(keys[:-1], keys[1:])):
            raise ValueError("multi-indices must be distinct and in graded-lex order")
        lookup = {m: pos for pos, m in enumerate(indices)}
        for m in indices:
            for n in range(s):
                if m[n] >= 1 and m[:n] + (m[n] - 1,) + m[n + 1:] not in lookup:
                    raise ValueError(f"{m} is in the set but its lowering in "
                                     f"mode {n + 1} is not (not downward-closed)")
        for name, value in (("s", s), ("p", keys[-1][0]), ("lookup", lookup)):
            object.__setattr__(self, name, value)

    @property
    def size(self) -> int:
        return len(self.indices)


def _compositions(parts: int, total: int):
    """All tuples of `parts` nonnegative ints summing to `total`, lex ascending."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(parts - 1, total - first):
            yield (first,) + rest


def enumerate_indices(s: int, p: int) -> MultiIndexSet:
    """The total-degree set {m in Z_{>=0}^s : |m|_1 <= p}, graded-lex ordered."""
    if s < 1:
        raise ValueError(f"stochastic dimension must be >= 1, got {s}")
    if p < 0:
        raise ValueError(f"PCE order must be >= 0, got {p}")
    count = math.comb(s + p, p)
    if count > MAX_BASIS_SIZE:
        raise CapacityError(
            f"basis size {count} exceeds the supported maximum {MAX_BASIS_SIZE}")
    return MultiIndexSet(tuple(m for total in range(p + 1)
                               for m in _compositions(s, total)))


@dataclass(frozen=True, eq=False)
class GalerkinCouplings:
    """Sparse coupling tensor as one CSR matrix per stochastic mode:
    mode_matrices[n-1][m, l] = G_{m,n,l}."""

    basis: MultiIndexSet
    mode_matrices: tuple


def build_couplings(basis: MultiIndexSet) -> GalerkinCouplings:
    """Emit raising (weight sqrt(m_n + 1)) and lowering (weight sqrt(m_n))
    partners per mode.

    A raised partner is kept exactly when the set contains it (boundary
    truncation); lowered partners are always inside a downward-closed set.
    The raising entry of m and the lowering entry of m + e_n are the same
    sqrt, so every M_n equals its transpose bitwise.
    """
    from scipy import sparse

    rows = [[] for _ in range(basis.s)]
    cols = [[] for _ in range(basis.s)]
    data = [[] for _ in range(basis.s)]
    for m_pos, m in enumerate(basis.indices):
        for n in range(basis.s):
            lowered = basis.lookup.get(m[:n] + (m[n] - 1,) + m[n + 1:])
            raised = basis.lookup.get(m[:n] + (m[n] + 1,) + m[n + 1:])
            for l_pos, weight in ((lowered, math.sqrt(m[n])),
                                  (raised, math.sqrt(m[n] + 1))):
                if l_pos is not None:
                    rows[n].append(m_pos); cols[n].append(l_pos); data[n].append(weight)
    n_basis = basis.size
    matrices = tuple(
        sparse.csr_matrix((data[n], (rows[n], cols[n])), shape=(n_basis, n_basis))
        for n in range(basis.s))
    return GalerkinCouplings(basis=basis, mode_matrices=matrices)


@dataclass(frozen=True, eq=False)
class PCEState:
    """The N operator-valued coefficients phi_m at one instant, Schrodinger frame."""

    coefficients: np.ndarray  # (N, d, d) complex
    t: float  # stored as a Python float, so messages print it plainly
    basis: MultiIndexSet

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=complex)
        if coeffs.ndim != 3 or coeffs.shape[1] != coeffs.shape[2]:
            raise DimensionMismatchError(
                f"coefficients must be (N, d, d), got {coeffs.shape}")
        if coeffs.shape[0] != self.basis.size:
            raise DimensionMismatchError(
                f"{coeffs.shape[0]} coefficients for a basis of {self.basis.size}")
        coeffs = coeffs.copy(); coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "t", float(self.t))

    @property
    def dim(self) -> int:
        return self.coefficients.shape[1]


def initial_pce_state(rho0, basis: MultiIndexSet) -> PCEState:
    """phi_0 = rho0, all other coefficients zero (deterministic initial state)."""
    rho0 = validate_density_matrix(rho0)
    coeffs = np.zeros((basis.size, rho0.shape[0], rho0.shape[1]), dtype=complex)
    coeffs[0] = rho0
    return PCEState(coefficients=coeffs, t=0.0, basis=basis)


def _trace_errors(coeffs: np.ndarray) -> np.ndarray:
    """max_m |tr phi_m - delta_{m,0}| of each (N, d, d) stack in (..., N, d, d)."""
    traces = np.einsum("...ii->...", coeffs)
    traces[..., 0] -= 1.0
    return np.max(np.abs(traces), axis=-1)


def _squared_norms(x: np.ndarray) -> np.ndarray:
    """||X||_F^2 of each C-contiguous complex (d, d) matrix in (..., d, d)."""
    flat = x.reshape(x.shape[:-2] + (-1,)).view(float)
    return np.einsum("...i,...i->...", flat, flat)


def _hermiticity_errors(coeffs: np.ndarray) -> np.ndarray:
    """max_m ||phi_m - phi_m^dag||_F of each (N, d, d) stack in (..., N, d, d)."""
    dev = coeffs - np.swapaxes(coeffs, -1, -2).conj()
    return np.max(np.sqrt(_squared_norms(dev)), axis=-1)


def _state_batch(states) -> tuple:
    """(records, batched): one PCEState as the batch of one, with batched
    False, or a nonempty sequence of them as a list, with batched True."""
    if isinstance(states, PCEState):
        return [states], False
    records = list(states)
    if not records:
        raise ValueError("a batch needs at least one PCEState")
    return records, True


def _blockwise(records: list, reduce) -> np.ndarray:
    """reduce(coeffs) on the records in blocks of BLOCK_SIZE, concatenated
    along the first axis.

    coeffs is a block's stacked (B, N, d, d) coefficients.  reduce must
    treat each record on its own, so the result does not depend on the
    blocking.  Only one block's copy of the coefficients is live at a time:
    a read-out of all records then needs no more memory than propagate's
    records of a chunk.
    """
    basis = records[0].basis
    if any(r.basis is not basis and r.basis.indices != basis.indices
           for r in records):
        raise DimensionMismatchError("the states of a batch use different bases")
    parts = []
    for first in range(0, len(records), BLOCK_SIZE):
        coeffs = np.stack([r.coefficients for r in records[first:first + BLOCK_SIZE]])
        parts.append(reduce(coeffs))
    return np.concatenate(parts)


def trace_error(states):
    """max_m |tr phi_m - delta_{m,0}| (every trace is conserved by the flow).

    A float for one PCEState, a (T,) array for a sequence of them.
    """
    records, batched = _state_batch(states)
    return unstack(_blockwise(records, _trace_errors), batched)


def hermiticity_error(states):
    """max_m Frobenius norm of phi_m - phi_m^dag.

    A float for one PCEState, a (T,) array for a sequence of them.
    """
    records, batched = _state_batch(states)
    return unstack(_blockwise(records, _hermiticity_errors), batched)


def _coordinate_norms(y: np.ndarray, traces: np.ndarray, d: int) -> np.ndarray:
    """The weighted norm sum_m ||phi_m||_F^2 = E ||rho(xi)||_F^2 from the
    traceless coordinates: sum_m (2 ||y_m||^2 + tr(phi_m)^2 / d) of each
    (N, d*d - 1) stack in y, shape (..., N, d*d - 1), with the (N,) traces
    that all stacks share.

    The truncated Galerkin flow conserves it exactly: the traces are
    constant, and every coupling matrix M_n is symmetric while L0 and Lv
    are antisymmetric, so the y part keeps its length."""
    return 2 * np.einsum("...mi,...mi->...", y, y) + np.dot(traces, traces) / d


@functools.lru_cache(maxsize=None)
def _traceless_basis(d: int) -> np.ndarray:
    """The d*d - 1 generalized Gell-Mann matrices G_a, shape (d*d - 1, d, d):
    E_jk + E_kj, then -i E_jk + i E_kj (j < k in np.triu_indices order),
    then sqrt(2 / (l (l + 1))) (E_00 + ... + E_{l-1,l-1} - l E_ll) for
    l = 1 .. d-1.  Hermitian, traceless, tr(G_a G_b) = 2 delta_ab; for a
    qubit they are sigma_x, sigma_y, sigma_z.  Read-only."""
    units = np.eye(d * d).reshape(d * d, d, d)  # units[j * d + k] = E_jk
    rows, cols = np.triu_indices(d, 1)
    upper, lower = units[rows * d + cols], units[cols * d + rows]
    diagonal = [math.sqrt(2 / (l * (l + 1)))
                * np.diag([1.0] * l + [-l] + [0.0] * (d - l - 1))
                for l in range(1, d)]
    basis = np.concatenate([upper + lower, 1j * (lower - upper), diagonal])
    basis.setflags(write=False)
    return basis


def _coordinates(x: np.ndarray) -> np.ndarray:
    """y_a = tr(G_a X) / 2 of Hermitian (..., d, d) matrices, shape
    (..., d*d - 1).  For Hermitian G_a, tr(G_a X) is the real dot product
    of G_a and X viewed as floats, so this is one real matrix product."""
    d = x.shape[-1]
    flat = x.reshape(x.shape[:-2] + (-1,))
    basis = _traceless_basis(d).reshape(-1, d * d)
    return (flat.view(float) @ basis.view(float).T) * 0.5


def _matrices(y: np.ndarray, traces: np.ndarray, d: int) -> np.ndarray:
    """X = tr(X) / d I + sum_a y_a G_a, shape (..., d, d), for coordinates
    y of shape (..., d*d - 1) and traces broadcasting against y[..., 0].
    Off-diagonal entries are copies of coordinates, so every X is exactly
    Hermitian."""
    x = (y @ _traceless_basis(d).reshape(-1, d * d).view(float)).view(complex)
    x = x.reshape(y.shape[:-1] + (d, d))
    x.real[..., range(d), range(d)] += (traces / d)[..., None]
    return x


def _commutator_matrix(op: np.ndarray) -> np.ndarray:
    """L, shape (d*d - 1, d*d - 1): the real antisymmetric matrix with
    y(X) @ L = y(-i [op, X]) for Hermitian X and op, where y is _coordinates.

    X = tr(X) / d I + sum_b y_b(X) G_b and the identity commutes with op, so
    row b of L is y(-i [op, G_b]).  Those rows are antisymmetric up to
    rounding; averaging them with minus their transpose makes L bitwise so.
    """
    basis = _traceless_basis(op.shape[0])
    rows = _coordinates(-1j * (op @ basis - basis @ op))
    return 0.5 * (rows - rows.T)


def _summed_couplings(couplings: GalerkinCouplings):
    """sum_n s_n M_n and the drift as one (N, 2N) CSR matrix with a fixed
    pattern, acting on x = Y @ [Lv | L0] read as (2N, d*d - 1): M_n[m, l] at
    column 2l meets Y_l Lv, and the drift, one more mode with weight 1 at
    (m, 2m + 1), meets Y_m L0.  The modes' patterns are disjoint, as
    M_n[m, l] is nonzero only for l = m +- e_n.  Entries are ordered by row,
    then mode, then column.  Returns the matrix (data are the weights) and
    the mode of each entry; the data at a stage are then weights * s[mode].
    """
    from scipy import sparse

    n_basis = couplings.basis.size
    parts = [matrix.tocoo() for matrix in couplings.mode_matrices]
    parts.append(sparse.identity(n_basis, format="coo"))  # the drift
    rows = np.concatenate([part.row for part in parts])
    cols = 2 * np.concatenate([part.col for part in parts])
    cols[-n_basis:] += 1
    weights = np.concatenate([part.data for part in parts])
    modes = np.concatenate([np.full(part.nnz, n) for n, part in enumerate(parts)])
    order = np.lexsort((cols, modes, rows))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n_basis))])
    summed = sparse.csr_matrix((weights[order], cols[order], indptr),
                               shape=(n_basis, 2 * n_basis))
    return summed, modes[order]


def _sparse_product(summed, width: int):
    """summed's pattern bound to SciPy's csr_matvecs kernel: a function of
    (data, x, out) that adds the matrix with entries data times x into out,
    for float64 x and out of (columns, width) and (rows, width) C values."""
    from scipy.sparse import _sparsetools

    n_rows, n_cols = summed.shape
    return functools.partial(_sparsetools.csr_matvecs, n_rows, n_cols, width,
                             summed.indptr, summed.indices)


def _rhs(product, data: np.ndarray, generator: np.ndarray, y: np.ndarray,
         x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Add S(t) (Y Lv) + Y L0 on the real (N, d*d - 1) coordinates Y into
    out and return it; product is the summed pattern's _sparse_product,
    data its entries at the stage, and generator is [Lv | L0].  x receives
    Y @ generator, (N, 2 (d*d - 1)), whose C-order values the matrix reads.

    _rk4_steps passes the generator scaled by a stage factor c, so the
    call adds c times the RHS.  Two NumPy-level calls: np.dot, which writes
    into x only if it is a C-contiguous float64 array, and SciPy's
    csr_matvecs, which adds each row's entries into out in the row's order.
    On a zeroed out that is bitwise summed @ x.  out is passed to the kernel
    whole: it works in place on a C-contiguous one and copies and writes
    back any other layout, where out.ravel() would be a copy it fills
    instead.
    """
    np.dot(y, generator, out=x)
    product(data, x, out)
    return out


def _check_weighted_norm(norm: float, norm0: float, t: float) -> None:
    """Records keep every trace and hermiticity by construction, even when
    RK4 is unstable; an unstable step shows only as weighted-norm growth."""
    if not (norm <= norm0 * (1.0 + DIVERGENCE_FACTOR * WEIGHTED_NORM_TOL)):
        raise PropagationDivergedError(
            f"weighted norm {norm:.3e} exceeds its initial {norm0:.3e} "
            f"at t = {t!r}; reduce dt_max")


def _rk4_steps(product, generator: np.ndarray, data: np.ndarray, h: float,
               y: np.ndarray, x: np.ndarray, stack: np.ndarray) -> None:
    """Classic RK4 steps of size h, advancing the real coordinates y in place.

    product is the summed matrix's _sparse_product, generator is [Lv | L0]
    and data its entries weight * s[mode](t) on the steps' 2 steps + 1 stages
    (their half-step grid).  The stage factors h/2, h and h/6 scale three
    copies of the small generator, not the data, so the four _rhs calls of
    a step add a1 = (h/2) k1, a2 = (h/2) k2, a3 = h k3 and a4 = (h/6) k4.
    stack holds [y, y2, y3, y4], filled with y by one broadcast copy; _rhs
    adds a1, a2, a3 into slots 1-3 to make the stage inputs y + a_k.  One
    product with RK4_WEIGHTS then writes y + (a1 + 2 a2 + a3) / 3 into y,
    and the fourth _rhs call adds a4 into y: 10 NumPy-level calls per step.
    x is _rhs's (N, 2 (d*d - 1)) buffer and stack a (4,) + y.shape one; both,
    and y, are C-contiguous and allocated by the caller once per propagate.
    """
    half, full, sixth = (h / 2) * generator, h * generator, (h / 6) * generator
    _, y2, y3, y4 = stack
    rows, y_flat = stack.reshape(4, -1), y.reshape(-1)  # views: both C-contiguous
    for j in range(len(data) // 2):
        np.copyto(stack, y)
        _rhs(product, data[2 * j], half, y, x, y2)
        _rhs(product, data[2 * j + 1], half, y2, x, y3)
        _rhs(product, data[2 * j + 1], full, y3, x, y4)
        np.dot(RK4_WEIGHTS, rows, out=y_flat)
        _rhs(product, data[2 * j + 2], sixth, y4, x, y)


def _chunks(steps):
    """The RK4 work of the output intervals, given each one's (positive)
    step count, as chunks: lists of (interval, first step, stop step)
    ranges that walk every interval's steps in order.  A chunk closes before
    it would exceed BLOCK_STAGES stages (2 (stop - first) + 1 per range) or
    once BLOCK_SIZE intervals have ended in it; an interval is split where
    the stage budget runs out.  A fresh chunk takes at least one step."""
    chunk, stages, ended = [], 0, 0
    for i, n_steps in enumerate(steps):
        first = 0
        while first < n_steps:
            # close the chunk if not one more step fits or it is out of ends
            if chunk and (stages + 3 > BLOCK_STAGES or ended == BLOCK_SIZE):
                yield chunk
                chunk, stages, ended = [], 0, 0
            stop = min(n_steps, first + max(1, (BLOCK_STAGES - stages - 1) // 2))
            chunk.append((i, first, stop))
            stages += 2 * (stop - first) + 1
            first = stop
        ended += 1
    if chunk:
        yield chunk


def propagate(state: PCEState, model: StochasticModel, kle: TruncatedKLE,
              couplings: GalerkinCouplings, t_grid, dt_max: float | None = None):
    """Integrate the hierarchy with fixed-step classic RK4, Schrodinger frame.

    Records a PCEState at every t_grid point (the first must equal state.t,
    the last must not pass model.horizon, where the KL modes end).
    Within each output interval the step is the largest uniform step not
    exceeding dt_max (default horizon / 2000); over MAX_RK4_STEPS steps in
    all raise CapacityError.  Between records the
    coefficients are the real (N, d*d - 1) traceless coordinates Y of
    _coordinates, and one RHS is Y L0 + sum_n s_n(t) M_n (Y Lv): one dense and
    one sparse real product.  The flow conserves every trace, so the traces
    are read once from the input state and carried as constants.

    The steps are integrated in chunks of at most BLOCK_STAGES stages in
    which at most BLOCK_SIZE intervals end (_chunks); a long interval spans
    several chunks with the same step size, so memory does not grow with
    the steps per interval.  s_n(t) = sqrt(lambda_n) g_n(t) are built once
    per chunk, on the stages of all its ranges on the half-step grid, so
    the integrator itself does no quadrature.  The data of the summed
    matrix, weight * s_n(t) and the drift's 1, are built per range, and
    _rk4_steps scales three copies of the generator [Lv | L0] by the RK4
    stage factors h/2, h and h/6.  The records of the intervals that end
    in a chunk are converted back to Hermitian matrices together
    (_matrices), with their input traces, so trace and hermiticity hold by
    construction and only the weighted-norm check can see an integrator
    fault.  The input state is checked for trace and hermiticity drift
    before it is converted, and every record for weighted-norm growth at
    the end of its chunk, with both norms taken from the coordinates and
    the traces (_coordinate_norms).
    PropagationDivergedError names the first failing time and the first
    check that fails there.
    """
    if (couplings.basis is not state.basis
            and couplings.basis.indices != state.basis.indices):
        raise DimensionMismatchError("state and couplings use different bases")
    if kle.stochastic_dim != state.basis.s:
        raise DimensionMismatchError(
            f"KLE has {kle.stochastic_dim} modes, basis expects {state.basis.s}")
    if model.dim != state.dim:
        raise DimensionMismatchError(
            f"model dimension {model.dim} differs from state dimension {state.dim}")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1:
        raise ValueError("t_grid must be a nonempty 1-D array")
    if not np.all(np.isfinite(t_grid)):
        raise ValueError("t_grid times must be finite")
    if abs(t_grid[0] - state.t) > 1e-12:
        raise ValueError(f"t_grid starts at {float(t_grid[0])!r}, "
                         f"state is at {state.t!r}")
    if t_grid.size > 1 and np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    if t_grid[-1] > model.horizon * (1 + 1e-12):
        raise ValueError(f"t_grid ends at {float(t_grid[-1])!r}, past the model "
                         f"horizon {model.horizon!r} that the KL modes cover")
    if dt_max is None:
        dt_max = model.horizon / DEFAULT_SUBSTEP_FRACTION
    if not (dt_max > 0):
        raise ValueError(f"dt_max must be positive, got {dt_max}")
    with np.errstate(over="ignore"):  # floats first: a tiny dt_max overflows no int
        counts = np.maximum(1.0, np.ceil(np.diff(t_grid) / dt_max - 1e-12))
    if not (np.sum(counts) <= MAX_RK4_STEPS):
        raise CapacityError(f"{np.sum(counts):.6g} RK4 steps exceed the supported "
                            f"maximum {MAX_RK4_STEPS}; raise dt_max")
    record_bytes = t_grid.size * state.coefficients.nbytes
    if record_bytes > MAX_RECORD_BYTES:
        raise CapacityError(f"{t_grid.size} records of {state.basis.size} "
                            f"coefficients need {record_bytes} bytes, over "
                            f"the supported maximum {MAX_RECORD_BYTES}; lower "
                            f"[pce] output_points")
    steps = counts.astype(int).tolist()

    d = state.dim
    basis = state.basis
    summed, entry_modes = _summed_couplings(couplings)
    # data = s_stage.T @ mode_weights is weight * s[mode]; the drift's s is 1
    mode_weights = np.zeros((basis.s + 1, summed.nnz))
    mode_weights[entry_modes, np.arange(summed.nnz)] = summed.data
    generator = np.concatenate([_commutator_matrix(model.v),
                                _commutator_matrix(model.h0)], axis=1)
    times = t_grid.tolist()
    t_err, h_err = trace_error(state), hermiticity_error(state)
    if not (t_err <= DIVERGENCE_FACTOR * TRACE_CONSERVATION_TOL):
        raise PropagationDivergedError(
            f"input state has trace error {t_err:.3e} at t = {times[0]!r}")
    if not (h_err <= DIVERGENCE_FACTOR * HERMITICITY_TOL):
        raise PropagationDivergedError(
            f"input state has hermiticity error {h_err:.3e} at t = {times[0]!r}")
    out = [PCEState(coefficients=state.coefficients, t=times[0], basis=basis)]
    traces = np.trace(state.coefficients, axis1=1, axis2=2).real
    y = _coordinates(state.coefficients)  # C order, like the stage buffers
    product = _sparse_product(summed, d * d - 1)
    x = np.empty((basis.size, generator.shape[1]))
    stack = np.empty((4,) + y.shape)
    norm0 = float(_coordinate_norms(y, traces, d))
    sizes = [(t1 - t0) / n for t0, t1, n in zip(times[:-1], times[1:], steps)]
    for chunk in _chunks(steps):
        stage_times = np.concatenate(
            [times[i] + (sizes[i] / 2) * np.arange(2 * first, 2 * stop + 1)
             for i, first, stop in chunk])
        s_stage = scaled_modes_matrix(kle.modes, model.kernel, stage_times)
        s_stage = np.vstack([s_stage, np.ones(stage_times.size)])  # the drift's s
        record_times = [times[i + 1] for i, _, stop in chunk if stop == steps[i]]
        records = np.empty((len(record_times), basis.size, d * d - 1))
        start = ended = 0
        for i, first, stop in chunk:
            stages = slice(start, start + 2 * (stop - first) + 1)
            _rk4_steps(product, generator,
                       s_stage[:, stages].T @ mode_weights, sizes[i], y, x,
                       stack)
            if stop == steps[i]:
                records[ended] = y
                ended += 1
            start = stages.stop
        norms = _coordinate_norms(records, traces, d).tolist()
        for t, norm in zip(record_times, norms):
            _check_weighted_norm(norm, norm0, t)
        out.extend(PCEState(coefficients=c, t=t, basis=basis)
                   for c, t in zip(_matrices(records, traces, d), record_times))
    return out


def mean_state(states) -> np.ndarray:
    """The stochastic-mean density matrix in the Schrodinger frame.

    E[psi_m] vanishes for m != 0, so the mean is phi_0, made Hermitian.
    One PCEState gives a (d, d) matrix, a sequence of them a (T, d, d)
    stack.  A trace off 1 by more than MEAN_TRACE_TOL, NaN included,
    raises CorruptedStateError for the first such record, named by its
    time.  Positivity is not enforced (the truncated hierarchy does not
    guarantee it); use min_eigenvalue to monitor it.
    """
    records, batched = _state_batch(states)
    rho = np.stack([r.coefficients[0] for r in records])
    tr = np.trace(rho, axis1=-2, axis2=-1)
    bad = ~(np.abs(tr - 1.0) <= MEAN_TRACE_TOL)
    if bad.any():
        k = int(np.argmax(bad))
        raise CorruptedStateError(
            f"mean state trace {tr[k]} at t = {records[k].t!r} deviates "
            f"from 1 beyond {MEAN_TRACE_TOL:.1e}")
    return unstack(0.5 * (rho + np.swapaxes(rho.conj(), -1, -2)), batched)


def min_eigenvalue(rho):
    """Smallest eigenvalue of a (near-)Hermitian matrix; positivity monitor.

    A float for one (d, d) matrix, a (T,) array for a (T, d, d) stack.
    Non-finite entries raise CorruptedStateError, for a stack naming the
    index of the first matrix that has them.
    """
    rho, batched = as_operator_stack(rho)
    bad = ~np.all(np.isfinite(rho), axis=(-2, -1))
    if bad.any():
        where = f" {int(np.argmax(bad))}" if batched else ""
        raise CorruptedStateError(f"matrix{where} has non-finite entries; "
                                  f"its eigenvalues are undefined")
    hermitian = 0.5 * (rho + np.swapaxes(rho.conj(), -1, -2))
    return unstack(np.linalg.eigvalsh(hermitian).min(axis=-1), batched)


def observable_mean(states, obs):
    """tr(obs * mean_state).

    A float for one PCEState, a (T,) array for a sequence of them.
    """
    return expectation(obs, mean_state(states))


def _traces_with(coeffs: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """Re tr(obs phi_m) of (B, N, d, d) coefficients, shape (B, N): one
    einsum over all B*N coefficients alike, so each entry is bitwise the
    same for any B."""
    b, n, d, _ = coeffs.shape
    return np.einsum("ij,kji->k", obs, coeffs.reshape(b * n, d, d)).real.reshape(b, n)


def observable_variance(states, obs):
    """Noise-induced variance of tr(obs rho(xi)) across realizations.

    Orthonormality of the Hermite basis gives
    Var = sum_{m != 0} tr(obs phi_m)^2, with obs and the coefficients both
    in the Schrodinger frame; no sampling involved.  A float for one
    PCEState, a (T,) array for a sequence of them.  A record with a
    non-finite coefficient raises CorruptedStateError, for the first such
    record, named by its time.
    """
    obs = check_hermitian(obs)
    records, batched = _state_batch(states)
    if obs.shape[0] != records[0].dim:
        raise DimensionMismatchError("observable dimension mismatch")
    values = _blockwise(records, functools.partial(_traces_with, obs=obs))
    bad = ~np.all(np.isfinite(values), axis=-1)
    if bad.any():
        k = int(np.argmax(bad))
        raise CorruptedStateError(
            f"state at t = {records[k].t!r} has non-finite coefficients")
    return unstack(np.sum(values[:, 1:] ** 2, axis=-1), batched)
