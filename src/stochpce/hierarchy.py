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
sizes their cost is mostly call overhead.  So each RK4 stage writes into
buffers allocated once per run of steps, and _rhs calls SciPy's
csr_matvecs kernel on them directly rather than the matrix's `@`, which
adds operator dispatch and a fresh result array.

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
TRACE_CONSERVATION_TOL = 1e-8
HERMITICITY_TOL = 1e-8
WEIGHTED_NORM_TOL = 1e-8
DIVERGENCE_FACTOR = 100.0
MEAN_TRACE_TOL = 1e-6
DEFAULT_SUBSTEP_FRACTION = 2000
BLOCK_SIZE = 16  # output intervals integrated per block, at most
BLOCK_STAGES = 512  # RK4 stages per block, at most, unless one interval has more
RUN_STEPS = (BLOCK_STAGES - 1) // 2  # steps per run of such an interval


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
    t: float
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
    records of a block.
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


@functools.lru_cache(maxsize=None)
def _structure_constants(d: int) -> np.ndarray:
    """F, shape (d*d - 1,) * 3, with F[c, b, a] = y_a(-i [G_c, G_b]) for the
    coordinates y_a of _coordinates.  Totally antisymmetric.  Read-only."""
    basis = _traceless_basis(d)
    left, right = basis[:, None], basis[None, :]
    constants = _coordinates(-1j * (left @ right - right @ left))
    constants.setflags(write=False)
    return constants


def _commutator_matrix(op: np.ndarray) -> np.ndarray:
    """L, shape (d*d - 1, d*d - 1): the real antisymmetric matrix with
    y(X) @ L = y(-i [op, X]) for Hermitian X and op, where y is _coordinates.

    The commutator is real-linear in op and the identity part of op commutes
    with X, so L = sum_c y_c(op) F[c] with the structure constants F: one
    (d*d - 1,) @ (d*d - 1, (d*d - 1)**2) product.
    """
    n = op.shape[0] ** 2 - 1
    constants = _structure_constants(op.shape[0]).reshape(n, -1)
    return (_coordinates(op) @ constants).reshape(n, n)


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
    """S(t) (Y Lv) + Y L0 on the real (N, d*d - 1) coordinates Y, written
    into out and returned; product is the summed pattern's _sparse_product,
    data its entries at the stage, and generator is [Lv | L0].  x receives
    Y @ generator, (N, 2 (d*d - 1)), whose C-order values the matrix reads.

    x and out are float64 arrays, passed to the kernel whole: it
    works in place on C-contiguous ones and copies and writes back any
    other layout, where out.ravel() would be a copy it fills instead.
    """
    np.matmul(y, generator, out=x)
    out.fill(0.0)
    product(data, x, out)
    return out


def _check_invariants(t_err: float, h_err: float, t: float) -> None:
    if not (t_err <= DIVERGENCE_FACTOR * TRACE_CONSERVATION_TOL):
        raise PropagationDivergedError(
            f"trace error {t_err:.3e} at t = {t!r}; reduce dt_max")
    if not (h_err <= DIVERGENCE_FACTOR * HERMITICITY_TOL):
        raise PropagationDivergedError(
            f"hermiticity error {h_err:.3e} at t = {t!r}; reduce dt_max")


def _check_weighted_norm(norm: float, norm0: float, t: float) -> None:
    """Records keep every trace and hermiticity by construction, even when
    RK4 is unstable; an unstable step shows only as weighted-norm growth."""
    if not (norm <= norm0 * (1.0 + DIVERGENCE_FACTOR * WEIGHTED_NORM_TOL)):
        raise PropagationDivergedError(
            f"weighted norm {norm:.3e} exceeds its initial {norm0:.3e} "
            f"at t = {t!r}; reduce dt_max")


def _rk4_steps(product, generator: np.ndarray, data: np.ndarray, h: float,
               y: np.ndarray) -> None:
    """Classic RK4 steps of size h, advancing the real coordinates y in place.

    product is the summed matrix's _sparse_product, generator is [Lv | L0]
    and data its entries weight * s[mode](t) on the steps' 2 steps + 1 stages
    (their half-step grid).  The data are pre-scaled by the stage factors
    (data is overwritten with its h/2 multiple), so the four _rhs calls of
    a step return a1 = (h/2) k1, a2 = (h/2) k2, a3 = h k3 and a4 = (h/6) k4,
    and the step is y + ((a1 + 2 a2 + a3) / 3 + a4), formed in that order.
    Every stage writes into the same six buffers, allocated once per call.
    """
    full, sixth = h * data[1::2], (h / 6) * data[2::2]
    half = np.multiply(data, h / 2, out=data)
    x = np.empty((y.shape[0], generator.shape[1]))
    stage, a1, a2, a3, a4 = np.empty((5,) + y.shape)
    for j in range(len(full)):
        _rhs(product, half[2 * j], generator, y, x, a1)
        _rhs(product, half[2 * j + 1], generator,
             np.add(y, a1, out=stage), x, a2)
        _rhs(product, full[j], generator, np.add(y, a2, out=stage), x, a3)
        _rhs(product, sixth[j], generator, np.add(y, a3, out=stage), x, a4)
        increment = np.multiply(a2, 2, out=a2)
        np.add(a1, increment, out=increment)
        np.add(increment, a3, out=increment)
        np.divide(increment, 3, out=increment)
        np.add(increment, a4, out=increment)
        np.add(y, increment, out=y)


def _blocks(steps):
    """Consecutive ranges of output intervals, given each one's RK4 step
    count: up to BLOCK_SIZE intervals with up to BLOCK_STAGES stages in all
    (2 steps + 1 per interval), or one interval that alone has more."""
    first = 0
    while first < len(steps):
        stop, stages = first + 1, 2 * steps[first] + 1
        while (stop < min(first + BLOCK_SIZE, len(steps))
               and stages + 2 * steps[stop] + 1 <= BLOCK_STAGES):
            stages += 2 * steps[stop] + 1
            stop += 1
        yield range(first, stop)
        first = stop


def _runs(block: range, steps):
    """The block's work as runs of (interval, first step, stop step), each
    run at most BLOCK_STAGES stages: the whole block as one run, or an
    interval over the budget alone as runs of RUN_STEPS steps."""
    n_steps = steps[block.start]
    if len(block) > 1 or 2 * n_steps + 1 <= BLOCK_STAGES:
        return [[(i, 0, steps[i]) for i in block]]
    return [[(block.start, first, min(first + RUN_STEPS, n_steps))]
            for first in range(0, n_steps, RUN_STEPS)]


def propagate(state: PCEState, model: StochasticModel, kle: TruncatedKLE,
              couplings: GalerkinCouplings, t_grid, dt_max: float | None = None):
    """Integrate the hierarchy with fixed-step classic RK4, Schrodinger frame.

    Records a PCEState at every t_grid point (the first must equal state.t).
    Within each output interval the step is the largest uniform step not
    exceeding dt_max (default horizon / 2000); over MAX_RK4_STEPS steps in
    all raise CapacityError.  Between records the
    coefficients are the real (N, d*d - 1) traceless coordinates Y of
    _coordinates, and one RHS is Y L0 + sum_n s_n(t) M_n (Y Lv): one dense and
    one sparse real product.  The flow conserves every trace, so the traces
    are read once from the input state and carried as constants.

    The grid is integrated in blocks of BLOCK_SIZE output intervals, fewer
    where their steps would exceed BLOCK_STAGES stages (_blocks).
    s_n(t) = sqrt(lambda_n) g_n(t) are built once per block, on all its
    intervals' stages on the half-step grid, so the integrator itself does
    no quadrature.  An interval with more stages than that is integrated in
    runs of RUN_STEPS steps with the same step size, each run with its own
    stage data (_runs), so memory does not grow with the steps per interval.
    The data of the summed matrix, weight * s_n(t) and the drift's 1, are built per
    interval or run and pre-scaled by the RK4 stage factors h/2, h and h/6
    (_rk4_steps).  The block's records are converted back to Hermitian
    matrices together (_matrices), with their input traces, so trace and
    hermiticity hold by construction and only the weighted-norm check can
    see an integrator fault.  The input state is checked for trace and
    hermiticity drift before it is converted, and every record for
    weighted-norm growth at the end of its block, with both norms taken
    from the coordinates and the traces (_coordinate_norms).
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
        raise ValueError(f"t_grid starts at {t_grid[0]!r}, state is at {state.t!r}")
    if t_grid.size > 1 and np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    if dt_max is None:
        dt_max = model.horizon / DEFAULT_SUBSTEP_FRACTION
    if not (dt_max > 0):
        raise ValueError(f"dt_max must be positive, got {dt_max}")
    with np.errstate(over="ignore"):  # floats first: a tiny dt_max overflows no int
        counts = np.maximum(1.0, np.ceil(np.diff(t_grid) / dt_max - 1e-12))
    if not (np.sum(counts) <= MAX_RK4_STEPS):
        raise CapacityError(f"{np.sum(counts):.6g} RK4 steps exceed the supported "
                            f"maximum {MAX_RK4_STEPS}; raise dt_max")
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
    _check_invariants(trace_error(state), hermiticity_error(state), times[0])
    out = [PCEState(coefficients=state.coefficients, t=times[0], basis=basis)]
    traces = np.trace(state.coefficients, axis1=1, axis2=2).real
    y = _coordinates(state.coefficients)  # C order, like the stage buffers
    product = _sparse_product(summed, d * d - 1)
    norm0 = float(_coordinate_norms(y, traces, d))
    sizes = [(t1 - t0) / n for t0, t1, n in zip(times[:-1], times[1:], steps)]
    for block in _blocks(steps):
        records = np.empty((len(block), basis.size, d * d - 1))
        for run in _runs(block, steps):
            stage_times = np.concatenate(
                [times[i] + (sizes[i] / 2) * np.arange(2 * first, 2 * stop + 1)
                 for i, first, stop in run])
            s_stage = scaled_modes_matrix(kle.modes, model.kernel, stage_times)
            s_stage = np.vstack([s_stage, np.ones(stage_times.size)])  # the drift's s
            start = 0
            for i, first, stop in run:
                stages = slice(start, start + 2 * (stop - first) + 1)
                _rk4_steps(product, generator,
                           s_stage[:, stages].T @ mode_weights, sizes[i], y)
                if stop == steps[i]:
                    records[i - block.start] = y
                start = stages.stop
        record_times = times[block.start + 1:block.stop + 1]
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
