"""Monte Carlo reference solver for the stochastically driven system.

Samples noise realizations (exact discrete Ornstein-Uhlenbeck or a truncated
Karhunen-Loeve surrogate), propagates blocks of trajectories together with
exact piecewise unitaries in the Schrodinger frame, and averages a tracked
observable with its running standard error.  Each step is a Strang
splitting: a half step of the drift h0, a noise kick that is diagonal in the
eigenbasis of v, and another half step of the drift.  On the uniform grid
these are the same matrices at every step, so one step costs one elementwise
phase and one constant (d*d, d*d) basis change per block.

Determinism contract: trajectory k draws from a counter-based substream
keyed by (seed, k), and both its noise path and its states are built with
the same arithmetic in any block: the OU recursion acts elementwise per
row, the stepper's phase is elementwise and its basis change is a per-row
einsum product, and KLE paths are per-row products.  So a path, and
every result, is bit-identical for a given (seed, config) regardless of
block size.  A block's states live only until its observable samples are
read from them; the samples' mean and variance are two-pass sums per
batch, merged in batch order.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigError, DimensionMismatchError
from .kle import OrnsteinUhlenbeckKernel, TruncatedKLE, scaled_modes_matrix
from .operators import (
    SIGMA_X,
    StochasticModel,
    check_hermitian,
    frame_rotations,
    validate_density_matrix,
)

DEFAULT_STDERR_TARGET = 5e-3
MAX_STEP_FRACTION = 100  # dt must not exceed horizon / 100
MAX_TRAJECTORY_STEPS = 1_000_000  # one block's (BLOCK_SIZE, n_grid) paths: ~1 GB
MAX_BATCH_BYTES = 2**30  # one batch's samples plus one block's recorded states
GRID_UNIFORMITY_TOL = 1e-9  # relative to the grid's first step
# Trajectories stepped together as one (B, d*d) array.  This bounds the
# per-block temporaries: the (B, n_steps) noise paths and step angles and
# the (B, d*d) operands of each step.
BLOCK_SIZE = 128


@dataclass(frozen=True)
class MCConfig:
    """Monte Carlo run parameters.

    sampler is "exact_ou" (exact AR(1) Ornstein-Uhlenbeck recursion) or
    "kle" (truncated Karhunen-Loeve surrogate, which reproduces the
    truncated covariance and so exposes truncation error directly).
    batch is the number of trajectories between convergence checks; the run
    stops once the max-over-time stderr of the tracked observable drops to
    stderr_target, or when n_traj is exhausted (then flagged unconverged).
    The field order is the key order of the [mc] section in a run file's echo.
    """

    n_traj: int
    dt: float
    seed: int
    sampler: str = "exact_ou"
    batch: int = 500
    stderr_target: float = DEFAULT_STDERR_TARGET

    def __post_init__(self):
        for name in ("n_traj", "seed", "batch"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_traj < 2:
            raise ValueError(f"n_traj must be >= 2, got {self.n_traj}")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.sampler not in ("exact_ou", "kle"):
            raise ValueError(f"unknown sampler {self.sampler!r}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if not (self.stderr_target > 0):
            raise ValueError(f"stderr_target must be positive, got {self.stderr_target}")


@dataclass(frozen=True, eq=False)
class MCEnsemble:
    """Trajectory average: mean and standard error of the tracked observable
    per output time, both from one fold of the samples, and the trajectory
    budget used."""

    times: np.ndarray
    obs_mean: np.ndarray  # (n_times,)
    stderr_obs: np.ndarray  # (n_times,)
    n_used: int
    converged: bool


# The annotation is quoted: evaluated, it would load numpy.random (and
# secrets, hashlib) when the package is imported, for every command.
def trajectory_rng(seed: int, index: int) -> "np.random.Generator":
    """Counter-based substream for one trajectory; pure in (seed, index)."""
    return np.random.Generator(np.random.Philox(key=[seed, index]))


def _require_uniform(t_grid: np.ndarray) -> float:
    if not np.all(np.isfinite(t_grid)):
        raise ValueError("grid times must be finite")
    steps = np.diff(t_grid)
    if steps.size == 0:
        raise ValueError("grid needs at least two points")
    dt = float(steps[0])
    if not (dt > 0):
        raise ValueError(f"grid must increase, got a step of {dt!r}")
    if np.any(np.abs(steps - dt) > GRID_UNIFORMITY_TOL * dt):
        raise ValueError("grid must be uniform")
    return dt


def sample_ou_paths(kernel: OrnsteinUhlenbeckKernel, t_grid, rngs) -> np.ndarray:
    """Exact stationary OU samples at the grid times, one row per generator.

    Omega(t_0) ~ N(0, alpha^2); Omega(t_{k+1}) = r Omega(t_k)
    + alpha sqrt(1 - r^2) z_k with r = exp(-dt / tau_c).  The discrete path
    has exactly the continuous process's marginals and covariance at grid
    times, so Monte Carlo carries no SDE discretization bias.  Row b draws
    its start and its innovations from rngs[b] in one call; the recursion
    advances all rows one grid step at a time, so a row does not depend on
    the block.  Returns a (len(rngs), n_grid) array.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    dt = _require_uniform(t_grid)
    alpha = kernel.alpha
    r = np.exp(-dt / kernel.tau_c)
    scale = alpha * np.sqrt(1.0 - r * r)
    # column b holds path b, so each recursion step updates one contiguous row
    paths = np.empty((t_grid.size, len(rngs)))
    for b, rng in enumerate(rngs):
        paths[:, b] = rng.standard_normal(t_grid.size)
    paths[0] *= alpha
    paths[1:] *= scale
    for k in range(1, t_grid.size):
        paths[k] += r * paths[k - 1]
    return paths.T


def sample_ou_path(kernel: OrnsteinUhlenbeckKernel, t_grid, rng) -> np.ndarray:
    """One exact stationary OU path at the grid times (see sample_ou_paths)."""
    return sample_ou_paths(kernel, t_grid, [rng])[0]


class _TrajectoryStepper:
    """Exact piecewise-unitary stepping as a Strang splitting.

    Step k applies U0(dt/2) exp(-i theta_k v) U0(dt/2), the exact step
    unitary of the rotating-frame midpoint rule carried to the Schrodinger
    frame.  With v = Q D Q^dag and H = U0(dt/2), a trajectory is carried as
    sigma_k = B rho_k B^dag, B = Q^dag H, flattened row-major to d*d entries,
    so step k is one elementwise phase and one basis change:

        x = sigma_k * exp(-i theta_k (D_i - D_j)),
        sigma_{k+1} = (W kron conj(W)) vec(x),  W = B A,

    and the state after step k is rho_{k+1} = (A kron conj(A)) vec(x) with
    A = H Q.  The grid is uniform, so W and A are the same at every step and
    the stepper keeps two (d*d, d*d) superoperators whatever the grid length.
    """

    def __init__(self, model: StochasticModel, t_grid: np.ndarray):
        self.dt = _require_uniform(np.asarray(t_grid, dtype=float))
        v_eigvals, v_eigvecs = np.linalg.eigh(model.v)
        half_drift = frame_rotations(model, 0.5 * self.dt)
        self.to_sigma = v_eigvecs.conj().T @ half_drift
        to_state = half_drift @ v_eigvecs

        def right_factor(a):
            # maps a row-major vec(X), as a row, to vec(a X a^dag)
            return np.ascontiguousarray(np.kron(a, a.conj()).T)

        self.basis_change = right_factor(self.to_sigma @ to_state)
        self.record_map = right_factor(to_state)
        self.neg_i_gaps = -1j * (v_eigvals[:, None] - v_eigvals[None, :]).ravel()

    def propagate(self, paths: np.ndarray, rho0: np.ndarray,
                  record_idx: np.ndarray, out: np.ndarray) -> None:
        """Step a block of trajectories together as one (B, d*d) array.

        paths is (B, n_grid), one noise path per row; the Schrodinger-frame
        state at grid index record_idx[j] is written to out[:, j].  Every
        operation acts on each row separately (elementwise products and an
        unoptimized einsum, never a 2-D GEMM, whose bits for a row may depend
        on the row count), so a trajectory's states are bitwise the same
        whichever block it is stepped in.
        """
        n_rows, d = paths.shape[0], rho0.shape[0]
        # theta_k = 0.5 (omega_k + omega_{k+1}) dt laid out (n_steps, B), so
        # step k reads one contiguous row
        theta = np.add(paths[:, :-1].T, paths[:, 1:].T, order="C")
        theta *= 0.5
        theta *= self.dt
        record_at = {int(step): pos for pos, step in enumerate(record_idx)}
        if 0 in record_at:
            out[:, record_at[0]] = rho0
        sigma0 = self.to_sigma @ rho0 @ self.to_sigma.conj().T
        sigma = np.broadcast_to(sigma0.ravel(), (n_rows, d * d))
        n_steps = theta.shape[0]
        for k in range(n_steps):
            x = sigma * np.exp(theta[k, :, None] * self.neg_i_gaps)
            if k + 1 in record_at:
                out[:, record_at[k + 1]] = np.einsum(
                    "bm,mn->bn", x, self.record_map).reshape(n_rows, d, d)
            if k + 1 < n_steps:
                sigma = np.einsum("bm,mn->bn", x, self.basis_change)


def check_sampler(config: MCConfig, kernel) -> None:
    """Raise ConfigError if config's sampler cannot draw kernel's noise: the
    exact_ou recursion needs an Ornstein-Uhlenbeck kernel."""
    if config.sampler == "exact_ou" and not isinstance(kernel,
                                                        OrnsteinUhlenbeckKernel):
        raise ConfigError(f"sampler = exact_ou draws Ornstein-Uhlenbeck noise "
                          f"only, not a {type(kernel).__name__}; set "
                          f"sampler = kle in [mc]")


def _resolve_step_grid(model: StochasticModel, config: MCConfig,
                       t_out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Uniform propagation grid with step <= config.dt, aligned to the output times."""
    out_dt = _require_uniform(t_out)
    if abs(t_out[0]) > 1e-12:
        raise ValueError("output grid must start at t = 0")
    if t_out[-1] > model.horizon * (1 + 1e-12):
        raise ValueError(f"output grid ends at {float(t_out[-1])!r}, past the "
                         f"model horizon {model.horizon!r} that the noise covers")
    if config.dt > model.horizon / MAX_STEP_FRACTION * (1 + 1e-12):
        raise ValueError(
            f"dt = {config.dt!r} exceeds horizon/{MAX_STEP_FRACTION}")
    per_interval = max(1.0, np.ceil(out_dt / config.dt - 1e-12))  # float: no overflow
    n_steps = per_interval * (t_out.size - 1)
    if not (n_steps <= MAX_TRAJECTORY_STEPS):  # checked before any array is built
        raise CapacityError(f"{n_steps:.6g} Monte Carlo steps per trajectory "
                            f"exceed the supported maximum "
                            f"{MAX_TRAJECTORY_STEPS}; raise [mc] dt")
    per_interval, n_steps = int(per_interval), int(n_steps)
    t_grid = np.linspace(t_out[0], t_out[-1], n_steps + 1)
    record_idx = np.arange(0, n_steps + 1, per_interval)
    return t_grid, record_idx


class _EnsembleEngine:
    """Everything shared across trajectories for one mc_average run."""

    def __init__(self, model: StochasticModel, rho0: np.ndarray,
                 config: MCConfig, t_out: np.ndarray, observable: np.ndarray,
                 kle: TruncatedKLE | None):
        check_sampler(config, model.kernel)
        self.kernel = model.kernel
        self.seed = config.seed
        self.rho0 = rho0
        self.t_grid, self.record_idx = _resolve_step_grid(model, config, t_out)
        self.stepper = _TrajectoryStepper(model, self.t_grid)
        self.observable = observable
        if config.sampler == "kle":
            if kle is None:
                raise ValueError("sampler 'kle' needs a TruncatedKLE")
            self.scaled_modes = scaled_modes_matrix(kle.modes, model.kernel,
                                                    self.t_grid)
        else:
            self.scaled_modes = None

    def sample_paths(self, indices) -> np.ndarray:
        """(B, n_grid) noise paths on the step grid of the trajectories in
        indices, each from its own substream."""
        rngs = [trajectory_rng(self.seed, index) for index in indices]
        if self.scaled_modes is None:
            return sample_ou_paths(self.kernel, self.t_grid, rngs)
        # one xi @ scaled_modes product per row: a (B, s) @ (s, n) product
        # can differ in the last bit, so a path would depend on its block
        n_modes = self.scaled_modes.shape[0]
        return np.stack([rng.standard_normal(n_modes) @ self.scaled_modes
                         for rng in rngs])

    def run_block(self, indices: range, obs_out: np.ndarray) -> None:
        """Tracked-observable samples of the trajectories in indices, written
        to the matching rows of obs_out; their recorded states fill one
        block-sized buffer that is dropped on return."""
        paths = self.sample_paths(indices)
        states = np.empty((len(indices), self.record_idx.size) + self.rho0.shape,
                          dtype=complex)
        self.stepper.propagate(paths, self.rho0, self.record_idx, states)
        for rhos, obs in zip(states, obs_out):
            obs[:] = np.einsum("ij,tji->t", self.observable, rhos).real


def mc_average(model: StochasticModel, rho0, config: MCConfig, t_grid,
               observable=SIGMA_X, kle: TruncatedKLE | None = None) -> MCEnsemble:
    """Trajectory average of the tracked observable, with its standard error.

    Runs trajectories in batches of config.batch; after each batch the
    max-over-time standard error of the observable is tested against
    config.stderr_target and the run stops early once it is met.  t_grid
    must be uniform, start at 0 and end by model.horizon, where the noise
    is defined (ValueError otherwise).  The mean and the stderr come from
    one fold of the samples (_merge_moments).  One
    batch's (batch, n_out) samples plus one block's recorded states over
    MAX_BATCH_BYTES raise CapacityError before any trajectory runs.  The
    result is a pure function of (model, rho0, config, t_grid, observable):
    blocks only split a batch, never reorder the reduction.
    """
    rho0 = validate_density_matrix(rho0)
    observable = check_hermitian(observable)
    if observable.shape[0] != model.dim or rho0.shape[0] != model.dim:
        raise DimensionMismatchError("observable/rho0 dimension mismatch")
    t_out = np.asarray(t_grid, dtype=float)
    engine = _EnsembleEngine(model, rho0, config, t_out, observable, kle)

    n_out = engine.record_idx.size
    first_batch = min(config.batch, config.n_traj)
    batch_bytes = n_out * (8 * first_batch
                           + 16 * model.dim**2 * min(BLOCK_SIZE, first_batch))
    if batch_bytes > MAX_BATCH_BYTES:
        raise CapacityError(f"one Monte Carlo batch needs {batch_bytes} bytes "
                            f"of samples and states, over the supported maximum "
                            f"{MAX_BATCH_BYTES}; lower [mc] batch or "
                            f"[pce] output_points")
    # Moments of the samples minus trajectory 0's.  A merge subtracts batch
    # means; shifted, they are of the size of the spread rather than of the
    # mean, so a tight spread around a mean near +-1 keeps its digits.
    shift = None
    mean_dev = np.zeros(n_out)
    m2_obs = np.zeros(n_out)
    n_used = 0
    converged = False

    while n_used < config.n_traj and not converged:
        batch_n = min(config.batch, config.n_traj - n_used)
        batch_obs = np.empty((batch_n, n_out))
        for start in range(0, batch_n, BLOCK_SIZE):
            stop = min(start + BLOCK_SIZE, batch_n)
            engine.run_block(range(n_used + start, n_used + stop),
                             batch_obs[start:stop])

        if shift is None:
            shift = batch_obs[0].copy()
        deviations = np.subtract(batch_obs.T, shift[:, None], order="C")
        mean_dev, m2_obs = _merge_moments(mean_dev, m2_obs, n_used, deviations)
        n_used += batch_n

        if n_used >= 2:
            stderr = _stderr(m2_obs, n_used)
            converged = bool(np.max(stderr) <= config.stderr_target)

    return MCEnsemble(times=engine.t_grid[engine.record_idx],
                      obs_mean=shift + mean_dev,
                      stderr_obs=_stderr(m2_obs, n_used),
                      n_used=n_used, converged=converged)


def _merge_moments(mean: np.ndarray, m2: np.ndarray, n: int,
                   samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fold one batch into the running mean and sum of squared deviations
    m2 of the n samples before it, per output time.

    samples is (n_out, batch), one contiguous row per output time, and is
    overwritten.  The batch's own mean and m2 are two-pass pairwise sums
    along the rows, so a spread far below the mean loses no digits to
    cancellation, and the two sets are merged by Chan, Golub & LeVeque
    (Amer. Statist. 37, 1983).  The result depends only on the samples and
    the batch sizes.
    """
    n_batch = samples.shape[1]
    batch_mean = np.sum(samples, axis=1) / n_batch
    samples -= batch_mean[:, None]
    batch_m2 = np.sum(np.square(samples, out=samples), axis=1)
    total = n + n_batch
    delta = batch_mean - mean
    return (mean + delta * (n_batch / total),
            m2 + batch_m2 + delta**2 * (n * n_batch / total))


def _stderr(m2: np.ndarray, n: int) -> np.ndarray:
    return np.sqrt(m2 / (n - 1) / n)
