"""Independent closed-form and quadrature oracles used by the test suite.

Everything here is implemented from first principles with numpy/scipy only —
no imports from the package under test — so agreement between the two is
meaningful evidence of correctness.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq
from scipy.signal import lfilter
from scipy.special import roots_hermitenorm


# ---------------------------------------------------------------------------
# Exponential-kernel (Ornstein-Uhlenbeck) Karhunen-Loeve eigenvalues
# ---------------------------------------------------------------------------

def ou_kle_eigenvalues(alpha: float, tau_c: float, tau: float,
                       n_modes: int) -> np.ndarray:
    """Leading KL eigenvalues of C(s,t) = alpha^2 exp(-|s-t|/tau_c) on [0, tau].

    Centering the interval to [-a, a] with a = tau/2 and c = 1/tau_c, the
    eigenfunctions split by parity.  Even modes cos(w t) satisfy
    c - w tan(w a) = 0; odd modes sin(w t) satisfy w + c tan(w a) = 0.  Every
    root w maps to the eigenvalue lambda = 2 c alpha^2 / (w^2 + c^2), which
    decreases with w, so sorting the merged roots ascending in w yields the
    eigenvalues in descending order.
    """
    c = 1.0 / tau_c
    a = 0.5 * tau
    roots: list[float] = []
    n_each = n_modes + 2  # a little slack before the merge

    def even_fn(w):
        return c - w * np.tan(w * a)

    def odd_fn(w):
        return w + c * np.tan(w * a)

    eps = 1e-12
    for k in range(n_each):
        lo = (k * np.pi) / a + eps
        hi = (k * np.pi + np.pi / 2.0) / a - eps
        roots.append(brentq(even_fn, lo, hi, xtol=1e-15, rtol=8.9e-16))
    for k in range(1, n_each + 1):
        lo = (k * np.pi - np.pi / 2.0) / a + eps
        hi = (k * np.pi) / a - eps
        roots.append(brentq(odd_fn, lo, hi, xtol=1e-15, rtol=8.9e-16))
    w = np.sort(np.array(roots))[:n_modes]
    return 2.0 * c * alpha**2 / (w**2 + c**2)


# ---------------------------------------------------------------------------
# Pure-dephasing closed form
# ---------------------------------------------------------------------------

def dephasing_coherence(alpha: float, tau_c: float, t) -> np.ndarray:
    """<sigma_x(t)> for H = Omega(t) sigma_z, OU noise, initial |+x>.

    The accumulated phase theta(t) = int_0^t Omega is Gaussian with
    Var[theta] = 2 alpha^2 tau_c [t - tau_c (1 - e^{-t/tau_c})], and
    E[cos(2 theta)] = exp(-2 Var[theta]).
    """
    t = np.asarray(t, dtype=float)
    var = 2.0 * alpha**2 * tau_c * (t - tau_c * (1.0 - np.exp(-t / tau_c)))
    return np.exp(-2.0 * var)


def dephasing_sx_variance(alpha: float, tau_c: float, t) -> np.ndarray:
    """Var[<sigma_x(t)>_Omega] across noise realizations, pure dephasing.

    With V = Var[theta(t)] as above, E[cos(k theta)] = exp(-k^2 V / 2), so
    Var[cos(2 theta)] = (1 + e^{-8V})/2 - e^{-4V}.
    """
    t = np.asarray(t, dtype=float)
    v = 2.0 * alpha**2 * tau_c * (t - tau_c * (1.0 - np.exp(-t / tau_c)))
    return 0.5 * (1.0 + np.exp(-8.0 * v)) - np.exp(-4.0 * v)


def dephasing_phase_variance_quadrature(alpha: float, tau_c: float,
                                        t: float, n: int = 2000) -> float:
    """Var[int_0^t Omega] by direct 2-D trapezoid quadrature of the kernel."""
    s = np.linspace(0.0, t, n)
    cov = alpha**2 * np.exp(-np.abs(s[:, None] - s[None, :]) / tau_c)
    w = np.full(n, t / (n - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    return float(w @ cov @ w)


# ---------------------------------------------------------------------------
# Static (frozen) noise: Rabi drive plus a Gaussian random detuning
# ---------------------------------------------------------------------------

def static_realization_sx(omega: float, t) -> np.ndarray:
    """<sigma_x(t)> for constant H = sigma_x + omega sigma_z, initial |+x>.

    Bloch precession about n = (1, 0, omega)/|h| with |h| = sqrt(1 + omega^2)
    at angular rate 2|h| gives
        <sigma_x(t)> = [1 + omega^2 cos(2 sqrt(1+omega^2) t)] / (1 + omega^2).
    """
    t = np.asarray(t, dtype=float)
    w2 = omega * omega
    return (1.0 + w2 * np.cos(2.0 * np.sqrt(1.0 + w2) * t)) / (1.0 + w2)


def static_ensemble_sx(a: float, t, n_nodes: int = 400) -> np.ndarray:
    """E_xi[<sigma_x(t)>] for H = sigma_x + a xi sigma_z, xi ~ N(0,1) frozen.

    Gauss-Hermite quadrature (physicists'-normalized via roots_hermitenorm)
    over the closed form of static_realization_sx.  This is the tau_c -> inf
    limit of the OU-driven model, with a drift that does not commute with
    the noise.
    """
    t = np.asarray(t, dtype=float)
    nodes, weights = roots_hermitenorm(n_nodes)
    weights = weights / weights.sum()
    w2 = (a * nodes) ** 2
    freq = 2.0 * np.sqrt(1.0 + w2)
    curves = (1.0 + w2[:, None] * np.cos(freq[:, None] * t[None, :])) / (
        1.0 + w2[:, None])
    return weights @ curves



# ---------------------------------------------------------------------------
# Exact Ornstein-Uhlenbeck path as a linear filter, one trajectory at a time
# ---------------------------------------------------------------------------

def ou_path_lfilter(alpha: float, tau_c: float, t_grid, rng) -> np.ndarray:
    """Exact stationary OU samples on a uniform grid of >= 2 points.

    Draws x0 = alpha z_0 and then the n-1 innovations alpha sqrt(1 - r^2) z_k
    from rng, and runs the AR(1) recursion x_{k+1} = r x_k + innovation_k,
    r = exp(-dt / tau_c), as scipy's lfilter with the stationary start as
    its state.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    dt = float(t_grid[1] - t_grid[0])
    x0 = alpha * rng.standard_normal()
    r = np.exp(-dt / tau_c)
    innovations = alpha * np.sqrt(1.0 - r * r) * rng.standard_normal(t_grid.size - 1)
    tail, _ = lfilter([1.0], [1.0, -r], innovations, zi=np.array([r * x0]))
    return np.concatenate(([x0], tail))


# ---------------------------------------------------------------------------
# Piecewise-exact unitary stepping, one trajectory at a time
# ---------------------------------------------------------------------------

def trajectory_states_loop(h0, v, t_grid, path, rho0, record_idx) -> np.ndarray:
    """Rotating-frame states of one noise path, stepped one (d, d) unitary at
    a time in the rotating frame itself, with no change of basis.

    Step k applies u_k = I + Q_k (exp(-i theta_k D) - 1) Q_k^dag, where D
    and Q are the eigenvalues and eigenvectors of v, Q_k = U0(t_mid_k)^dag Q
    with U0(t) = I + P (exp(-i E t) - 1) P^dag from eigh(h0) = (E, P), and
    theta_k = dt (path[k] + path[k+1]) / 2.  Both unitaries are written as
    I plus a correction so that the round-off in the eigenvectors'
    orthonormality scales the correction only, rather than every state once
    per step.  Returns the states at the grid indices record_idx.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    dt = float(t_grid[1] - t_grid[0])
    d = rho0.shape[0]
    eye = np.eye(d)
    v_eigvals, v_eigvecs = np.linalg.eigh(v)
    energies, states = np.linalg.eigh(h0)
    mids = 0.5 * (t_grid[:-1] + t_grid[1:])
    phases = np.exp(-1j * np.outer(mids, energies)) - 1.0
    u0_mid = eye + (states[None, :, :] * phases[:, None, :]) @ states.conj().T
    q_mid = u0_mid.conj().transpose(0, 2, 1) @ v_eigvecs
    q_mid_h = q_mid.conj().transpose(0, 2, 1)

    out = np.empty((record_idx.size, d, d), dtype=complex)
    record_pos = 0
    if record_idx[0] == 0:
        out[0] = rho0
        record_pos = 1
    rho = rho0
    omega_mid = 0.5 * (path[:-1] + path[1:])
    for k in range(path.size - 1):
        theta = omega_mid[k] * dt
        phase = np.exp(-1j * theta * v_eigvals) - 1.0
        u = eye + (q_mid[k] * phase) @ q_mid_h[k]
        rho = u @ rho @ u.conj().T
        if record_pos < record_idx.size and record_idx[record_pos] == k + 1:
            out[record_pos] = rho
            record_pos += 1
    return out

# ---------------------------------------------------------------------------
# PCE read-out, one record at a time
# ---------------------------------------------------------------------------

def pce_curve_loop(obs, coefficients) -> np.ndarray:
    """Rows (mean, variance, trace error, hermiticity error, min eigenvalue)
    of <obs> over the (N, d, d) chaos coefficients of each record, computed
    one record at a time.

    The mean state is phi_0, made Hermitian; the variance is
    sum_{m != 0} tr(obs phi_m)^2; the trace error is
    max_m |tr phi_m - delta_{m,0}| and the hermiticity error
    max_m ||phi_m - phi_m^dag||_F.
    """
    rows = []
    for coeffs in coefficients:
        rho = 0.5 * (coeffs[0] + coeffs[0].conj().T)
        values = np.einsum("ij,mji->m", obs, coeffs).real
        traces = np.einsum("...ii->...", coeffs)
        traces[0] -= 1.0
        dev = (coeffs - np.swapaxes(coeffs, -1, -2).conj()).reshape(len(coeffs), -1)
        flat = dev.view(float)
        rows.append((np.trace(obs @ rho).real,
                     np.sum(values[1:] ** 2),
                     np.max(np.abs(traces)),
                     np.max(np.sqrt(np.einsum("...i,...i->...", flat, flat))),
                     np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min()))
    return np.array(rows)


# ---------------------------------------------------------------------------
# Karhunen-Loeve mode quantities, one mode at a time
# ---------------------------------------------------------------------------

def transition_rate_loop(h0, v, tau: float, eigenvalue: float, values,
                         nodes, weights) -> float:
    """One mode's cumulative perturbative rate with h0 diagonalised for that
    mode alone: (1/tau) sum_jk |<j|v|k> sum_i w_i e^{i (E_j - E_k) t_i}
    sqrt(lambda) g(t_i)|^2 over the eigenbasis of eigh(h0)."""
    energies, states = np.linalg.eigh(h0)
    v_eig = states.conj().T @ v @ states
    gaps = energies[:, None] - energies[None, :]
    phases = np.exp(1j * gaps[:, :, None] * nodes[None, None, :])
    integrals = phases @ (weights * (np.sqrt(eigenvalue) * values))
    return float(np.sum(np.abs(v_eig) ** 2 * np.abs(integrals) ** 2) / tau)


def nystrom_row_loop(kernel, eigenvalue: float, values, nodes, weights,
                     times) -> np.ndarray:
    """sqrt(lambda) g(t) at the times from a kernel matrix built for this mode
    alone, with g(t) = (1/lambda) sum_k w_k C(t, t_k) g(t_k)."""
    lags = np.abs(np.asarray(times, dtype=float)[:, None] - nodes[None, :])
    return np.sqrt(eigenvalue) * (kernel.at_lag(lags) @ (weights * values)
                                  / eigenvalue)


# ---------------------------------------------------------------------------
# Galerkin hierarchy RHS as a per-coefficient commutator, and its RK4 loop
# ---------------------------------------------------------------------------

def galerkin_rhs_loop(h0, v_t, s_vec, coeffs, mode_matrices) -> np.ndarray:
    """-i [h0, phi_m] - i sum_n s_n [V, (M_n phi)_m] on (N, d, d)
    coefficients: each mode's coupling matrix mixes the flattened
    coefficients, then the commutators are taken coefficient by
    coefficient.  h0 = h0, V = v is the Schrodinger frame; h0 = 0 with
    V = U0(t)^dag v U0(t) is the h0 rotating frame."""
    n_basis, d = coeffs.shape[0], coeffs.shape[1]
    flat = coeffs.reshape(n_basis, d * d)
    mixed = np.zeros_like(flat)
    for s_n, matrix in zip(s_vec, mode_matrices):
        if s_n != 0.0:
            mixed += s_n * (matrix @ flat)
    mixed = mixed.reshape(n_basis, d, d)
    return -1j * ((h0 @ coeffs - coeffs @ h0) + (v_t @ mixed - mixed @ v_t))


def csr_accumulate_loop(matrix, x, out) -> np.ndarray:
    """out + matrix @ x for a CSR matrix, formed in place in out the way a
    row-wise kernel adds: out[i] += data[k] * x[indices[k]] for each entry k
    of row i, in stored order.  Rows advance together, one entry position
    at a time, so the loop runs over the longest row only."""
    lengths = np.diff(matrix.indptr)
    for position in range(int(lengths.max(initial=0))):
        rows = np.flatnonzero(lengths > position)
        entries = matrix.indptr[rows] + position
        out[rows] += matrix.data[entries, None] * x[matrix.indices[entries]]
    return out


def galerkin_rk4_loop(coeffs, t_grid, dt_max, h0, v_of_t, s_of_t,
                      mode_matrices) -> np.ndarray:
    """Classic RK4 over galerkin_rhs_loop with the hierarchy's step rule: per
    output interval, the fewest uniform steps no longer than dt_max.
    h0 is the drift, v_of_t(t) gives V(t) and s_of_t(t) the vector
    sqrt(lambda_n) g_n(t).  Returns the (d, d)-shaped coefficients at every
    t_grid point."""
    y = np.asarray(coeffs, dtype=complex)
    out = [y]
    for t0, t1 in zip(t_grid[:-1], t_grid[1:]):
        steps = max(1, int(math.ceil((t1 - t0) / dt_max - 1e-12)))
        h = (t1 - t0) / steps
        for j in range(steps):
            ta, tm, tb = t0 + j * h, t0 + (j + 0.5) * h, t0 + (j + 1) * h
            args = [(h0, v_of_t(t), s_of_t(t)) for t in (ta, tm, tb)]
            k1 = galerkin_rhs_loop(*args[0], y, mode_matrices)
            k2 = galerkin_rhs_loop(*args[1], y + (h / 2) * k1, mode_matrices)
            k3 = galerkin_rhs_loop(*args[1], y + (h / 2) * k2, mode_matrices)
            k4 = galerkin_rhs_loop(*args[2], y + h * k3, mode_matrices)
            y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(y)
    return np.array(out)


def gauss_hermite_collocation_rk4(rho0, p: int, h: float, h0, v,
                                  s_stage) -> np.ndarray:
    """Orthonormal Hermite coefficients phi_0..phi_p of a one-mode model
    from (p+1)-point Gauss-Hermite collocation.

    Each node xi_k carries its own state under
    d rho_k/dt = -i [h0 + s(t) xi_k v, rho_k], all starting from rho0,
    stepped by classic RK4 with step h; s_stage (2K+1,) holds s(t) on the
    half-step grid of the K steps.  The discrete projection
    phi_m = sum_k w_k psi_m(xi_k) rho_k, with psi_m from
    orthonormal_hermite, is exact for the products of degree <= 2p that
    occur.  The order-p Galerkin coupling matrix is the Jacobi matrix of
    the orthonormal Hermite polynomials, whose eigenvalues are these nodes
    (Golub & Welsch, Math. Comp. 23, 1969), so the order-p hierarchy
    stepped on the same stage grid must give the same coefficients to
    round-off.
    """
    nodes, weights = roots_hermitenorm(p + 1)
    weights = weights / weights.sum()
    rho = np.repeat(np.asarray(rho0, dtype=complex)[None], p + 1, axis=0)

    def rhs(i, r):
        ham = h0 + s_stage[i] * nodes[:, None, None] * v
        return -1j * (ham @ r - r @ ham)

    for j in range((len(s_stage) - 1) // 2):
        i0 = 2 * j
        k1 = rhs(i0, rho)
        k2 = rhs(i0 + 1, rho + (h / 2) * k1)
        k3 = rhs(i0 + 1, rho + (h / 2) * k2)
        k4 = rhs(i0 + 2, rho + h * k3)
        rho = rho + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    psi = orthonormal_hermite(p, nodes)
    return np.einsum("mk,k,kij->mij", psi, weights, rho)


class ConstantKernel:
    """C(lag) = a^2: one frozen Gaussian amplitude (rank-one covariance).

    The tau_c -> infinity limit of the OU kernel; its single KL mode is the
    constant function, so a solver driven by it must reproduce the static
    ensemble averages above exactly.
    """

    def __init__(self, a: float):
        self.a = float(a)

    def at_lag(self, lag):
        return np.full_like(np.asarray(lag, dtype=float), self.a**2)

    @property
    def variance(self) -> float:
        return self.a**2


# ---------------------------------------------------------------------------
# Hermite triple products for the Galerkin coupling weights
# ---------------------------------------------------------------------------

def orthonormal_hermite(p_max: int, xi) -> np.ndarray:
    """psi_a(xi) for a = 0..p_max, shape (p_max + 1, len(xi)), where
    psi_a = He_a / sqrt(a!) are the orthonormal Hermite polynomials.

    Evaluated by the orthonormal three-term recurrence
    psi_{a+1} = (xi psi_a - sqrt(a) psi_{a-1}) / sqrt(a+1), so no value
    carries a factorial and degrees far past 170 stay finite.
    """
    xi = np.asarray(xi, dtype=float)
    psi = np.empty((p_max + 1, xi.size))
    psi[0] = 1.0
    if p_max >= 1:
        psi[1] = xi
    for deg in range(1, p_max):
        psi[deg + 1] = ((xi * psi[deg] - math.sqrt(deg) * psi[deg - 1])
                        / math.sqrt(deg + 1))
    return psi


def hermite_moment_tables(p_max: int, n_nodes: int = 40):
    """Q0[a,b] = E[psi_a psi_b] and Q1[a,b] = E[psi_a xi psi_b] for the
    orthonormal Hermite polynomials psi_a = He_a / sqrt(a!).

    psi is evaluated at the Gauss-Hermite nodes by orthonormal_hermite, so
    every value and every table entry is O(1), and the quadrature is exact
    for the polynomial degrees involved (degree <= 2 p_max + 1
    << 2 n_nodes - 1).
    """
    nodes, weights = roots_hermitenorm(n_nodes)
    weights = weights / weights.sum()
    psi = orthonormal_hermite(p_max, nodes)
    q0 = (psi * weights) @ psi.T
    q1 = (psi * (weights * nodes)) @ psi.T
    return q0, q1


def coupling_weights(couplings) -> dict:
    """{(m_pos, n, l_pos): weight} for every stored entry of the per-mode
    coupling matrices, n 0-based; omitted pairs are zero weights."""
    out = {}
    for n, matrix in enumerate(couplings.mode_matrices):
        coo = matrix.tocoo()
        for m_pos, l_pos, weight in zip(coo.row, coo.col, coo.data):
            out[(int(m_pos), n, int(l_pos))] = float(weight)
    return out


def galerkin_weight_quadrature(m, mode_j: int, l, q0, q1) -> float:
    """E[psi_m xi_j psi_l] for multivariate orthonormal Hermite products
    psi_m = prod_i psi_{m_i}(xi_i), from the tables of hermite_moment_tables.

    Independence factorizes the expectation into one 1-D moment per
    variable: table[m_i, l_i], with q1 for variable j and q0 otherwise.
    """
    out = 1.0
    for j, (mj, lj) in enumerate(zip(m, l)):
        table = q1 if j == mode_j else q0
        out *= table[mj, lj]
    return float(out)


def weighted_norm(state) -> float:
    """sum_m ||phi_m||_F^2 = E ||rho(xi)||_F^2 of a PCEState, summed over its
    complex coefficients; propagate computes the same norm from its real
    traceless coordinates."""
    return float(np.sum(np.abs(state.coefficients) ** 2))
