"""Host-speed calibration for the end-to-end timings.

The benchmark runs on a few cores of a shared host, whose speed drifts by
up to ~40% as other tenants load it, over spans from a fraction of a second
to minutes.  The drift shows in CPU time as much as in wall time (the vCPU
is not descheduled; each instruction just takes longer), so raw command
times of the same code differ between two sets of runs by more than any
useful regression bound.

While a measurement runs, a SIGALRM timer interrupts it every INTERVAL_S of
wall time and times a short fixed kernel that does not touch stochpce.  The
kernel's speed, averaged over those samples, is the host's speed during the
measurement.  The measurement, less the time the samples took, is rescaled
to a host on which the kernel takes its reference time:

    scaled = (elapsed - sampling time) * mean(reference time / kernel time)

A program change moves the measured time and not the kernel, so it shows in
the scaled time in full; a host slow-down moves both and cancels.  Samples
are uniform in wall time, so the mean of the kernel's speed is the host's
mean speed over the measurement.  The handler runs in the main thread, on
the same CPU as the measured code, whenever the interpreter regains
control; interrupted system calls are retried by Python (PEP 475).

The drift slows some code more than other code, so the kernel has to look
like the measured code.  The commands spend their time dispatching NumPy
calls on tiny arrays (the hierarchy's batched 2 x 2 products, the Monte
Carlo stepper's per-step unitaries), and numpy_kernel() does the same; a
pure-Python loop (python_kernel) under-corrects them by about a third, but
is the only choice while set-up is still importing NumPy.
"""

import signal
import statistics
import time

INTERVAL_S = 0.1
# Reference times: each kernel's median on the host the baseline was
# measured on (2 vCPUs of an Intel Xeon, Python 3.11, NumPy 2.4, OpenBLAS at
# 1 thread) in its fast state.  Any constants would do; these keep the
# scaled figures close to that host's own seconds.
PYTHON_REFERENCE_S = 0.003
NUMPY_REFERENCE_S = 0.003


def python_kernel() -> int:
    total = 0
    for i in range(40000):
        total += i * i % 7
    return total


def numpy_kernel():
    """The NumPy kernel, built once its arrays exist."""
    import numpy as np

    rng = np.random.default_rng(0)
    batch = rng.standard_normal((64, 2, 2)) + 1j * rng.standard_normal((64, 2, 2))
    flat = batch.reshape(64, 4)
    mixing = rng.standard_normal((64, 64))
    energies = np.array([-1.0, 1.0])
    basis = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    basis_h = basis.conj().T
    rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)

    def kernel():
        for step in range(40):
            # batched products, as in the hierarchy's right-hand side
            mixed = np.zeros_like(flat)
            mixed += 0.5 * (mixing @ flat)
            mixed = mixed.reshape(64, 2, 2)
            mixed = -1j * (batch @ mixed - mixed @ batch)
            # a 2 x 2 step unitary, as in a Monte Carlo trajectory
            phase = np.exp(-1j * (0.01 * step) * energies)
            unitary = (basis * phase) @ basis_h
            rho_next = unitary @ rho @ unitary.conj().T
        return mixed, rho_next

    return kernel


class Sampler:
    """Times kernel() every INTERVAL_S of wall time while active."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.samples = []
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def timed(fn, kernel, reference_s: float):
    """Call fn() while sampling kernel.  Returns (fn's value, seconds it took
    less the sampling time, those seconds rescaled to the reference host
    speed or None when no sample fell inside)."""
    with Sampler(kernel) as sampler:
        start = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - start
    samples = sampler.samples
    own = elapsed - sum(samples)
    if not samples:
        return value, own, None
    return value, own, own * statistics.fmean(reference_s / s for s in samples)
