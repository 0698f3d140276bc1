"""Span tracing of one CLI command, from outside the program.

instrument() replaces the layer functions that stochpce.cli imports with
wrappers that record a span per call: name, layer, start, end, parent span
and run id.  Spans stay in memory; the launcher writes them out once, when
the benchmark ends.  layer_metrics() turns the spans of one traced command,
plus the arguments and results the wrappers kept, into the per-layer
metrics.  The program itself is not changed.
"""

import math
import time
from contextlib import contextmanager

# Names stochpce.cli imports, by layer (the repository's modules).
CLI_FUNCTIONS = {
    "config": ("load_config",),
    "kle": ("solve_fredholm", "cumulative_rates", "select_modes"),
    "hierarchy": ("enumerate_indices", "build_couplings", "initial_pce_state",
                  "propagate", "mean_state", "observable_variance",
                  "trace_error", "hermiticity_error", "min_eigenvalue"),
    "montecarlo": ("mc_average",),
    "operators": ("expectation",),
}
CONFIG_METHODS = ("build_model", "build_rho0", "build_observable")
LAYERS = ("config", "kle", "hierarchy", "montecarlo", "operators", "cli")
# Calls whose arguments and result the metrics need.
KEPT = ("build_model", "select_modes", "propagate", "mc_average")
OBSERVABLES = ("mean_state", "observable_variance", "trace_error",
               "hermiticity_error", "min_eigenvalue")


class Tracer:
    """Records spans of one process; kept calls feed layer_metrics."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.kept = {name: [] for name in KEPT}
        self._stack = []

    @contextmanager
    def span(self, name: str, layer: str):
        record = {"id": len(self.spans), "name": name, "layer": layer,
                  "parent": self._stack[-1] if self._stack else None,
                  "run_id": self.run_id, "start": None, "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, function, name: str, layer: str):
        def traced(*args, **kwargs):
            with self.span(name, layer):
                result = function(*args, **kwargs)
            if name in self.kept:
                self.kept[name].append((args, kwargs, result))
            return result
        return traced


@contextmanager
def instrument(tracer: Tracer):
    """Route every layer call stochpce.cli makes through tracer wrappers."""
    from stochpce import cli
    from stochpce.config import RunConfig

    saved = []
    for layer, names in CLI_FUNCTIONS.items():
        for name in names:
            saved.append((cli, name, getattr(cli, name)))
            setattr(cli, name, tracer.wrap(getattr(cli, name), name, layer))
    for name in CONFIG_METHODS:
        saved.append((RunConfig, name, getattr(RunConfig, name)))
        setattr(RunConfig, name, tracer.wrap(getattr(RunConfig, name), name, "config"))
    try:
        yield tracer
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    children = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        reach = span["start"]
        for child in sorted(children.get(span["id"], ()), key=lambda c: c["start"]):
            lo = max(child["start"], reach)
            hi = min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span["id"]] = (span["end"] - span["start"]) - covered
    return out


def layer_self_times(spans) -> dict:
    """Layer -> summed self time of its spans; every layer is present."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for span_id, seconds in self_times(spans).items():
        totals[spans[span_id]["layer"]] += seconds
    return totals


def _total(spans, names) -> float:
    return sum((s["end"] - s["start"] for s in spans if s["name"] in names), 0.0)


def rk4_steps(t_grid, dt_max) -> int:
    """hierarchy.propagate's step count: per output interval, the fewest
    uniform steps no longer than dt_max."""
    return sum(max(1, int(math.ceil((t1 - t0) / dt_max - 1e-12)))
               for t0, t1 in zip(t_grid[:-1], t_grid[1:]))


def mc_steps_per_trajectory(t_out, dt: float) -> int:
    """montecarlo's uniform step grid: a whole number of steps no longer than
    dt per output interval."""
    per_interval = max(1, int(math.ceil((t_out[1] - t_out[0]) / dt - 1e-12)))
    return per_interval * (len(t_out) - 1)


def rhs_cost(mode_matrices, d: int) -> tuple:
    """Computed (flops, bytes) of one hierarchy._rhs call, as that function is
    written: per mode a CSR matvec on the (N, d*d) coefficients, a scale and
    an accumulate; then the commutator's two batched (d, d) products, their
    difference and the -1j scaling.  Bytes count each NumPy operation reading
    its operands and writing its result once; flops count a complex multiply
    as 6, a complex add as 2 and a real-by-complex multiply as 2.  Cache
    reuse, temporaries and SciPy's dtype upcasts are not modelled.
    """
    n = mode_matrices[0].shape[0]
    block = 16 * n * d * d  # one complex (N, d, d) array
    flops = 0
    nbytes = block  # zeros_like(flat)
    for matrix in mode_matrices:
        flops += 4 * matrix.nnz * d * d + 2 * n * d * d + 2 * n * d * d
        nbytes += (matrix.data.nbytes + matrix.indices.nbytes
                   + matrix.indptr.nbytes + 7 * block)
    flops += 2 * 8 * n * d**3 + 2 * n * d * d + 6 * n * d * d
    nbytes += 10 * block
    return flops, nbytes


def layer_metrics(tracer: Tracer, spans) -> dict:
    """Per-layer metrics of one traced command; a layer or count the command
    never reached reads 0."""
    from stochpce.hierarchy import DEFAULT_SUBSTEP_FRACTION

    metrics = {
        "config.load_s": _total(spans, ("load_config",) + CONFIG_METHODS),
        "kle.fredholm_s": _total(spans, ("solve_fredholm",)),
        "kle.rates_s": _total(spans, ("cumulative_rates",)),
        "kle.variance_captured": 0.0,
        "hierarchy.couplings_s": _total(spans, ("enumerate_indices",
                                                "build_couplings")),
        "hierarchy.propagate_s": _total(spans, ("propagate",)),
        "hierarchy.observables_s": _total(spans, OBSERVABLES),
        "hierarchy.n_equations": 0, "hierarchy.rk4_steps": 0,
        "hierarchy.rhs_evals": 0, "hierarchy.us_per_rhs": 0.0,
        "hierarchy.eq_steps_per_s": 0.0, "hierarchy.rhs_flops": 0,
        "hierarchy.rhs_bytes": 0, "hierarchy.state_bytes": 0,
        "montecarlo.mc_average_s": _total(spans, ("mc_average",)),
        "montecarlo.us_per_traj_step": 0.0, "montecarlo.n_traj": 0,
        "montecarlo.batches": 0, "montecarlo.traj_steps": 0,
    }
    for layer, seconds in layer_self_times(spans).items():
        metrics[f"{layer}.self_s"] = seconds

    for _, _, kle in tracer.kept["select_modes"]:
        model = tracer.kept["build_model"][0][2]
        captured = sum(mode.eigenvalue for mode in kle.modes)
        metrics["kle.variance_captured"] = captured / (
            model.kernel.variance * model.horizon)

    for args, kwargs, states in tracer.kept["propagate"]:
        state, model, _, couplings, t_grid = args[:5]
        dt_max = kwargs.get("dt_max")
        if dt_max is None:
            dt_max = model.horizon / DEFAULT_SUBSTEP_FRACTION
        steps = rk4_steps(list(t_grid), dt_max)
        metrics["hierarchy.n_equations"] = state.basis.size
        metrics["hierarchy.rk4_steps"] += steps
        metrics["hierarchy.rhs_evals"] += 4 * steps
        metrics["hierarchy.state_bytes"] += sum(s.coefficients.nbytes
                                                for s in states)
        flops, nbytes = rhs_cost(couplings.mode_matrices, state.dim)
        metrics["hierarchy.rhs_flops"] = flops
        metrics["hierarchy.rhs_bytes"] = nbytes
    propagate_s = metrics["hierarchy.propagate_s"]
    if metrics["hierarchy.rhs_evals"]:
        metrics["hierarchy.us_per_rhs"] = (
            1e6 * propagate_s / metrics["hierarchy.rhs_evals"])
        metrics["hierarchy.eq_steps_per_s"] = (
            metrics["hierarchy.n_equations"] * metrics["hierarchy.rk4_steps"]
            / propagate_s)

    for args, _, ensemble in tracer.kept["mc_average"]:
        mc_config, t_out = args[2], list(args[3])
        metrics["montecarlo.n_traj"] += ensemble.n_used
        metrics["montecarlo.batches"] += math.ceil(ensemble.n_used / mc_config.batch)
        metrics["montecarlo.traj_steps"] += (
            ensemble.n_used * mc_steps_per_trajectory(t_out, mc_config.dt))
    if metrics["montecarlo.traj_steps"]:
        metrics["montecarlo.us_per_traj_step"] = (
            1e6 * metrics["montecarlo.mc_average_s"]
            / metrics["montecarlo.traj_steps"])
    return metrics


def probe_metrics(config, model) -> dict:
    """Standalone per-call costs, measured the same way on every workload.

    montecarlo.sample_path_us times the public sample_ou_path on the MC step
    grid of the run file (597 steps for every workload here) and
    operators.frame_rotation_us times rotating_frame_potential, the U0(t)
    frame rotation, on the output grid.  Each is the median over blocks.
    """
    import numpy as np
    from stochpce.montecarlo import sample_ou_path
    from stochpce.operators import rotating_frame_potential

    t_out = config.output_times()
    steps = mc_steps_per_trajectory(list(t_out), config.mc.dt)
    grid = np.linspace(0.0, config.model.tau, steps + 1)
    rng = np.random.Generator(np.random.Philox(key=[config.mc.seed, 0]))

    def sample_block():
        for _ in range(200):
            sample_ou_path(model.kernel, grid, rng)
        return 200

    def rotation_block():
        for t in t_out:
            rotating_frame_potential(model, float(t))
        return t_out.size

    return {"montecarlo.sample_path_us": _median_block_us(sample_block),
            "operators.frame_rotation_us": _median_block_us(rotation_block)}


def _median_block_us(block, blocks: int = 7) -> float:
    per_call = []
    for _ in range(blocks):
        start = time.perf_counter()
        calls = block()
        per_call.append(1e6 * (time.perf_counter() - start) / calls)
    per_call.sort()
    return per_call[blocks // 2]
