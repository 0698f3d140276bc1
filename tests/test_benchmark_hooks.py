"""What the traced benchmark run (perfbench/spans.py) needs from the package.

The benchmark wraps names that stochpce.cli imports, times the PCE read-out
as the calls to its OBSERVABLES names, reads the coupling matrices
propagate is given and counts 4 hierarchy._rhs calls per RK4 step, and
its set-up loads each workload's run file, and every stochpce name a
perfbench module imports must exist; a refactor that breaks any of these
would break the benchmark without failing any other test.  This only
reads perfbench/.
"""
import ast
import glob
import importlib
import importlib.util
import os

import numpy as np
from scipy import sparse

from stochpce import (
    IDENTITY,
    SIGMA_X,
    SIGMA_Z,
    OrnsteinUhlenbeckKernel,
    StochasticModel,
    build_couplings,
    cli,
    enumerate_indices,
    hierarchy,
    initial_pce_state,
    propagate,
)
from stochpce.config import RunConfig, load_config
from stochpce.kle import select_modes, solve_fredholm

RUN_FILE = """\
[model]
h0 = sx
v = sz
tau = 1.0

[noise]
alpha = 0.4
tau_c = 10.0

[kle]
grid_size = 80
candidate_modes = 6
s = 2

[pce]
p = 3
dt_max = 0.002
output_points = 41
"""

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def load_perfbench(name):
    path = os.path.join(PERFBENCH, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_spans():
    return load_perfbench("spans")


def test_workload_run_files_load(tmp_path):
    """Each workload's run file parses and builds its model, initial state
    and observable, as the benchmark worker's set-up and the CLI do."""
    workloads = load_perfbench("workloads")
    for name in workloads.WORKLOADS:
        config = load_config(workloads.write_config(name, str(tmp_path)))
        config.build_model()
        config.build_rho0()
        config.build_observable()


def test_perfbench_imports_resolve():
    """Every `import stochpce...` and `from stochpce... import name` in
    perfbench/*.py, at module level or inside a function, names a module
    or an attribute that exists."""
    missing, found = [], 0
    for path in sorted(glob.glob(os.path.join(PERFBENCH, "*.py"))):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                pairs = [(alias.name, None) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                pairs = [(node.module, alias.name) for alias in node.names]
            else:
                continue
            for module_name, name in pairs:
                if module_name.split(".")[0] != "stochpce":
                    continue
                found += 1
                module = importlib.import_module(module_name)
                if name is None or hasattr(module, name):
                    continue
                try:
                    importlib.import_module(f"{module_name}.{name}")
                except ImportError:
                    missing.append(f"{os.path.basename(path)}: "
                                   f"from {module_name} import {name}")
    assert found > 0
    assert missing == []


def test_traced_names_exist():
    spans = load_spans()
    missing = [name for names in spans.CLI_FUNCTIONS.values() for name in names
               if not hasattr(cli, name)]
    assert missing == []
    assert all(hasattr(RunConfig, name) for name in spans.CONFIG_METHODS)


def test_mode_matrices_are_csr():
    spans = load_spans()
    couplings = build_couplings(enumerate_indices(3, 4))
    assert all(isinstance(matrix, sparse.csr_matrix)
               for matrix in couplings.mode_matrices)
    flops, nbytes = spans.rhs_cost(couplings.mode_matrices, 2)
    assert flops > 0 and nbytes > 0


def test_propagate_makes_four_rhs_calls_per_rk4_step(monkeypatch):
    """BLOCK_SIZE + 3 intervals of 1/32 at dt_max 1/80 take 3 steps each."""
    model = StochasticModel(h0=SIGMA_X, v=SIGMA_Z,
                            kernel=OrnsteinUhlenbeckKernel(1.0, 1.0), horizon=1.0)
    kle = select_modes(solve_fredholm(model.kernel, 1.0, 50, 2), [2.0, 1.0], 2)
    basis = enumerate_indices(2, 2)
    n_intervals = hierarchy.BLOCK_SIZE + 3
    t_grid = np.arange(n_intervals + 1) / 32
    calls = []
    original = hierarchy._rhs

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(hierarchy, "_rhs", counting)
    propagate(initial_pce_state(0.5 * (IDENTITY + SIGMA_X), basis), model, kle,
              build_couplings(basis), t_grid, dt_max=1 / 80)
    assert load_spans().rk4_steps(list(t_grid), 1 / 80) == 3 * n_intervals
    assert len(calls) == 4 * 3 * n_intervals


def test_pce_fig2_step_and_rhs_counts(tmp_path, monkeypatch):
    """The pce_fig2 workload integrates 2189 RK4 steps (its 200 intervals of
    0.005 take 10 or 11 steps of at most 0.0005) with 8756 _rhs calls, as
    spans.rk4_steps counts them; a change to the step count then shows as
    a change in work, not as a speed-up."""
    spans, workloads = load_spans(), load_perfbench("workloads")
    path = workloads.write_config("pce_fig2", str(tmp_path))
    config = load_config(path)
    assert spans.rk4_steps(list(config.output_times()), config.pce.dt_max) == 2189
    calls = []
    original = hierarchy._rhs

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(hierarchy, "_rhs", counting)
    argv = workloads.cli_argv("pce_fig2", path, str(tmp_path / "out"), 1)
    assert cli.main(argv) == 0
    assert len(calls) == 8756


def test_pce_read_out_calls_each_observable_once(tmp_path):
    """One pce command reads its curve out with one call per OBSERVABLES
    name, all records at once, and the traced run times those calls as
    hierarchy.observables_s."""
    spans = load_spans()
    config = tmp_path / "run.ini"
    config.write_text(RUN_FILE)
    tracer = spans.Tracer("hooks")
    with spans.instrument(tracer), tracer.span("cli.main", "cli"):
        assert cli.main(["pce", "--config", str(config),
                         "--out", str(tmp_path / "out")]) == 0
    names = [span["name"] for span in tracer.spans]
    assert {name: names.count(name) for name in spans.OBSERVABLES} == \
        dict.fromkeys(spans.OBSERVABLES, 1)
    assert spans.layer_metrics(tracer, tracer.spans)["hierarchy.observables_s"] > 0
