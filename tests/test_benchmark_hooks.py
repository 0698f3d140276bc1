"""What the traced benchmark run (perfbench/spans.py) needs from the package.

The benchmark wraps names that stochpce.cli imports and reads the coupling
matrices propagate is given; a refactor that drops either would break the
traced run without failing any other test.  This only reads perfbench/.
"""
import importlib.util
import os

from scipy import sparse

from stochpce import build_couplings, cli, enumerate_indices
from stochpce.config import RunConfig

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
