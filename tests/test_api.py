"""The package's public namespace."""
import stochpce


def test_all_names_resolve_once():
    """Every name in __all__ exists and is listed once, so a star-import
    gives exactly __all__."""
    names = stochpce.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(stochpce, name)]
    assert missing == []
    namespace = {}
    exec("from stochpce import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)
