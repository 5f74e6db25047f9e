import importlib
import inspect

import pytest

import qgrape

MODULES = ["cli", "dynamics", "experiments", "fisher", "grape", "oracles"]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"qgrape.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_top_level_names_are_their_modules_exports():
    # re-running the package's imports fails on a name that left its module
    package = importlib.reload(qgrape)
    names = [n for n, v in vars(package).items() if not n.startswith("_") and not inspect.ismodule(v)]
    assert names
    for name in names:
        value = getattr(package, name)
        owner = importlib.import_module(value.__module__)
        assert name in owner.__all__ and getattr(owner, name) is value, name
