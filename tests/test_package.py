import inspect

import specgames as sg
from specgames import errors, experiments, learning, matrix_games, power_games, scenario, spectrum


def test_package_reexports_exactly_the_module_all_lists():
    modules = (errors, experiments, learning, matrix_games, power_games, scenario, spectrum)
    listed = set().union(*(module.__all__ for module in modules))
    exported = {name for name, value in vars(sg).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == listed
    for module in modules:
        for name in module.__all__:
            assert getattr(sg, name) is getattr(module, name), name
