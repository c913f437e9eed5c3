import inspect
import re
from pathlib import Path

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


def test_readme_names_resolve_in_the_package():
    # every sg.<name> in a code block and every bare backticked `name(` call
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = "".join(re.findall(r"```.*?\n(.*?)```", readme, flags=re.S))
    names = set(re.findall(r"\bsg\.(\w+)", blocks)) | set(re.findall(r"`(\w+)\(", readme))
    assert names
    assert sorted(name for name in names if not hasattr(sg, name)) == []
