"""Package structure: each public name is listed once, in its module's
``__all__``, and no module reaches into a sibling's private names."""

import ast
from pathlib import Path

import hsicaps
from hsicaps import data, layers, metrics, numerics, training

LIBRARY_MODULES = (data, layers, metrics, numerics, training)


def test_no_module_imports_a_private_name_from_a_sibling():
    private = []
    for path in sorted(Path(hsicaps.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level or (node.module or "").split(".")[0] == "hsicaps":
                private += [
                    f"{path.name}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert private == []


def test_package_exports_the_library_modules_names_once():
    expected = [name for module in LIBRARY_MODULES for name in module.__all__]
    assert hsicaps.__all__ == expected
    assert len(set(expected)) == len(expected)
    for module in LIBRARY_MODULES:
        for name in module.__all__:
            assert getattr(hsicaps, name) is getattr(module, name), name
