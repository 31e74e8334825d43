"""Package structure: each public name is listed once, in its module's
``__all__``, appears in the README, a demo or the docs, and no module
reaches into a sibling's private names."""

import ast
import re
from pathlib import Path

import hsicaps
from hsicaps import data, layers, metrics, training

LIBRARY_MODULES = (data, layers, metrics, training)
ROOT = Path(__file__).resolve().parents[1]


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


def test_every_exported_name_appears_in_the_readme_demos_or_docs():
    paths = [ROOT / "README.md", *(ROOT / "demos").glob("*.py"), *(ROOT / "docs").glob("*.md")]
    text = "\n".join(path.read_text() for path in paths)
    assert [name for name in hsicaps.__all__ if not re.search(rf"\b{name}\b", text)] == []
