"""No module of the package or its tests imports a name it never uses.  No
linter is installed, so the check walks each module's syntax tree: every
name an import binds must be read somewhere in that module."""

import ast
import glob
import os

import pytest

TESTS = os.path.dirname(__file__)
PACKAGE = os.path.join(TESTS, "..", "src", "spikert")
MODULES = [pytest.param(p, id=os.path.basename(p))
           for p in sorted(glob.glob(os.path.join(PACKAGE, "*.py")))
           if os.path.basename(p) != "__init__.py"]
MODULES += [pytest.param(p, id="tests/" + os.path.basename(p))
            for p in sorted(glob.glob(os.path.join(TESTS, "*.py")))]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items())
            if name not in used]


def test_the_walker_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["line 1: os"]


@pytest.mark.parametrize("path", MODULES)
def test_module_uses_every_import(path):
    with open(path, encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []
