import ast
import sys
from pathlib import Path

import policymap

SOURCES = sorted(Path(policymap.__file__).parent.glob("*.py"))


def _absolute_imports(tree: ast.AST):
    """(line, top-level module name) of each absolute import in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_runtime_imports_only_the_standard_library():
    # The runtime stays dependency-free: every absolute import in the
    # package names a standard-library module.
    assert len(SOURCES) > 1
    foreign = [
        f"{path.name}:{line}: {name}"
        for path in SOURCES
        for line, name in _absolute_imports(ast.parse(path.read_text(encoding="utf-8")))
        if name not in sys.stdlib_module_names
    ]
    assert foreign == []
