"""Package-wide invariants of the source itself."""

import ast
from pathlib import Path

import onsager


def _package_nodes():
    for path in sorted(Path(onsager.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path.name, node


def test_no_assert_statements_in_package():
    # Invariants are explicit checks, so `python -O` cannot change behaviour.
    offenders = [f"{name}:{node.lineno}" for name, node in _package_nodes() if isinstance(node, ast.Assert)]
    assert offenders == []


def _callee(node):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def test_every_cache_is_bounded():
    # Work is bounded: every cache names an integer maxsize, so neither
    # lru_cache(maxsize=None), a bare lru_cache nor functools.cache passes.
    nodes = list(_package_nodes())
    bounded = set()
    for _, node in nodes:
        if isinstance(node, ast.Call) and _callee(node.func) == "lru_cache":
            size = next((k.value for k in node.keywords if k.arg == "maxsize"), node.args[0] if node.args else None)
            if isinstance(size, ast.Constant) and type(size.value) is int:
                bounded.add(id(node.func))
    offenders = [f"{name}:{node.lineno}" for name, node in nodes
                 if _callee(node) in ("cache", "lru_cache") and id(node) not in bounded]
    assert offenders == []
