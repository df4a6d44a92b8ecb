"""Package-wide invariants of the source itself."""

import ast
from pathlib import Path

import onsager


def test_no_assert_statements_in_package():
    # Invariants are explicit checks, so `python -O` cannot change behaviour.
    offenders = []
    for path in sorted(Path(onsager.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert offenders == []
