import ast
import pathlib

import logzeta

SRC = pathlib.Path(logzeta.__file__).parent


def test_no_assert_statements():
    # library invariants must still be checked under python -O
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
