"""No ``assert`` statement in ``src/``: runtime checks survive ``python -O``.

``python -O`` strips every ``assert``, so a check written as one silently
stops running there.  Checks in the package raise real errors instead;
this walks every module's syntax tree to keep it that way.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_src_has_no_assert_statement():
    modules = sorted(SRC.rglob("*.py"))
    assert modules, f"no modules found under {SRC}"
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/: {found}"
