"""The README's Library snippet runs, and each value it documents is what it
returns."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _documented(lines: list[str], stmt: ast.stmt) -> str | None:
    """The comment after an expression: on its own last line, else the
    comment lines right below it, joined."""
    inline = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip()
    if inline.startswith("#"):
        return inline[1:]
    below = []
    for line in lines[stmt.end_lineno:]:
        if not line.startswith("#"):
            break
        below.append(line[1:])
    return " ".join(below) or None


def test_library_snippet_runs_as_documented():
    code = _library_block()
    lines = code.splitlines()
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(code).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
            expected = _documented(lines, stmt)
            assert expected is not None, ast.unparse(stmt)
            assert value == ast.literal_eval(expected.strip()), ast.unparse(stmt)
            checked.append(value)
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    family, _, passed = checked
    assert len(family) == 6
    assert passed is True
