"""The README's "Library quickstart" block runs and prints what it says."""

import ast
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def _quickstart():
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quickstart_values_match_their_comments():
    # a line "CODE  # VALUE" claims that CODE's value (for an assignment,
    # the assigned name's) is the literal VALUE, or prints as VALUE; a gloss
    # after ", i.e." is prose
    ns = {}
    checked = 0
    for line in _quickstart().splitlines():
        code, _, comment = line.partition("#")
        if not code.strip():
            continue
        stmt = ast.parse(code).body[0]
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "<README>", "eval"), ns)
        else:
            exec(compile(ast.Module([stmt], []), "<README>", "exec"), ns)
            value = ns[stmt.targets[0].id] if isinstance(stmt, ast.Assign) else None
        if not comment:
            continue
        text = comment.split(", i.e.", 1)[0].strip()
        try:
            expected = ast.literal_eval(text)
        except (ValueError, SyntaxError):
            assert str(value) == text, line
        else:
            assert value == expected and type(value) is type(expected), line
        checked += 1
    assert checked == 8
