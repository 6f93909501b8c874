"""README's Quick tour runs as written and shows the values it prints."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _literal(comment):
    """(value,) for a comment that opens with a Python literal, all of it or
    the part before a ", " that starts its prose; None for prose."""
    cuts = [len(comment)] + [m.start() for m in re.finditer(", ", comment)][::-1]
    for cut in cuts:
        try:
            return (ast.literal_eval(comment[:cut]),)
        except (ValueError, SyntaxError):
            pass
    return None


def test_quick_tour_comments_hold():
    """Each expression statement of the tour carries a `# value` comment,
    and its value equals that comment's literal."""
    text = README.read_text(encoding="utf-8")
    source = re.search(r"## Quick tour\n\n```python\n(.*?)```", text, re.S).group(1)
    lines = source.splitlines()
    scope = {}
    checked = 0
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), scope)
            continue
        comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        want = _literal(comment)
        assert want is not None, f"tour line {stmt.end_lineno} shows no value"
        got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), scope)
        assert got == want[0], f"tour line {stmt.end_lineno}: {got!r}, comment {comment!r}"
        checked += 1
    assert checked == 3
