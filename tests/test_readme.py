"""README's Quick tour runs as written and shows the values it prints, and
its descriptor and combination-map grammars are the ones from_provenance
and phi_from_str document."""

import ast
import inspect
import re
from pathlib import Path

from sqstar import from_provenance
from sqstar.patterns import phi_from_str

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


def test_descriptor_grammar_matches_from_provenance():
    """README's grammar block lists the descriptor forms of
    from_provenance's docstring, in its order."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"provenance strings that colorings record:\n\n((?:    .*\n)+)", text).group(1)
    readme = re.findall(r"^    (\S+)", block, re.M)
    code = re.findall(r"^    (\S+)", inspect.cleandoc(from_provenance.__doc__), re.M)
    assert readme == code
    assert [re.match("[a-z]+", form).group() for form in code] == [
        "random", "periodic", "periodic", "file"]


def test_phi_grammar_matches_phi_from_str():
    """README's combination-map block lists the forms of phi_from_str's
    docstring, in its order, and each is the printed form of one map."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"in the grammar\neach map prints:\n\n((?:    .*\n)+)", text).group(1)
    readme = re.findall(r"^    (\S+)", block, re.M)
    code = inspect.cleandoc(phi_from_str.__doc__).split("\n\n", 1)[1].split()
    assert readme == code
    assert code == ["proj:I", "sum", "product", "starfold", "linear:C1;...;Cm:K"]
