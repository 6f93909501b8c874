"""List the executable lines of src/sqstar/*.py that no tier-1 test runs.

Runs the tier-1 suite in-process under sys.settrace and prints each
executable line that never ran, as `module:line source`, one per line,
in module and line order.  Executable lines are the line numbers of the
modules' compiled bytecode.  Extra arguments go to pytest, e.g. a test
path to trace only part of the suite:

    python tools/untraced_lines.py
    python tools/untraced_lines.py tests/test_cli.py

Standard library only, plus pytest itself.  The suite's own output goes
to stderr.  The script reports lines, not the suite's verdict: the tracer
allocates, so an allocation bound such as
test_scalar_query_allocates_almost_nothing[rank] may fail under it while
it passes untraced.  A full run takes about a minute on 2 cores.
"""

from __future__ import annotations

import contextlib
import os
import sys
import threading

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
PACKAGE = os.path.join(REPO, "src", "sqstar")


def executable_lines(path: str) -> set:
    """The line numbers of every instruction in the module's code objects."""
    with open(path, encoding="utf-8") as fh:
        todo = [compile(fh.read(), path, "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list) -> int:
    modules = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))
    ran = {os.path.join(PACKAGE, f): set() for f in modules}
    mine = {}  # co_filename -> its line tracer, or False outside the package

    def tracer(lines: set):
        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in mine:
            lines = ran.get(os.path.realpath(name))
            mine[name] = lines is not None and tracer(lines)
        local = mine[name]  # the call event counts too: a def line has no other
        return local(frame, event, arg) if local else None

    os.chdir(REPO)
    with contextlib.redirect_stdout(sys.stderr):
        threading.settrace(call)
        sys.settrace(call)
        try:
            pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", *argv])
        finally:
            sys.settrace(None)
            threading.settrace(None)
    for module in modules:
        path = os.path.join(PACKAGE, module)
        with open(path, encoding="utf-8") as fh:
            source = fh.read().splitlines()
        for line in sorted(executable_lines(path) - ran[path]):
            print(f"{module[:-3]}:{line} {source[line - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
