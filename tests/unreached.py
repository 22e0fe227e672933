"""Lines and branches of ``src/`` that the tier-1 tests never take.

Run from anywhere as ``python tests/unreached.py [pytest args]``.  It runs
the tier-1 suite in this process under ``sys.settrace`` and then prints,
one per line and sorted by file and line:

    src/indicial/frames.py:105: if test only went false: if first.dim != second.dim:
    src/indicial/frames.py:106: line never ran: raise ShapeError(...)

A line counts as never run when a code object compiled from its file lists
it (``co_lines``) but no line event reached it.  An ``if`` or ``while`` test
went one way when, in every frame that evaluated it, control left its lines
only into its body (true) or only elsewhere (false: the ``else`` branch, the
next statement, or a return from the frame).  A step after an exception in
the frame is not counted as either way.

Only the standard library traces; pytest runs the suite.  The run happens
in a temporary directory with bytecode writing, the pytest cache and the
Hypothesis database switched off or kept there, so the checkout is left as
it was.  Tests that start a new interpreter (``python -m indicial``) are not
traced inside that interpreter, so ``__main__.py`` and the CLI's ``main``
show up as never run.  The exit status is pytest's.
"""

from __future__ import annotations

import ast
import os
import sys
import tempfile
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _sources() -> dict[str, str]:
    return {str(p): p.read_text() for p in sorted(SRC.rglob("*.py"))}


def _code_lines(code) -> set[int]:
    """Every line that ``code`` or a code object nested in it lists."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


class Trace:
    """Line events and per-frame line-to-line steps in the traced files; a
    step to 0 is a return from the frame."""

    def __init__(self, files) -> None:
        self.files = set(files)
        self.lines: dict[str, set[int]] = defaultdict(set)
        self.steps: dict[str, set[tuple[int, int]]] = defaultdict(set)

    def __call__(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in self.files:
            return None
        lines = self.lines[filename]
        steps = self.steps[filename]
        prev = None

        def local(frame, event, arg):
            nonlocal prev
            if event == "line":
                line = frame.f_lineno
                lines.add(line)
                if prev is not None:
                    steps.add((prev, line))
                prev = line
            elif event == "exception":
                prev = None
            elif event == "return" and prev is not None:
                steps.add((prev, 0))
                prev = None
            return local

        return local


def _one_way_tests(tree: ast.AST, steps: set[tuple[int, int]]):
    """``(line, message)`` for each ``if``/``while`` test that frames left in
    one direction only."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.If, ast.While)):
            continue
        test = range(node.test.lineno, node.test.end_lineno + 1)
        body = range(node.body[0].lineno, node.body[-1].end_lineno + 1)
        outcomes = {b in body for a, b in steps if a in test and b not in test}
        if len(outcomes) == 1:
            kind = "while" if isinstance(node, ast.While) else "if"
            yield node.lineno, f"{kind} test only went {'true' if outcomes.pop() else 'false'}"


def report(sources: dict[str, str], trace: Trace) -> list[str]:
    out = []
    for filename, text in sources.items():
        rel = os.path.relpath(filename, ROOT)
        text_lines = text.splitlines()
        missing = _code_lines(compile(text, filename, "exec")) - trace.lines[filename]
        found = [(line, "line never ran") for line in missing]
        found += _one_way_tests(ast.parse(text), trace.steps[filename])
        for line, what in sorted(found):
            out.append(f"{rel}:{line}: {what}: {text_lines[line - 1].strip()}")
    return out


def main(argv: list[str]) -> int:
    sources = _sources()
    trace = Trace(sources)
    with tempfile.TemporaryDirectory() as scratch:
        # set before pytest and Hypothesis are imported: Hypothesis fixes its
        # default database directory from the working directory at import
        os.chdir(scratch)
        os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = os.path.join(scratch, ".hypothesis")
        os.environ["PYTHONDONTWRITEBYTECODE"] = "1"  # also for child interpreters
        sys.dont_write_bytecode = True
        sys.path.insert(0, str(SRC))
        import pytest

        threading.settrace(trace)
        sys.settrace(trace)
        try:
            code = pytest.main(
                ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                 "--rootdir", str(ROOT), str(ROOT / "tests"), *argv]
            )
        finally:
            sys.settrace(None)
            threading.settrace(None)
            os.chdir(ROOT)
    lines = report(sources, trace)
    print(f"\n{len(lines)} unreached lines and one-way tests in src/")
    for line in lines:
        print(line)
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
