"""List the executable lines of ``src/qsd`` that no test runs.

    python tools/linecov.py [pytest args]

Runs pytest in this process under a ``sys.settrace`` line tracer (also
set for threads started meanwhile) and prints, per module of
``src/qsd``, the executable lines that were never reached, as line
ranges, then a total.  A line counts as executable when an instruction
of some code object compiled from the module maps to it (``co_lines``),
so no coverage package is needed.  Only this interpreter is traced: the
tests that run ``qsd`` in a subprocess (``run_cli`` in
``tests/conftest.py``) count for nothing, and a line that only they
reach is listed.  This checkout's ``src`` goes first on ``sys.path`` and
on ``PYTHONPATH``, so those subprocesses still import its qsd.  Exits
with pytest's exit code.  Tier 1 took 62-68 s traced against 31-47 s
untraced on a 2-vCPU Xeon.  Pure-Python loops slow down the most, so a
test's runtime budget can fail under the tracer: criterion 7's 10 s did
in one of two traced runs.
"""

from __future__ import annotations

import collections
import os
import pathlib
import sys
import threading
import types

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qsd"


def executable_lines(path: pathlib.Path) -> set[int]:
    """Lines of path to which an instruction of one of its code objects maps."""
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        # a module's first instruction maps to line 0, which no event names
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return lines


def traced_run(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and the lines run per file of the package."""
    hits: dict[str, set[int]] = collections.defaultdict(set)
    keys: dict[str, str | None] = {}

    def key(filename: str) -> str | None:
        if filename not in keys:
            path = pathlib.Path(filename).resolve()
            keys[filename] = str(path) if path.parent == PACKAGE else None
        return keys[filename]

    def local(frame, event, arg):
        if event == "line":
            hits[key(frame.f_code.co_filename)].add(frame.f_lineno)
        return local

    def enter(frame, event, arg):
        # frames of other files are not traced line by line
        return local if key(frame.f_code.co_filename) else None

    # qsd from this checkout, here and in the subprocesses that tests start
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    import pytest

    threading.settrace(enter)
    sys.settrace(enter)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as comma-separated ranges, ``3-5, 9``."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv: list[str]) -> int:
    code, hits = traced_run(argv)
    total = missed_total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - hits.get(str(path.resolve()), set()))
        total += len(lines)
        missed_total += len(missed)
        if missed:
            print(f"{path.relative_to(ROOT)}: {ranges(missed)}")
    print(f"{missed_total} of {total} executable lines in {PACKAGE.relative_to(ROOT)} not run")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
