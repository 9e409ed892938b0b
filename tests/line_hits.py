"""Run the test suite in-process and print, for each module under
src/hadlab, the executable lines that no test ran.

Lines are recorded with the standard library's ``sys.settrace``, so no
coverage package is needed.  The executable lines of a module are those
its compiled code objects map instructions to (``co_lines``).  Run it
from anywhere; extra arguments go to pytest in place of the default test
paths:

    python tests/line_hits.py
    python tests/line_hits.py tests/test_cli.py -k regularity

The whole suite takes a minute or two under the tracer.  Pytest does not
collect this file: its name does not start with ``test_``.
"""

import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hadlab"


def executable_lines(path: Path) -> set:
    """The line numbers that some code object of the module maps to."""
    out, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        out.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return out


def ranges(lines) -> str:
    """Sorted line numbers as comma-separated runs, e.g. 3-5, 9."""
    runs = []
    for x in sorted(lines):
        if runs and x == runs[-1][1] + 1:
            runs[-1][1] = x
        else:
            runs.append([x, x])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main(args) -> int:
    hits = {str(path): set() for path in sorted(SRC.glob("*.py"))}
    by_name = {}          # co_filename -> the hit set of its module, or None

    def local(frame, event, arg):
        if event == "line":
            by_name[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_name:
            by_name[name] = hits.get(os.path.realpath(name))
        return local if by_name[name] is not None else None

    paths = args or [str(ROOT / "tests"), str(ROOT / "perfbench")]
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "-c",
                            str(ROOT / "pyproject.toml"), "--rootdir", str(ROOT),
                            *paths])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = missed = 0
    for name, ran in hits.items():
        lines = executable_lines(Path(name))
        left = lines - ran
        total += len(lines)
        missed += len(left)
        print(f"{Path(name).name}: {len(left)} of {len(lines)} lines not run"
              + (f": {ranges(left)}" if left else ""))
    print(f"total: {missed} of {total} lines not run")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
