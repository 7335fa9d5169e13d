"""Line audit: every executable line of ``src/leavitt`` that neither the
tier-1 tests nor the demos run.

Run from anywhere with ``python tests/line_audit.py``.  The script traces
the frames of ``src/leavitt`` while it runs the tier-1 tests in this
process (through ``pytest.main``) and then each demo through ``runpy``,
prints every executable line that never ran, and exits 1 when one of them
is outside ``ALLOWED``.  Tracing starts before the package is imported, so
module-level lines count too.  Test outcomes do not change the exit code:
timing bounds can fail under the tracer, and the tier-1 run gates the tests.
"""

from __future__ import annotations

import contextlib
import dis
import io
import os
import runpy
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "leavitt"

# lines that only a new interpreter runs: the CLI's own argv and exit
ALLOWED = {
    ("cli.py", "argv = sys.argv[1:]"),
    ("cli.py", "sys.exit(main())"),
}


def executable_lines(path: Path) -> set[int]:
    """The lines that start an instruction in the file's code objects
    (line 0 holds a module's own entry, which no statement owns)."""
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return lines


def traced_run(prefix: str, run) -> dict[str, set[int]]:
    """Run ``run()`` and return the lines run per file under ``prefix``."""
    hit: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        hit.setdefault(filename, set())
        return local

    threading.settrace(call)
    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return hit


def run_everything() -> None:
    import pytest

    os.chdir(ROOT)
    code = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", "tests"])
    print(f"tier-1 under the tracer: pytest exit code {int(code)}")
    for demo in sorted((ROOT / "demos").glob("*.py")):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(demo), run_name="__main__")
        print(f"demo {demo.name} ran")


def main() -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    hit = traced_run(str(PACKAGE) + os.sep, run_everything)
    unrun = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        ran = hit.get(str(path), set())
        for line in sorted(executable_lines(path) - ran):
            unrun.append((path.name, line, source[line - 1].strip()))
    for name, line, text in unrun:
        mark = "allowed" if (name, text) in ALLOWED else "UNRUN"
        print(f"{mark} src/leavitt/{name}:{line}: {text}")
    outside = [u for u in unrun if (u[0], u[2]) not in ALLOWED]
    print(f"{len(unrun)} executable lines never ran, {len(outside)} outside the allowlist")
    return 1 if outside else 0


if __name__ == "__main__":
    sys.exit(main())
