"""Print the lines of the ``fracground`` package that the Tier-1 tests never run, as one JSON line.

    python tools/src_coverage.py

Runs ``pytest tests`` in this process with a line tracer on every thread
(``sys.settrace`` and ``threading.settrace``), so code run on the worker
threads of the split transforms counts too; code run in child processes, such
as the command-line entry point, does not.  The executable lines of each
``.py`` file under ``src/`` are those its compiled code objects map an
instruction to (``co_lines()``).  pytest's own output goes to standard
error; standard output is one JSON object: pytest's exit code, the number of
executable and of never-run lines, and the never-run lines keyed by
``<file>:<function>``.  Standard library only, besides pytest itself.
"""

import contextlib
import json
import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _code_objects(code: types.CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def executable_lines(path: Path) -> dict[int, str]:
    """Line number -> name of the innermost function (or ``<module>``) that owns it."""
    owner = {}
    for code in _code_objects(compile(path.read_text(encoding="utf-8"), str(path), "exec")):
        name = getattr(code, "co_qualname", code.co_name)
        # a nested code object comes after its parent, so the innermost owner wins
        for _, _, line in code.co_lines():
            if line is not None:
                owner[line] = name
    return owner


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with ``args`` under the tracer; return its exit code and the lines run per real path."""
    import pytest

    wanted = {os.path.realpath(p) for p in SRC.rglob("*.py")}
    run: dict[str, set[int]] = {path: set() for path in wanted}
    seen: dict[str, set[int] | None] = {}  # co_filename -> its set, None outside src/

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in seen:
            real = os.path.realpath(name)
            seen[name] = run[real] if real in wanted else None
        lines = seen[name]
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), run


def main() -> None:
    os.chdir(ROOT)
    code, run = run_traced(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    unrun: dict[str, list[int]] = {}
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        owner = executable_lines(path)
        total += len(owner)
        done = run[os.path.realpath(path)]
        for line in sorted(set(owner) - done):
            key = f"{path.relative_to(SRC).as_posix()}:{owner[line]}"
            unrun.setdefault(key, []).append(line)
    print(json.dumps({
        "pytest_exit": code,
        "executable_lines": total,
        "unrun_lines": sum(len(lines) for lines in unrun.values()),
        "unrun": unrun,
    }))


if __name__ == "__main__":
    main()
