"""List the statements of the package's functions that a run never reaches.

Usage, from the root of a checkout::

    python3 tools/line_reach.py requests epsdim decomp regress --seeds 1 2 3
    python3 tools/line_reach.py pytest -- -q tests/test_decomp.py

``requests`` runs every request that ``perfbench/workloads.py`` builds for
the given workloads and seeds through ``tensorsplit.cli.main`` in this
process, with one BLAS thread, by ``tools/artifact_digests.py``;
``pytest`` runs ``pytest.main`` on the remaining arguments.  Either run goes
under ``sys.settrace`` and ``threading.settrace``, recording each line of
``src/tensorsplit`` that executes.  Then every statement inside a function
of those files that never ran is printed as ``path:line``, relative to the
checkout, in file and line order.  A compound statement (``if``, ``for``,
``try``, ``with``, a nested ``def``) counts as run when its header or any
statement inside it ran; docstrings and ``global``/``nonlocal``
declarations are not statements that run.  Before a branch is deleted as
unreachable, run this over the benchmark requests and over the tests: a
line listed by both runs was reached by neither.

A run under a tracer is several times slower, and a test that installs its
own tracer (Hypothesis may, to explain a failure) hides the lines it runs.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tensorsplit"
WORKLOADS = ("epsdim", "decomp", "regress")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="mode", required=True)
    req = sub.add_parser("requests", help="run benchmark requests in this process")
    req.add_argument("workloads", nargs="+", choices=WORKLOADS)
    req.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    test = sub.add_parser("pytest", help="run pytest.main on the remaining arguments")
    test.add_argument("args", nargs=argparse.REMAINDER)
    return p.parse_args(argv)


def trace_lines(run) -> tuple[object, dict[str, set[int]]]:
    """``run()`` under the tracers: its result, and the executed lines of
    each file of ``SRC``, keyed by its real path."""
    ran = defaultdict(set)
    real = {}  # co_filename -> real path inside SRC, or "" outside it

    def local(frame, event, arg):
        if event == "line":
            ran[real[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def start(frame, event, arg):
        name = frame.f_code.co_filename
        path = real.get(name)
        if path is None:
            path = real[name] = os.path.realpath(name)
            if Path(path).parent != SRC:
                path = real[name] = ""
        return local if path else None

    threading.settrace(start)
    sys.settrace(start)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, ran


def _bodies(stmt) -> list[list]:
    """The statement lists nested in a compound statement."""
    out = [getattr(stmt, field) for field in ("body", "orelse", "finalbody")
           if isinstance(getattr(stmt, field, None), list)]
    out += [h.body for h in getattr(stmt, "handlers", ())]
    out += [c.body for c in getattr(stmt, "cases", ())]
    return [body for body in out if body and isinstance(body[0], ast.stmt)]


def _header(stmt) -> set[int]:
    """The lines that belong to the statement itself: all of a simple one,
    the decorators and the lines before the first nested statement of a
    compound one."""
    bodies = _bodies(stmt)
    end = min(body[0].lineno for body in bodies) if bodies else stmt.end_lineno + 1
    lines = set(range(stmt.lineno, max(end, stmt.lineno + 1)))
    lines.update(d.lineno for d in getattr(stmt, "decorator_list", ()))
    return lines


def _is_docstring(body: list, i: int, owner) -> bool:
    return (i == 0 and isinstance(owner, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str))


def _walk(body: list, owner, ran: set[int], in_function: bool, out: list[int]) -> bool:
    """Append to ``out`` the line of each statement of ``body`` (and below
    it) inside a function that never ran; True if any statement ran."""
    any_ran = False
    for i, stmt in enumerate(body):
        if _is_docstring(body, i, owner) or isinstance(stmt, (ast.Global, ast.Nonlocal)):
            continue
        inner = in_function or isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        below: list[int] = []
        child_ran = False
        for child in _bodies(stmt):
            child_ran |= _walk(child, stmt, ran, inner, below)
        reached = child_ran or bool(_header(stmt) & ran)
        if in_function and not reached:
            out.append(stmt.lineno)
        out.extend(below)
        any_ran |= reached
    return any_ran


def unreached(path: Path, ran: set[int]) -> list[int]:
    """The lines of the statements inside functions of ``path`` that are
    not in ``ran``, in order."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    out: list[int] = []
    _walk(tree.body, tree, ran, False, out)
    return sorted(out)


def _run_requests(workloads, seeds) -> int:
    """The requests as ``tools/artifact_digests.py`` runs them, its listing
    dropped; its exit code."""
    sys.path.insert(0, str(ROOT / "tools"))
    import artifact_digests

    with contextlib.redirect_stdout(io.StringIO()):
        return artifact_digests.main([*workloads, "--seeds", *map(str, seeds)])


def main(argv=None) -> int:
    args = _parse(argv)
    if args.mode == "requests":
        rc, ran = trace_lines(lambda: _run_requests(args.workloads, args.seeds))
        if rc:  # the package was not imported from this checkout
            return rc
    else:
        import pytest

        sys.path.insert(0, str(ROOT / "src"))
        pytest_args = args.args[1:] if args.args[:1] == ["--"] else args.args
        with contextlib.redirect_stdout(sys.stderr):  # the listing alone goes to stdout
            _, ran = trace_lines(lambda: pytest.main(pytest_args))
    for path in sorted(SRC.glob("*.py")):
        for line in unreached(path, ran.get(os.path.realpath(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
