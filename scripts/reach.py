"""List the statements of ``src/bdld`` that the README commands and the benchmark never reach.

    python3 scripts/reach.py [REPO]

REPO is the checkout traced (default: the one holding this script).  The
script runs every command of REPO's README "Command line" block, as
``scripts/readme_outputs.py`` does, in a temporary directory, and then
``benchmarks/run.py --workload W --seed S --seconds 2 --trace 0`` from
REPO's root for each workload of REPO's ``BENCHMARK.json`` and seeds 1 and
2.  Every Python process these start, the benchmark's set-up children
included, imports a ``sitecustomize.py`` written to a temporary directory
put first on ``PYTHONPATH``: it installs a ``sys.settrace`` hook (and
``threading.settrace``, for the sampler's drawer thread) that records the
lines run in REPO's ``src/bdld`` and writes them there at exit.

A statement is reached when one of its own lines ran: a simple statement's
lines, or a compound one's header (decorators to the line before its
body).  Statements without bytecode, such as docstrings, are not counted.
The unreached ones are printed by file, outermost first; the statements
inside an unreached one are not listed, and a function whose definition
ran but whose body did not is listed once, as never called.  Each
command's exit code and wall time go to standard error.  Tracing slows the
runs several times over; the benchmark's op count depends on ``--seconds``
alone, so its work is that of an untraced 2-second run.

The script writes nothing in REPO but the benchmark's ``.bench_out/``, and
touches nothing under ``benchmarks/``.
"""

from __future__ import annotations

import ast
import json
import os
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from readme_outputs import readme_commands, write_path_csv

SEEDS = (1, 2)
SECONDS = 2

# The body of the sitecustomize.py every traced process imports, after the
# lines that set _SRC (the traced package's directory) and _OUT.
_HOOK = """
import atexit, os, sys, threading

_ran = set()   # (file, line) of each line run
_left = {}     # code object -> its lines not run yet; tracing stops at none


def _global(frame, event, arg):
    code = frame.f_code
    if not code.co_filename.startswith(_SRC):
        return None
    left = _left.get(code)
    if left is None:
        left = _left[code] = {line for _, _, line in code.co_lines() if line is not None}
    if not left:
        return None
    name = code.co_filename

    def local(frame, event, arg):
        if event == "line":
            _ran.add((name, frame.f_lineno))
            left.discard(frame.f_lineno)
        return local if left else None
    return local


def _write():
    with open(os.path.join(_OUT, f"reach-{os.getpid()}.txt"), "w") as fh:
        fh.writelines(f"{name}:{line}\\n" for name, line in _ran)


atexit.register(_write)
sys.settrace(_global)
threading.settrace(_global)
"""


def _hook(src: Path, out: Path) -> str:
    return f"_SRC = {str(src) + os.sep!r}\n_OUT = {str(out)!r}\n" + _HOOK


def _executable_lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _executable_lines(const)
    return lines


def _own_lines(node: ast.stmt) -> range:
    """The lines that belong to node itself: all of a simple statement's, a
    compound one's from its decorators to the line before its body."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(first, max(body[0].lineno, node.lineno + 1))
    return range(first, node.end_lineno + 1)


def _children(node: ast.stmt) -> list[ast.stmt]:
    kids = []
    for name in ("body", "orelse", "finalbody", "handlers", "cases"):
        for child in getattr(node, name, None) or []:
            kids.extend(child.body if isinstance(child, (ast.ExceptHandler, ast.match_case))
                        else [child])
    return kids


def unreached(path: Path, ran: set[int]) -> list[tuple[int, str]]:
    """(line, note) of each outermost statement of path that has bytecode
    and never ran."""
    source = path.read_text()
    executable = _executable_lines(compile(source, str(path), "exec"))
    text = source.splitlines()
    found = []

    def has(node, lines):
        return any(line in lines for line in _own_lines(node))

    def visit(nodes):
        for node in nodes:
            kids, head = _children(node), text[node.lineno - 1].strip()
            if has(node, executable) and not has(node, ran):
                found.append((node.lineno, head))
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and has(node, ran) and not any(has(kid, ran) for kid in kids)):
                found.append((node.lineno, f"{head}  (never called)"))
            else:  # reached, or a header without bytecode (try:): judge its body
                visit(kids)

    visit(ast.parse(source).body)
    return found


def trace(package: Path, runs: list[tuple[list[str], Path]]) -> dict[str, set[int]]:
    """Run each (argv, cwd) of runs with the hook on and package's parent on
    PYTHONPATH; return the lines of package's files that ran, by file."""
    with tempfile.TemporaryDirectory() as tmp:
        hook, out = Path(tmp, "hook"), Path(tmp, "out")
        hook.mkdir()
        out.mkdir()
        (hook / "sitecustomize.py").write_text(_hook(package, out))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(hook), str(package.parent)])}
        env.pop("BDLD_OUT", None)
        for argv, cwd in runs:
            t0 = time.perf_counter()
            done = subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL)
            print(f"exit {done.returncode}  {time.perf_counter() - t0:8.2f} s  "
                  f"{shlex.join(argv[1:])}", file=sys.stderr)
        ran: dict[str, set[int]] = {}
        for record in out.glob("reach-*.txt"):
            for entry in record.read_text().splitlines():
                name, _, line = entry.rpartition(":")
                ran.setdefault(name, set()).add(int(line))
    return ran


def main(argv: list[str]) -> int:
    repo = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()
    package = repo / "src" / "bdld"
    workloads = [w["name"] for w in json.loads((repo / "BENCHMARK.json").read_text())["workloads"]]
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        write_path_csv(work / "path.csv")
        runs = [([sys.executable, "-m", "bdld.cli", *shlex.split(line)[1:]], work)
                for line in readme_commands(repo)]
        runs += [([sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(SECONDS), "--trace", "0"], repo)
                 for workload in workloads for seed in SEEDS]
        ran = trace(package, runs)
    total = 0
    for path in sorted(package.glob("*.py")):
        missed = unreached(path, ran.get(str(path), set()))
        total += len(missed)
        if missed:
            print(f"{path.relative_to(repo)}: {len(missed)} unreached")
            for line, note in missed:
                print(f"  {line:5d}  {note}")
    print(f"{total} unreached statement(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
