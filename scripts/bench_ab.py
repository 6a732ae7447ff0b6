"""Run the benchmark on two checkouts in interleaved pairs from one fixed path.

    python3 scripts/bench_ab.py PARENT CHANGE --workload W --pairs N
        [--first-seed S] [--seconds 12] [--aa-pairs M] [--work DIR] [--out FILE]

PARENT and CHANGE are checkouts (a commit's files make one:
``git archive REV | tar -x -C DIR``).  Their ``benchmarks/`` must be
identical, file for file; the script stops if they are not, and it writes
nothing under either tree.  WORK (default ``bench-ab`` under the system's
temporary directory) becomes one fixed checkout: PARENT's files once, then
before every run the running side's ``src/`` copied in, without
``__pycache__``.  So both sides run from the same path, with the same
benchmark files, and differ only in ``src/``.

Pair i runs ``benchmarks/run.py --workload W --seed S+i --seconds SECONDS
--trace 0`` once for each side, PARENT first in even pairs and CHANGE first
in odd ones.  ``--aa-pairs M`` then runs M pairs with PARENT on both sides
(seeds S+N..S+N+M-1), the A/A check: the same code run twice differs only
by the machine's noise.

Per end-to-end metric the script prints and writes (as JSON, to FILE,
default ``ab-W.json`` in WORK) the medians of both sides, their quartiles,
the parent's IQR as a fraction of its median, the change of the medians,
the pairs the change won (by the ``better`` direction in PARENT's
``BENCHMARK.json``), and, with A/A pairs, the A/A spread
|median(second run) / median(first run) - 1|.  A change is marked ``clear``
when its size exceeds both the parent's relative IQR and the A/A spread.
Every run must report ``correct: true``; the counts are written too.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SKIP = shutil.ignore_patterns("__pycache__", ".bench_out", ".git", ".pytest_cache")


def tree_files(root: Path) -> list[str]:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*")
                  if p.is_file() and "__pycache__" not in p.parts)


def same_benchmarks(a: Path, b: Path) -> bool:
    files = tree_files(a / "benchmarks")
    return files == tree_files(b / "benchmarks") and all(
        filecmp.cmp(a / "benchmarks" / f, b / "benchmarks" / f, shallow=False) for f in files)


def run(work: Path, tree: Path, workload: str, seed: int, seconds: float) -> dict:
    shutil.rmtree(work / "src", ignore_errors=True)
    shutil.copytree(tree / "src", work / "src", ignore=SKIP)
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=work, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"error: {' '.join(cmd)} printed nothing:\n{proc.stderr}")
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "failed": result["failed"],
            **{name: m["value"] for name, m in result["metrics"].items()}}


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3


def summarize(pairs: list, aa: list, better: dict) -> dict:
    summary = {}
    for name in pairs[0][0]:
        if name in ("correct", "failed"):
            continue
        old = [p[name] for p, _ in pairs]
        new = [c[name] for _, c in pairs]
        q_old, q_new = quartiles(old), quartiles(new)
        lower = better.get(name, "lower") == "lower"
        row = {"parent_median": q_old[1], "change_median": q_new[1],
               "change": q_new[1] / q_old[1] - 1.0,
               "parent_q25_q75": [q_old[0], q_old[2]], "change_q25_q75": [q_new[0], q_new[2]],
               "parent_iqr": (q_old[2] - q_old[0]) / q_old[1],
               "change_wins": f"{sum((c < p) if lower else (c > p) for p, c in zip(old, new))}"
                              f"/{len(pairs)}"}
        noise = row["parent_iqr"]
        if aa:
            first = statistics.median(a[name] for a, _ in aa)
            row["aa_spread"] = abs(statistics.median(b[name] for _, b in aa) / first - 1.0)
            noise = max(noise, row["aa_spread"])
        row["clear"] = abs(row["change"]) > noise
        summary[name] = row
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--aa-pairs", type=int, default=0)
    parser.add_argument("--work", type=Path, default=Path(tempfile.gettempdir()) / "bench-ab")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    parent, change, work = args.parent.resolve(), args.change.resolve(), args.work.resolve()
    if any(work == tree or work in tree.parents or tree in work.parents for tree in (parent, change)):
        sys.exit("error: --work must lie outside both trees and hold neither")
    if not same_benchmarks(parent, change):
        sys.exit("error: the two trees' benchmarks/ differ; an A/B run needs them identical")
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(parent, work, ignore=SKIP)
    spec = json.loads((parent / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    def pair(i: int, a: Path, b: Path, label: str) -> tuple[dict, dict]:
        seed = args.first_seed + i
        order = [(0, a), (1, b)] if i % 2 == 0 else [(1, b), (0, a)]
        got = {}
        for side, tree in order:
            got[side] = run(work, tree, args.workload, seed, args.seconds)
        print(f"{label} {i + 1} seed {seed}: " + "  ".join(
            f"{name} {got[0][name]:.4g} -> {got[1][name]:.4g}"
            for name in ("wall_s", "op_p50_ms") if name in got[0]), flush=True)
        return got[0], got[1]

    pairs = [pair(i, parent, change, "pair") for i in range(args.pairs)]
    aa = [pair(args.pairs + i, parent, parent, "A/A pair") for i in range(args.aa_pairs)]
    runs = [r for p in pairs + aa for r in p]
    report = {
        "command": " ".join(["python3", "scripts/bench_ab.py", *map(str, (argv or sys.argv[1:]))]),
        "workload": args.workload, "pairs": args.pairs, "aa_pairs": args.aa_pairs,
        "seeds": [args.first_seed, args.first_seed + args.pairs + args.aa_pairs - 1],
        "all_correct": all(r["correct"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "summary": summarize(pairs, aa, better),
        "runs": {"pairs": pairs, "aa": aa},
    }
    out = args.out or work / f"ab-{args.workload}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"{args.workload}: {args.pairs} pairs, {args.aa_pairs} A/A pairs, "
          f"all correct {report['all_correct']}, written to {out}")
    print(f"  {'metric':<12} {'parent':>11} {'change':>11} {'change%':>8} {'IQR%':>6} "
          f"{'A/A%':>6} {'wins':>6}")
    for name, row in report["summary"].items():
        aa_pct = f"{100 * row['aa_spread']:6.1f}" if "aa_spread" in row else f"{'-':>6}"
        print(f"  {name:<12} {row['parent_median']:11.5g} {row['change_median']:11.5g} "
              f"{100 * row['change']:+8.1f} {100 * row['parent_iqr']:6.1f} {aa_pct} "
              f"{row['change_wins']:>6}{'  clear' if row['clear'] else ''}")
    return 0 if report["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
