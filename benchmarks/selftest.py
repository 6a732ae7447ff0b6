"""Self-test of the benchmark at smoke size (about three minutes).

    python3 benchmarks/selftest.py

1. Runs every workload with ``--seconds 1``, untraced and traced, and checks
   that the last line of output is the result object, that it names exactly
   the metrics BENCHMARK.json lists with their units, that every metric is
   also printed on its own line with its unit, and that the exit code and
   ``correct`` agree with the failed-op count.  Ops that fail their
   reference, or give the recorded answer of bdld's known deep-tail defect
   (see README.md), are listed.
2. Negative control: perturbs one kind of output per workload and checks
   that the reference check then fails where it passed before; and checks,
   for every known-defect window, that the golden passes, the recorded wrong
   answer is reported as the known defect, and any other answer fails.
3. Runs the command in a directory holding only BENCHMARK.json and the
   benchmark's files, where it must exit non-zero without a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SMOKE = ["--seed", "1", "--seconds", "1"]


def run_command(cwd: Path, workload: str, trace: int):
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    return subprocess.run([*spec["command"], "--workload", workload, *SMOKE,
                           "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def check_output(workload: str, trace: int) -> None:
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    proc = run_command(CHECKOUT, workload, trace)
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode in (0, 1), f"{workload} trace={trace}: exit {proc.returncode}\n" \
                                      f"{proc.stderr}"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"], result
    assert result["correct"] == (result["failed"] == 0) == (proc.returncode == 0), result
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted, f"{workload} trace={trace}: metric names or units differ: " \
                          f"{set(got) ^ set(wanted)}"
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name
        assert any(line.split()[:1] == [name] and line.split()[-1] == metric["unit"]
                   for line in lines[:-1]), f"{name} not printed with its unit"
    print(f"ok  {workload:<10} trace={trace}  {len(got)} metrics, "
          f"{result['attempted']} ops attempted, {result['failed']} failed")
    for line in lines[:-1]:
        if line.strip().startswith(("FAILED:", "KNOWN DEFECT:")):
            print(f"      {line.strip()}")


def perturb(workload, ops, records) -> list:
    """A copy of ``records`` with outputs a correct program cannot produce."""
    from workloads import Lln, Oracle, Paths, RareEvent
    bad = list(records)
    if isinstance(workload, Oracle):
        i = next(i for i, op in enumerate(ops) if op[0] == "bulk")
        bad[i] = records[i] + 1e-6  # the probability off by one part in a million
    elif isinstance(workload, Lln):
        # Every stationary batch reads 0.99 where the exact value is 0.763.
        bad = [(0.99, r[1], r[2]) if op[0] == "stationary" else r
               for op, r in zip(ops, records)]
    elif isinstance(workload, Paths):
        jumps, digest, occupation_ok, csv = records[0]
        bad[0] = (jumps, digest[::-1], occupation_ok, csv)
    elif isinstance(workload, RareEvent):
        bad = [(10.0 * r[0], r[1]) for r in records]
    return bad


def negative_control(name: str) -> None:
    import run
    args = run.parse_args(["--workload", name, *SMOKE])
    bench = run.Bench(args)
    try:
        phase = run.Phase(bench, range(run.PASSES))
        ok = [i for i, error in enumerate(phase.errors) if error is None]
        ops, records = [phase.ops[i] for i in ok], [phase.records[i] for i in ok]
        before = bench.workload.verify(ops, records)
        after = bench.workload.verify(ops, perturb(bench.workload, ops, records))
        failures = [a for a, b in zip(after, before) if a and not b]
        assert failures, f"{name}: perturbed outputs passed the reference check"
    finally:
        bench.close()
    print(f"ok  {name:<10} negative control: {failures[0]}")


def known_defect_control() -> None:
    from workloads import KNOWN_DEFECT, Oracle
    pool = json.loads((HERE / "pool.json").read_text())
    oracle = Oracle(None, pool, None)
    rows = {tuple(row[:5]): row for row in pool["oracle"]["deep"]}
    for key, recorded in oracle.known_defects.items():
        golden = rows[key][6]
        wrong = -math.inf if recorded is None else recorded
        other = (golden if recorded is None else recorded) - 1.0
        ok, known, bad = oracle.verify([("deep", rows[key])] * 3, [golden, wrong, other])
        assert ok is None, ok
        assert known and known.startswith(KNOWN_DEFECT), (key, known)
        assert bad and not bad.startswith(KNOWN_DEFECT), (key, bad)
    print(f"ok  oracle     known defects: {len(oracle.known_defects)} recorded answers are "
          f"reported, other wrong answers fail")


def bare_directory() -> None:
    bare = CHECKOUT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(CHECKOUT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_command(bare, "lln", 0)
        assert proc.returncode != 0, "the benchmark ran without the program's sources"
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        assert '"correct"' not in last, "printed a result without the program's sources"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"ok  bare directory: exit {proc.returncode}, {proc.stderr.strip()}")


def main() -> None:
    sys.path.insert(0, str(HERE))
    names = [w["name"] for w in json.loads((CHECKOUT / "BENCHMARK.json").read_text())["workloads"]]
    for name in names:
        for trace in (0, 1):
            check_output(name, trace)
    for name in names:
        negative_control(name)
    known_defect_control()
    bare_directory()
    print("self-test passed")


if __name__ == "__main__":
    main()
