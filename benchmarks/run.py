"""bdld benchmark: one seeded workload, timed end to end or traced by layer.

    python3 benchmarks/run.py --workload oracle --seed 1 --seconds 12 --trace 0

Run it from the root of a checkout; it imports bdld from ``src/``.  Load is
one process, one thread, in a closed loop: each op starts when the previous
one returns.  A run makes ``round(seconds * OPS_PER_S[workload] / PASSES)``
slots of ``PASSES`` equivalent ops each (see workloads.py) and runs them in
``PASSES`` passes, which takes about ``--seconds`` seconds at the reference
speed.  The op count depends on ``--seconds`` and the workload alone, so
runs of two commits do the same work.  Timings are reported at the
reference speed (see speed.py); the end-to-end ones take each slot's median
op and report Harrell-Davis quantiles of the slot latencies.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the first
pass untraced and then the second pass traced (ops of equal cost, none
repeated), and reports the per-layer metrics, the derived probes and the
tracing overhead.  Every metric is printed with its
unit; the last line of standard output is one JSON object with the metrics
that BENCHMARK.json names.  The full result, with provenance, goes to
``.bench_out/``.  The exit code is 1 if any op failed its reference check;
an op that gives the answer recorded for a known defect of bdld is reported
on its own line and counted in ``fail_frac``, but is not a failure.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
from workloads import KNOWN_DEFECT  # noqa: E402

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
OUT = CHECKOUT / ".bench_out"

# Ops per second of the timed phase, at the reference speed.  They set the
# size of a run: a 12-second run holds 100 slots (300 for paths), enough for
# p90 to have ten slots beyond it.  At the commit that defined the benchmark
# the workloads ran 22, 33, 183 and 31 ops/s (medians of ten runs).
OPS_PER_S = {"oracle": 25.0, "lln": 25.0, "paths": 75.0, "rare-event": 25.0}
# Each slot is run once per pass, and the end-to-end timings take each
# slot's median over the passes.
PASSES = 3
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 120
# Bytes of N-vectors one uniformization step reads: p four times (three
# kernel terms and the accumulation), the three kernel diagonals, the output
# vector twice for the in-place neighbour adds, and the accumulator once.
VECTOR_READS_PER_STEP = 10


def load_bdld():
    src = CHECKOUT / "src"
    if not (src / "bdld" / "__init__.py").is_file():
        sys.exit(f"error: no bdld sources under {src}; run from the root of a bdld checkout")
    sys.path.insert(0, str(src))
    import bdld
    if Path(bdld.__file__).resolve().parent != (src / "bdld").resolve():
        sys.exit(f"error: imported bdld from {bdld.__file__}, not from {src}")
    return bdld


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("oracle", "lln", "paths", "rare-event"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit (used to sample set-up "
                             "time in fresh processes)")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


class Bench:
    """Set-up state of one run: the package, the workload, its slots and the
    order in which each pass visits them."""

    def __init__(self, args):
        sys.path.insert(0, str(HERE))
        self.bd = load_bdld()
        import numpy as np
        from workloads import WORKLOADS
        refs = [speed.reference_time() for _ in range(3)]

        with open(HERE / "pool.json") as fh:
            pool = json.load(fh)
        self.scratch = OUT / f"tmp-{os.getpid()}"
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.workload = WORKLOADS[args.workload](self.bd, pool, self.scratch)
        rng = np.random.default_rng(args.seed % 2**63)
        n_slots = max(1, round(args.seconds * OPS_PER_S[args.workload] / PASSES))
        self.slots = self.workload.make_slots(n_slots, PASSES, rng)
        self.orders = [rng.permutation(len(self.slots)) for _ in range(PASSES)]
        refs += [speed.reference_time() for _ in range(3)]
        for index, op in enumerate(self.workload.warmups()):
            self.workload.run(op, -1 - index)
        self.setup_raw_s = time.perf_counter() - _PROCESS_START
        refs += [speed.reference_time() for _ in range(3)]
        self.setup_s = self.setup_raw_s * speed.REF_S / statistics.median(refs)

    def close(self):
        shutil.rmtree(self.scratch, ignore_errors=True)


class Phase:
    """Timed passes over the slots: pass p runs op p of every slot, in that
    pass's order.  Holds each op's latency, record and failure."""

    def __init__(self, bench: Bench, passes, tracer=None):
        workload = bench.workload
        self.ops, self.slot_of = [], []
        for p in passes:
            for s in bench.orders[p]:
                self.ops.append(bench.slots[s][p])
                self.slot_of.append(int(s))
        call = workload.run if tracer is None else tracer.span("loop.op", workload.run)
        clock = time.perf_counter
        self.latencies, self.records, self.errors, self.refs = [], [], [], []
        self.reduce_s = 0.0
        start = clock()
        for index, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op_id = index
            self.refs.append(speed.reference_time())
            t0 = clock()
            try:
                out, error = call(op, index), None
            except Exception as exc:  # a raising op is a failed op; the run goes on
                out, error = None, f"{type(exc).__name__}: {exc}"
            t1 = clock()
            self.latencies.append(t1 - t0)
            self.records.append(None if error else workload.record(op, out))
            self.errors.append(error)
            self.reduce_s += clock() - t1
        self.wall_s = clock() - start
        # The loop's own time outside the ops: reference timings and records.
        self.loop_s = self.reduce_s + sum(self.refs)
        self.scale = speed.scales(self.refs, [workload.speed_elasticity(op) for op in self.ops])
        self.norm = [lat * sc for lat, sc in zip(self.latencies, self.scale)]
        self.failures = self._verify(workload)

    def _verify(self, workload):
        ok = [i for i, error in enumerate(self.errors) if error is None]
        failures = list(self.errors)
        messages = workload.verify([self.ops[i] for i in ok], [self.records[i] for i in ok])
        for i, message in zip(ok, messages):
            failures[i] = message
        return failures

    @property
    def failed(self) -> int:
        return sum(message is not None and not message.startswith(KNOWN_DEFECT)
                   for message in self.failures)

    @property
    def known_defects(self) -> int:
        return sum(message is not None and message.startswith(KNOWN_DEFECT)
                   for message in self.failures)

    def slot_latencies(self) -> dict[int, float]:
        """Each slot's median latency over its ops, at the reference speed;
        the median ignores one op hit by a passing stall."""
        per: dict[int, list] = {}
        for s, latency in zip(self.slot_of, self.norm):
            per.setdefault(s, []).append(latency)
        return {s: statistics.median(v) for s, v in sorted(per.items())}

    def pass_wall_s(self) -> float:
        """Time of one pass of typical ops at the reference speed: the sum of
        the slots' median latencies."""
        return sum(self.slot_latencies().values())

    def pass_work(self, workload) -> float:
        """Mean work of one pass, in the workload's unit."""
        passes = len(self.ops) / len(set(self.slot_of))
        return sum(workload.work(op, rec) for op, rec in zip(self.ops, self.records)
                   if rec is not None) / passes

    def class_latencies(self, workload) -> dict:
        """Median and maximum slot latency per op class, in ms."""
        from workloads import op_class
        first = {}
        for op, s in zip(self.ops, self.slot_of):
            first.setdefault(s, op)
        by_class: dict[str, list] = {}
        for s, latency in self.slot_latencies().items():
            by_class.setdefault(op_class(workload, first[s]), []).append(1e3 * latency)
        return {name: {"slots": len(ms), "p50_ms": statistics.median(ms), "max_ms": max(ms)}
                for name, ms in sorted(by_class.items())}

    def latency_metrics(self) -> dict:
        slots = list(self.slot_latencies().values())
        beyond = len(slots) - math.ceil(0.9 * len(slots))
        return {"op_p50_ms": 1e3 * harrell_davis(slots, 0.5),
                "op_p90_ms": 1e3 * harrell_davis(slots, 0.9),
                "samples": len(slots), "samples_beyond_p90": beyond}


def harrell_davis(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted average of
    all order statistics, which varies less between runs than the single
    order statistic of a nearest-rank percentile."""
    import numpy as np
    from scipy.stats import beta
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    cdf = beta.cdf(np.arange(n + 1) / n, (n + 1) * q, (n + 1) * (1.0 - q))
    return float(np.dot(np.diff(cdf), x))


def workload_specific(workload, phase: Phase) -> dict:
    """reps_per_s, jumps_per_s and is_time_to_1pct_s where they apply, else 0."""
    from workloads import Paths, RareEvent
    per_s = phase.pass_work(workload) / phase.pass_wall_s()
    out = {"reps_per_s": 0.0, "jumps_per_s": 0.0, "is_time_to_1pct_s": 0.0}
    if workload.work_unit == "replications":
        out["reps_per_s"] = per_s
    if isinstance(workload, Paths):
        out["jumps_per_s"] = per_s
    if isinstance(workload, RareEvent):
        reps = workload.pool["rare_event"]["reps"]
        ok = [i for i, rec in enumerate(phase.records) if rec is not None]
        stats = workload.rung_stats([phase.ops[i] for i in ok], [phase.records[i] for i in ok])
        total = 0.0
        for n, (mean, _, sd) in stats.items():
            if mean <= 0.0:  # no replication hit the window; the reference check fails
                continue
            rung = [t for op, t in zip(phase.ops, phase.norm) if op[0] == n]
            seconds_per_rep = statistics.fmean(rung) / reps
            total += seconds_per_rep * (sd / mean / 0.01) ** 2
        out["is_time_to_1pct_s"] = total
    return out


def end_to_end(bench: Bench, phase: Phase, setup_samples: list[float]) -> dict:
    wall = phase.pass_wall_s()
    lat = phase.latency_metrics()
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (len(bench.slots) / wall, "1/s"),
        "op_p50_ms": (lat["op_p50_ms"], "ms"),
        "op_p90_ms": (lat["op_p90_ms"], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "work_per_s": (phase.pass_work(bench.workload) / wall, "1/s"),
    }


def layer_metrics(workload, tracer, traced: Phase, untraced: Phase) -> dict:
    """Per-layer metrics of the traced pass.  Times are at the reference
    speed, each span scaled like the op it belongs to."""
    from collections import Counter
    from tracing import LAYERS
    from workloads import RareEvent, kernel_steps, window_of
    ops, spans, scale = traced.ops, tracer.spans, traced.scale
    self_s = tracer.layer_self_time(scale)
    calls = Counter(span[0].split(".", 1)[0] for span in spans)
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span[0], []).append(span)

    def duration(span, own=False):
        return (span[2] - span[1] - (span[5] if own else 0.0)) * scale[span[4]]

    def inclusive(name):
        return sum(duration(span) for span in by_name.get(name, ()))

    def notes(name):
        return [span[6] for span in by_name.get(name, ()) if span[6] is not None]

    m = {f"{layer}.busy_s": (self_s.get(layer, 0.0), "s") for layer in LAYERS}
    for layer in ("evolve", "chain", "quadrature"):
        m[f"{layer}.calls"] = (calls[layer], "count")

    passes = by_name.get("evolve.evolve_distribution", ())
    steps = [kernel_steps(*span[6]) * span[6][0] for span in passes]
    bulk_ids = {i for i, op in enumerate(ops) if op[0] == "bulk"}
    bulk_steps = sum(s for span, s in zip(passes, steps) if span[4] in bulk_ids)
    bulk_evolve_s = sum(duration(span, own=True) for span in spans
                        if span[4] in bulk_ids and span[0].startswith("evolve."))
    logspace = [span for span in by_name.get("evolve.window_log_probability", ())
                if span[6] is not None and span[6] < math.log(1e-280)]
    m.update({
        "evolve.poisson_terms": (sum(kernel_steps(*span[6]) for span in passes), "count"),
        "evolve.ns_per_state_step": (1e9 * bulk_evolve_s / bulk_steps if bulk_steps else 0.0,
                                     "ns"),
        "evolve.bytes_moved_computed": (8 * VECTOR_READS_PER_STEP * sum(steps), "bytes"),
        "evolve.logspace_queries": (len(logspace), "count"),
        "evolve.logspace_busy_s": (sum(duration(span) for span in logspace), "s"),
        "evolve.dwell_busy_s": (inclusive("evolve.stationary_dwell_probability"), "s"),
    })

    tilted = notes("simulate.tilted_sample_path")
    path_jumps = sum(notes("simulate.sample_path"))
    tilted_jumps = sum(note[2] for note in tilted)
    sample_self = sum(duration(span, own=True) for span in by_name.get("simulate.sample_path", ()))
    reps = sum(sum(notes(f"simulate.{name}")) for name in
               ("lln_point_experiment", "lln_stationary_experiment", "tilted_window_experiment"))
    value_calls = tracer.leaf_calls["tilting.value"]
    m.update({
        "simulate.reps": (reps + len(by_name.get("simulate.sample_path", ())), "count"),
        "simulate.jumps": (path_jumps + tilted_jumps, "count"),
        "simulate.us_per_jump": (1e6 * sample_self / path_jumps if path_jumps else 0.0, "us"),
        "tilting.value_calls": (value_calls, "count"),
        "tilting.compensator_calls": (tracer.leaf_calls["tilting.up_excess_integral"]
                                      + tracer.leaf_calls["tilting.down_excess_integral"],
                                      "count"),
        "tilting.accept_ratio": (tilted_jumps / value_calls if value_calls else 0.0, "ratio"),
    })

    spec = workload.pool["rare_event"]
    weights = {n: [] for n in spec["ladder"]}
    if isinstance(workload, RareEvent):
        for span in by_name.get("simulate.tilted_sample_path", ()):
            n = ops[span[4]][0]
            _, lo, hi = window_of(n, spec)
            log_w, final, _ = span[6]
            weights[n].append(math.exp(log_w) if lo <= final <= hi else 0.0)
    for n, values in weights.items():
        total = sum(values)
        rel = ess = share = 0.0
        if total > 0 and len(values) > 1:
            mean = total / len(values)
            rel = statistics.stdev(values) / mean
            ess = total * total / sum(v * v for v in values) / len(values)
            share = max(values) / total
        m[f"tilting.rel_err_per_sample.n{n}"] = (rel, "ratio")
        m[f"tilting.ess_frac.n{n}"] = (ess, "ratio")
        m[f"tilting.max_weight_share.n{n}"] = (share, "ratio")

    rows = sum(r for r in notes("serialize.write_csv") if r is not None)
    m.update({
        "quadrature.intervals": (sum(notes("quadrature.integrate")), "count"),
        "serialize.rows_written": (rows, "count"),
        "serialize.us_per_row": (1e6 * self_s.get("serialize", 0.0) / rows if rows else 0.0, "us"),
        "loop.busy_s": (self_s.get("loop", 0.0)
                        + traced.loop_s * statistics.median(scale), "s"),
        "trace.overhead_frac": (sum(traced.norm) / sum(untraced.norm) - 1.0, "ratio"),
        "trace.accounted_frac": ((sum(tracer.layer_self_time().values()) + traced.loop_s)
                                 / traced.wall_s, "ratio"),
    })
    return m


def sample_setup(args) -> list[float]:
    """Set-up time of fresh processes, each running only the set-up."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", repr(args.seconds), "--setup-only"],
            cwd=CHECKOUT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        samples.append(json.loads(child.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def git_commit():
    git = CHECKOUT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(bench: Bench, args) -> dict:
    import numpy
    import scipy
    from workloads import class_histogram
    digest = hashlib.sha256()
    for path in sorted((CHECKOUT / "src" / "bdld").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "bdld": bench.bd.__version__,
        "git_commit": git_commit(), "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "passes": PASSES,
        "slots": len(bench.slots), "slot_counts": class_histogram(bench.workload, bench.slots),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = Bench(args)
    if args.setup_only:
        bench.close()
        print(json.dumps({"setup_s": bench.setup_s}))
        return 0
    units = {"reps_per_s": "1/s", "jumps_per_s": "1/s", "is_time_to_1pct_s": "s"}
    report = {"provenance": provenance(bench, args)}
    try:
        if args.trace == 0:
            untraced = Phase(bench, range(PASSES))
            phases = [untraced]
            samples = [bench.setup_s, *sample_setup(args)]
            metrics = end_to_end(bench, untraced, samples)
            extra = {k: (v, units[k]) for k, v in workload_specific(bench.workload, untraced).items()}
            extra.update({k: (v, "count") for k, v in untraced.latency_metrics().items()
                          if k.startswith("samples")})
            extra["raw_phase_wall_s"] = (untraced.wall_s, "s")
            extra["raw_setup_s"] = (bench.setup_raw_s, "s")
            report["timings"] = {"setup_samples_s": samples,
                                 "per_class": untraced.class_latencies(bench.workload),
                                 "raw": {"lat": untraced.latencies, "ref": untraced.refs,
                                         "slot": untraced.slot_of}}
        else:
            # Pass 0 untraced, then pass 1 traced: each slot holds distinct
            # ops of equal cost, so no input is repeated.
            from probes import run_probes
            from tracing import Tracer
            untraced = Phase(bench, [0])
            tracer = Tracer(bench.bd)
            tracer.install()
            try:
                traced = Phase(bench, [1], tracer)
            finally:
                tracer.uninstall()
            phases = [untraced, traced]
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
            metrics = layer_metrics(bench.workload, tracer, traced, untraced)
            metrics.update({k: (v, units[k])
                            for k, v in workload_specific(bench.workload, untraced).items()})
            metrics.update(run_probes(bench.bd))
            extra = {"raw_traced_wall_s": (traced.wall_s, "s"),
                     "raw_untraced_wall_s": (untraced.wall_s, "s")}
    finally:
        bench.close()

    attempted = sum(len(p.failures) for p in phases)
    failed = sum(p.failed for p in phases)
    known = sum(p.known_defects for p in phases)
    extra["fail_frac"] = ((failed + known) / attempted, "ratio")
    extra["known_defect_ops"] = (known, "count")
    messages = sorted({message for p in phases for message in p.failures if message})
    failures = [m for m in messages if not m.startswith(KNOWN_DEFECT)]
    report["deterministic"] = {
        "attempted": attempted, "failed": failed, "failures": failures,
        "known_defect_ops": known,
        "known_defects": [m for m in messages if m.startswith(KNOWN_DEFECT)],
        "work": sum(bench.workload.work(op, rec) for op, rec in zip(untraced.ops, untraced.records)
                    if rec is not None),
        "work_unit": bench.workload.work_unit,
    }
    report["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in {**metrics, **extra}.items()}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")

    prov = report["provenance"]
    print(f"bdld benchmark  workload={args.workload} seed={args.seed} trace={args.trace} "
          f"slots={prov['slots']} {prov['slot_counts']} passes={PASSES}")
    print(f"  bdld {prov['bdld']}  python {prov['python']}  numpy {prov['numpy']}  "
          f"scipy {prov['scipy']}  nproc {prov['nproc']}  commit {prov['git_commit']}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:<36} {value:>16.6g} {unit}")
    for message in messages:
        print(f"  {'KNOWN DEFECT' if message.startswith(KNOWN_DEFECT) else 'FAILED'}: "
              f"{message.removeprefix(KNOWN_DEFECT)}")
    if known:
        print(f"warning: {known} of {attempted} ops gave the recorded wrong answer of a known "
              f"bdld defect (see benchmarks/README.md)", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
