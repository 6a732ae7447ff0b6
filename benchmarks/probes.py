"""Derived probes: layers with no public entry point of their own, timed
through the public calls that isolate them best.  They run untraced, after
the traced pass, and repeat the baseline rows of ROADMAP aim 1, timed at the
reference speed (see ``speed.py``):

* ``endpoint_distribution`` at t=1 from N/2, N = 1000 / 2000 / 4000, and the
  kernel step derived from them (time / computed K*N);
* ``sample_path`` at N=1000, T=1 from N/2;
* the fixed cost of one replication: ``sample_path`` with horizon 1e-9, so
  no jump occurs but the 8192-variate block is still drawn;
* the 8192-variate block alone, drawn from a replication stream.
"""

from __future__ import annotations

import statistics
import time

import speed
from workloads import kernel_steps

BLOCK = 8192


def _median_ms(fn, repeats: int) -> float:
    """Median time of fn(i) over i < repeats, in ms at the reference speed."""
    times = []
    for i in range(repeats):
        ref = speed.reference_time()
        start = time.perf_counter()
        fn(i)
        times.append((time.perf_counter() - start) * speed.REF_S / ref)
    return 1e3 * statistics.median(times)


def run_probes(bd) -> dict[str, tuple[float, str]]:
    metrics = {}
    state_steps = 0
    endpoint_s = 0.0
    for n in (1000, 2000, 4000):
        params = bd.ModelParams(n, 1.0)
        ms = _median_ms(lambda i: bd.evolve.endpoint_distribution(params, n // 2, 1.0, 1e-12), 3)
        metrics[f"probe.endpoint_ms.n{n}"] = (ms, "ms")
        endpoint_s += ms / 1e3
        state_steps += kernel_steps(n, 1.0, 1.0, 1e-12) * n
    metrics["probe.ns_per_state_step"] = (1e9 * endpoint_s / state_steps, "ns")

    params = bd.ModelParams(1000, 1.0)
    metrics["probe.sample_path_ms.n1000"] = (_median_ms(
        lambda i: bd.simulate.sample_path(params, bd.SimConfig(horizon=1.0, seed=i, initial=500)),
        50), "ms")
    metrics["simulate.fixed_ms_per_rep"] = (_median_ms(
        lambda i: bd.simulate.sample_path(params, bd.SimConfig(horizon=1e-9, seed=i, initial=500)),
        200), "ms")

    def block(i):
        rng = bd.simulate.replication_rng(i, 0)
        ref = speed.reference_time()
        start = time.perf_counter()
        rng.standard_exponential(BLOCK).tolist()
        rng.random(BLOCK).tolist()
        return (time.perf_counter() - start) * speed.REF_S / ref

    metrics["probe.block_ms"] = (1e3 * statistics.median(block(i) for i in range(200)), "ms")
    return metrics
