"""The law of X_T that the sampler draws, against the exact law, on every
route its walk takes.

``simulate._chunk_states`` moves a row of events by one of four routes: the
end table on a chain of at most 17 states, the table walk on a longer chain
when a chunk reaches both ends, a lift when it reaches one end, and the numpy
free walk when it reaches neither.  Each row below runs 4000 replications
through ``simulate._replications`` at seed 7 and lambda = 1, counts the rows
that each route walks, and judges the end states by Pearson's chi-squared
against ``endpoint_distribution``, with the cells of expected count below 5
pooled into one.  The five p-values are one family, judged by Holm's
step-down rule at family-wise level 0.01.
"""

import numpy as np
import pytest
from scipy import stats

from bdld import simulate
from bdld.chain import ModelParams
from bdld.evolve import endpoint_distribution
from bdld.simulate import SimConfig

REPS = 4000
LEVEL = 0.01

# (N, m0, t) -> the routes its rows take: N = 3 and 17 walk every row by the
# end table, N = 18 both by the table walk and by lifts, N = 50 by lifts, and
# N = 1000 by the free walk alone
ROWS = {
    (3, 2, 5.0): {"table_walk"},
    (17, 1, 2.0): {"table_walk"},
    (18, 18, 2.0): {"table_walk", "lift"},
    (50, 25, 3.0): {"lift"},
    (1000, 500, 0.05): set(),
}


def _counted(calls, name, func):
    def wrapped(*args):
        calls[name] += 1
        return func(*args)
    return wrapped


def _chi_squared(counts: np.ndarray, expected: np.ndarray) -> float:
    """Pearson's p-value, the cells of expected count below 5 pooled."""
    small = expected < 5.0
    observed = np.append(counts[~small], counts[small].sum())
    expect = np.append(expected[~small], expected[small].sum())
    if not small.any():
        observed, expect = observed[:-1], expect[:-1]
    return float(stats.chisquare(observed, expect).pvalue)


@pytest.fixture(scope="module")
def runs():
    """Per row: its p-value, its end states and the rows each route walked."""
    out = {}
    for n, m0, t in ROWS:
        params = ModelParams(n, 1.0)
        calls = {"table_walk": 0, "lift": 0}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "_table_walk", _counted(calls, "table_walk", simulate._table_walk))
            mp.setattr(simulate, "_lift", _counted(calls, "lift", simulate._lift))
            config = SimConfig(horizon=t, seed=7, initial=m0, replications=REPS)
            finals = np.array([final for _, final, _, _ in simulate._replications(params, config)])
        # a state outside 1..N fails the test's range check, not the count
        counts = np.bincount(np.clip(finals, 1, n), minlength=n + 1)
        expected = REPS * endpoint_distribution(params, m0, t).mass
        out[n, m0, t] = (_chi_squared(counts[1:n + 1], expected), finals, calls)
    return out


def _holm_rejects(pvalues: dict) -> set:
    """The keys whose hypotheses Holm's step-down rule rejects at LEVEL."""
    rejected = set()
    for rank, (key, p) in enumerate(sorted(pvalues.items(), key=lambda kv: kv[1])):
        if p > LEVEL / (len(pvalues) - rank):
            break
        rejected.add(key)
    return rejected


def test_holm_steps_down():
    # 0.001 <= 0.01/3 and 0.004 <= 0.01/2 are rejected; 0.02 > 0.01 stops
    assert _holm_rejects({"a": 0.004, "b": 0.001, "c": 0.02}) == {"a", "b"}
    # 0.0034 > 0.01/3 stops at the first step, so 0.0036 <= 0.01/2 stands too
    assert _holm_rejects({"a": 0.0034, "b": 0.0036, "c": 0.2}) == set()


@pytest.mark.parametrize("row", ROWS, ids=[f"N{n}-m{m0}-t{t:g}" for n, m0, t in ROWS])
def test_end_state_law_on_each_route(runs, row):
    pvalue, finals, calls = runs[row]
    n, _, _ = row
    assert finals.min() >= 1 and finals.max() <= n
    routes = {name for name, count in calls.items() if count}
    assert routes == ROWS[row], calls
    if n <= 17:  # every row of every pass is walked by the end table
        assert calls["table_walk"] >= REPS
    assert row not in _holm_rejects({key: run[0] for key, run in runs.items()}), pvalue
