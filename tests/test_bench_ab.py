"""The verdicts of scripts/bench_ab.py's summarize on synthetic runs: a
change is judged clear only against a measured noise, the parent's IQR over
at least two pairs and the spread of at least one A/A pair."""

from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

BETTER = {"wall_s": "lower", "ops_per_s": "higher"}


def _run(wall_s: float, ops_per_s: float) -> dict:
    return {"correct": True, "failed": 0, "wall_s": wall_s, "ops_per_s": ops_per_s}


@pytest.fixture
def bench_ab(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import bench_ab
    return bench_ab


def test_one_pair_without_aa_pairs_is_not_judged(bench_ab):
    # the same code run twice differs by noise alone, and one pair measures none
    summary = bench_ab.summarize([(_run(1.00, 10.0), _run(1.03, 9.9))], [], BETTER)
    assert summary.keys() == {"wall_s", "ops_per_s"}
    for row in summary.values():
        assert row["parent_iqr"] == 0.0
        assert row["clear"] is None
    assert summary["wall_s"]["change"] == pytest.approx(0.03, rel=1e-12, abs=0.0)
    assert summary["wall_s"]["change_wins"] == "0/1"
    assert summary["ops_per_s"]["change_wins"] == "0/1"


def test_pairs_without_aa_pairs_are_not_judged(bench_ab):
    pairs = [(_run(1.00, 10.0), _run(0.50, 20.0)), (_run(1.02, 10.2), _run(0.51, 20.4))]
    summary = bench_ab.summarize(pairs, [], BETTER)
    assert all(row["clear"] is None and "aa_spread" not in row for row in summary.values())


def test_one_pair_with_aa_pairs_is_not_judged(bench_ab):
    aa = [(_run(1.00, 10.0), _run(1.00, 10.0))]
    summary = bench_ab.summarize([(_run(1.00, 10.0), _run(0.50, 20.0))], aa, BETTER)
    assert all(row["clear"] is None for row in summary.values())


def test_a_change_beyond_the_noise_is_clear(bench_ab):
    pairs = [(_run(1.00, 10.0), _run(0.80, 12.5)), (_run(1.04, 9.6), _run(0.82, 12.2)),
             (_run(0.98, 10.2), _run(0.79, 12.6))]
    aa = [(_run(1.00, 10.0), _run(1.01, 9.9))]
    summary = bench_ab.summarize(pairs, aa, BETTER)
    wall = summary["wall_s"]
    assert wall["parent_median"] == 1.00 and wall["change_median"] == 0.80
    assert wall["change"] == pytest.approx(-0.2, rel=1e-12, abs=0.0)
    assert wall["parent_iqr"] == pytest.approx(0.03, rel=1e-12, abs=0.0)
    assert wall["aa_spread"] == pytest.approx(0.01, rel=1e-12, abs=0.0)
    assert wall["change_wins"] == "3/3" and wall["clear"] is True
    assert summary["ops_per_s"]["change_wins"] == "3/3"
    assert summary["ops_per_s"]["clear"] is True


def test_a_change_within_the_noise_is_not_clear(bench_ab):
    # a 1% change against a 3% parent IQR, and one against a 5% A/A spread
    pairs = [(_run(1.00, 10.0), _run(0.99, 10.1)), (_run(1.04, 9.6), _run(1.02, 9.7)),
             (_run(0.98, 10.2), _run(0.97, 10.3))]
    summary = bench_ab.summarize(pairs, [(_run(1.0, 10.0), _run(1.0, 10.0))], BETTER)
    assert summary["wall_s"]["clear"] is False
    quiet = [(_run(1.00, 10.0), _run(0.99, 10.1)), (_run(1.00, 10.0), _run(0.99, 10.1))]
    summary = bench_ab.summarize(quiet, [(_run(1.0, 10.0), _run(1.05, 9.5))], BETTER)
    assert summary["wall_s"]["parent_iqr"] == 0.0
    assert summary["wall_s"]["clear"] is False
