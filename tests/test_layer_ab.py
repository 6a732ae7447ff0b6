"""The layer harness (scripts/layer_ab.py) run on this checkout against
itself, one small request per class family, the oracle's by both routes (a
bulk window near m0, a deep one): every answer passes its golden or digest
check, and the two sides agree bit for bit."""

import json
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_this_checkout_against_itself(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import layer_ab

    table = layer_ab.classes(json.loads((layer_ab.REPO / "benchmarks" / "pool.json").read_text()))
    cheapest = {name: [min(table[name], key=lambda request: request[3][-1])]  # its recorded seconds
                for name in ("bulk", "deep", "dwell")}
    path = table["paths N3"][0]
    small = {**cheapest, **{name: table[name][:1] for name in ("lln-point", "lln-stationary",
                                                                 "rare N100")},
             "paths N3": [path], "csv N3": [["csv", *path[1:]]]}
    report = layer_ab.measure(layer_ab.REPO, small, best_of=1)
    assert report.keys() == small.keys()
    for name, res in report.items():
        assert res["calls"] == res["equal"] == 1, name
        assert res.get("misses", {"old": 0, "new": 0}) == {"old": 0, "new": 0}, name
    assert all(report[name]["largest_move"] == 0.0 for name in cheapest)
    assert report["csv N3"]["us_per_row"]["new"] > 0
    assert layer_ab.failures(report) == []
