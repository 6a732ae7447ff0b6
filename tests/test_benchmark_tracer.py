"""The benchmark's span tracer (benchmarks/tracing.py) must find every name it
wraps: the spanned functions and methods, and the tilt classes with their
methods in their own class bodies.  A deletion from bdld that removes one
breaks ``--trace 1`` runs, and this test."""

from pathlib import Path

import bdld

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _bindings(tracing, tracer):
    """Every attribute the tracer may replace, by (owner, name)."""
    owners = [bdld, *tracer.modules.values()]
    for layer, pairs in tracing.SPANNED_METHODS.items():
        owners += [getattr(tracer.modules[layer], cls_name) for cls_name, _ in pairs]
    owners += [getattr(tracer.modules["tilting"], name) for name in tracing.TILT_CLASSES]
    return {(id(owner), name): value for owner in owners for name, value in vars(owner).items()}


def test_install_and_uninstall_restore_every_lookup(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracing

    tracer = tracing.Tracer(bdld)
    before = _bindings(tracing, tracer)
    try:
        tracer.install()
        assert bdld.window_probability is not before[id(bdld), "window_probability"]
        assert bdld.evolve.window_probability is bdld.window_probability
        assert bdld.Trajectory.to_csv is not before[id(bdld.Trajectory), "to_csv"]
        assert bdld.CallableTilt.value is not before[id(bdld.CallableTilt), "value"]
    finally:
        tracer.uninstall()
    after = _bindings(tracing, tracer)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
