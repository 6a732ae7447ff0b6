"""The reach trace (scripts/reach.py) on a two-function package: the
statements a run reaches, and those it does not, outermost first."""

import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

MODULE = '''\
"""A module docstring, which has no statement to reach."""


def called(x):
    """A function docstring."""
    if x > 0:
        return 1
    else:
        y = -x
        return y


def never(x):
    return x
'''


def test_unreached_statements_of_a_small_package(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import reach

    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(MODULE)
    ran = reach.trace(package, [([sys.executable, "-c", "from pkg import mod; mod.called(1)"],
                                 tmp_path)])
    assert reach.unreached(package / "mod.py", ran[str(package / "mod.py")]) == [
        (9, "y = -x"), (10, "return y"), (13, "def never(x):  (never called)")]
