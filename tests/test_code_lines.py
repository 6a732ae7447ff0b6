"""The line rule of scripts/code_lines.py on a small module: docstrings of a
module, a class and a function, a comment, blank lines, and a string that
is not a docstring."""

from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

MODULE = '''\
"""A module docstring

over three lines."""
# a comment

class A:
    """A class docstring."""
    def f(self):
        """A function docstring,
        over two lines."""
        x = """a string
that is code"""
            # an indented comment
        return x
'''


def test_each_kind_of_line(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import code_lines

    assert code_lines.count(MODULE) == {"code": 5, "docstring": 6, "comment": 2, "blank": 1}


def test_every_module_and_the_total(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    import code_lines

    package = tmp_path / "src" / "bdld"
    package.mkdir(parents=True)
    (package / "a.py").write_text(MODULE)
    (package / "b.py").write_text("x = 1\n\n")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "code", "docstring", "comment", "blank"],
                    ["a.py", "5", "6", "2", "1"], ["b.py", "1", "0", "0", "1"],
                    ["total", "6", "6", "2", "2"]]
