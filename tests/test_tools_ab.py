"""tools/_ab.py, the A/B runner of the timing tools: its reducer on fixed numbers, and its layout."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import _ab  # noqa: E402


class TestReducer:
    def test_ties_count_for_neither_side(self):
        base, other = [1.0, 2.0, 3.0, 4.0], [1.0, 1.5, 3.0, 5.0]
        assert _ab.wins(base, other, "lower") == 1
        assert _ab.wins(base, other, "higher") == 1
        assert _ab.wins(base, base, "lower") == _ab.wins(base, base, "higher") == 0

    def test_direction_follows_better(self):
        base, other = [10.0, 10.0, 10.0], [9.0, 11.0, 8.0]
        assert _ab.wins(base, other, "lower") == 2
        assert _ab.wins(base, other, "higher") == 1
        assert _ab.versus(base, other).won == 2  # times: the lower one wins

    def test_quartiles_are_inclusive(self):
        # inclusive: quartiles interpolate between the data, q1 = 1 + 0.75 (2 - 1); exclusive would read 1.25
        assert _ab.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
        assert _ab.quartiles([0.0, 10.0]) == (2.5, 5.0, 7.5)

    def test_one_run_is_its_own_quartiles(self):
        assert _ab.quartiles([0.7]) == (0.7, 0.7, 0.7)
        v = _ab.versus([2.0], [1.5])
        assert (v.ratio, v.q1, v.q3, v.won, v.rounds) == (0.75, 0.75, 0.75, 1, 1)

    def test_versus_reduces_ratios(self):
        v = _ab.versus([1.0, 2.0, 4.0, 5.0, 8.0], [1.1, 1.0, 4.0, 4.0, 8.8])
        assert v.ratio == 1.0 and (v.q1, v.q3) == (0.8, 1.1)
        assert (v.won, v.rounds) == (2, 5)
        assert str(v) == "x1.000 [0.800-1.100] (2/5 faster)"


def test_orders_alternate_which_side_runs_first():
    assert list(_ab.orders(4, 2)) == [[0, 1], [1, 0], [0, 1], [1, 0]]
    assert list(_ab.orders(2, 3)) == [[0, 1, 2], [2, 1, 0]]
    ran = []
    assert _ab.alternate(3, ["a", "b"], lambda side: ran.append(side) or side * 2) == [["aa"] * 3, ["bb"] * 3]
    assert ran == ["a", "b", "b", "a", "a", "b"]


@pytest.fixture()
def tree(tmp_path):
    src = tmp_path / "a" / "much" / "longer" / "src"
    (src / "pkg" / "__pycache__").mkdir(parents=True)
    (src / "pkg" / "__init__.py").write_text("X = 1\n")
    (src / "pkg" / "__pycache__" / "stale.pyc").write_bytes(b"")
    return src


def test_sides_are_fresh_siblings_of_one_length(tree, tmp_path):
    short = tmp_path / "s"
    short.mkdir()
    (short / "f.txt").write_text("short\n")
    with _ab.laid_out([str(tree), str(tree), str(short)]) as roots:
        assert len(set(roots)) == 3
        assert len({r.parent for r in roots}) == 1
        assert len({len(str(r)) for r in roots}) == 1
        for root in roots[:2]:
            assert (root / "pkg" / "__init__.py").read_text() == "X = 1\n"
            assert not (root / "pkg" / "__pycache__").exists()
        assert [p.name for p in roots[2].iterdir()] == ["f.txt"]
        parent = roots[0].parent
    assert not parent.exists()


def test_revisions_are_exported_as_siblings_of_one_length(tmp_path):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=tmp_path, check=True,
                       capture_output=True)

    git("init", "-q")
    (tmp_path / "f.txt").write_text("one\n")
    git("add", "f.txt")
    git("commit", "-q", "-m", "one")
    (tmp_path / "f.txt").write_text("two\n")
    git("commit", "-q", "-am", "two")
    (tmp_path / "untracked.txt").write_text("left out\n")
    with _ab.laid_out(["HEAD~1", "HEAD"], repo=tmp_path) as roots:
        assert roots[0] != roots[1] and roots[0].parent == roots[1].parent
        assert len(str(roots[0])) == len(str(roots[1]))
        assert [(r / "f.txt").read_text() for r in roots] == ["one\n", "two\n"]
        assert sorted(p.name for p in roots[1].iterdir()) == ["f.txt"]


def test_fresh_runs_a_tool_function_in_a_new_interpreter(tmp_path, monkeypatch):
    script = tmp_path / "tool.py"
    script.write_text("import os\n\ndef pid_and_sum(a, b):\n    print('noise')\n    return [os.getpid(), a + b]\n\n"
                      "def fails():\n    raise SystemExit(3)\n")
    spec = importlib.util.spec_from_file_location("tool", script)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setitem(sys.modules, "tool", tool)
    pid, total = _ab.fresh(tool.pid_and_sum, 2, 3)
    assert pid != os.getpid() and total == 5  # the last stdout line is the result
    with pytest.raises(RuntimeError, match="exited 3"):
        _ab.fresh(tool.fails)
