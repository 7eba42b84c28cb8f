"""Acceptance gate: every numbered criterion must hold at its stated tolerance.

Each criterion is implemented once in weightlab.selftest (shared with the
`weightlab selftest` subcommand) and surfaced here as its own test so the
suite prints one pass/fail line per criterion. The invariant sweeps that
back the unit suites ride along at the end.
"""

import dataclasses

import pytest

from weightlab import selftest

_CRITERIA = [(name, fn) for name, fn in selftest.CHECKS if name.startswith("criterion_")]
_INVARIANTS = [(name, fn) for name, fn in selftest.CHECKS if name.startswith("invariants_")]

assert len(_CRITERIA) == 12


@pytest.mark.parametrize(
    "name,fn", _CRITERIA, ids=[name for name, _ in _CRITERIA]
)
def test_criterion(name, fn):
    ok, detail = fn()
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.mark.parametrize(
    "name,fn", _INVARIANTS, ids=[name for name, _ in _INVARIANTS]
)
def test_invariants(name, fn):
    ok, detail = fn()
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _build_then(move):
    """selftest's build_partition, its tree's rows then changed by move(ends, points)."""
    build = selftest.dyadic.build_partition

    def patched(*args, **kwargs):
        tree = build(*args, **kwargs)
        ends, points = tree.ends.copy(), tree.points.copy()
        move(ends, points)
        return dataclasses.replace(tree, ends=ends, points=points)

    return patched


def test_dyadic_chain_criterion_sees_a_moved_child_end(monkeypatch):
    def move(ends, points):  # the last left child, row n - 2, keeps 0.03 of its parent's interval
        (a, b), k = ends[(ends.shape[0] - 3) // 2], ends.shape[0] - 2
        ends[k, 1] = a + 0.03 * (b - a)

    monkeypatch.setattr(selftest.dyadic, "build_partition", _build_then(move))
    ok, detail = selftest.criterion_10_dyadic_chain()
    # the chain still passes: only the alphas read from the rows fail the check
    assert ok is False and detail.startswith("alphas in [0.030, 0.500]; sums monotone: True; S_8 = -0.2499")


def test_dyadic_invariants_see_a_moved_child_point(monkeypatch):
    def move(ends, points):  # node 1's right child, row 4, moves its x by one part in 10^10
        points[4, 0] *= 1.0 + 1e-10

    monkeypatch.setattr(selftest.dyadic, "build_partition", _build_then(move))
    ok, detail = selftest.invariants_dyadic()
    # the chains stay monotone: only the martingale defect read from the rows fails the check
    assert ok is False and detail == "martingale defect 5.0e-11; chains monotone: True (8 weights)"
