"""The A/B runner of the timing tools (bench_record.py and the three *_layers.py).

Each side runs from a fresh copy, of a source directory or of a git revision, in
a sibling directory of one temporary directory named at random with one length:
path and layout alone moved the benchmark's certify figures by up to 10% on
identical code, and names drawn anew on each use make what is left of that vary
from one use to the next rather than favour one side every time.
Rounds alternate which side runs first; a fresh run is one interpreter whose last
stdout line is JSON; ratios reduce to a median, inclusive quartiles and a win
count in which a tie is neither side's.
"""

from __future__ import annotations

import contextlib
import importlib.util
import json
import math
import secrets
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

# seconds the probe takes on a quiet reference machine; probed times read at that speed
PROBE_REFERENCE_S = 0.6e-3


@contextlib.contextmanager
def laid_out(sources: Sequence[str], repo: Path | None = None) -> Iterator[list[Path]]:
    """One fresh directory per source, siblings under one temporary directory, named at random with one length.

    A source is a directory, copied without ``__pycache__``, or, given ``repo``, a git revision of that
    repository, exported with ``git archive`` (tracked files only).  The directories go when the block ends.
    """
    with tempfile.TemporaryDirectory() as tmp:
        roots = []
        for source in sources:
            root = Path(tmp) / secrets.token_hex(4)
            root.mkdir()  # a name drawn twice raises rather than shares a directory
            if repo is None:
                shutil.copytree(source, root, dirs_exist_ok=True, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                archive = subprocess.run(["git", "archive", source], cwd=repo, capture_output=True, check=True).stdout
                subprocess.run(["tar", "-x", "-C", str(root)], input=archive, check=True)
            roots.append(root)
        yield roots


def orders(rounds: int, sides: int) -> Iterator[list[int]]:
    """Each round's run order of the side indices: as given in even rounds, reversed in odd ones."""
    for k in range(rounds):
        yield list(range(sides))[:: 1 if k % 2 == 0 else -1]


def alternate(rounds: int, sides: Sequence, run: Callable) -> list[list]:
    """run(side) for every side in every round, in ``orders``; per side, its results round by round."""
    out: list[list] = [[] for _ in sides]
    for order in orders(rounds, len(sides)):
        for i in order:
            out[i].append(run(sides[i]))
    return out


def run_json(cmd: list[str], cwd: Path | None = None, timeout: float | None = None):
    """The JSON value on the last stdout line of cmd, run to its end; RuntimeError when it fails or prints none."""
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{cwd or '.'}: {' '.join(cmd[1:])} exited {proc.returncode}: {proc.stderr[-400:]}")
    return json.loads(lines[-1])


def fresh(fn: Callable, *args):
    """fn(*args) in a fresh interpreter: fn a top-level function of a tool script, args and result JSON values."""
    script = sys.modules[fn.__module__].__file__
    return run_json([sys.executable, __file__, script, fn.__name__, json.dumps(args)])


def cpu_probe() -> float:
    """Seconds a fixed slice of interpreter and in-cache numpy work takes now."""
    import numpy as np

    t0 = time.perf_counter()
    x = 0.0
    for i in range(1, 3000):
        x += math.log(i) / i
    np.log(np.cumsum(np.linspace(1.0, 2.0, 20_000))).sum()
    return time.perf_counter() - t0


def probed(seconds: Callable[[], float], probes: int) -> float:
    """What seconds() returns, at the probe's reference speed: scaled by the median of `probes` CPU probes
    timed just before it and `probes` just after."""
    times = [cpu_probe() for _ in range(probes)]
    took = seconds()
    times += [cpu_probe() for _ in range(probes)]
    return took / (statistics.median(times) / PROBE_REFERENCE_S)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3), inclusive; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def wins(base: Sequence[float], other: Sequence[float], better: str) -> int:
    """Rounds in which other beats base in the direction `better` ("higher" or "lower"); a tie is neither's."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(sign * (o - b) > 0.0 for b, o in zip(base, other))


@dataclass(frozen=True)
class Versus:
    """other against base over rounds: the median of other / base, its quartiles, and the rounds other won."""

    ratio: float
    q1: float
    q3: float
    won: int
    rounds: int

    def __str__(self) -> str:
        return f"x{self.ratio:.3f} [{self.q1:.3f}-{self.q3:.3f}] ({self.won}/{self.rounds} faster)"


def versus(base: Sequence[float], other: Sequence[float]) -> Versus:
    """Times of other against times of base, round by round; the lower time wins."""
    q1, ratio, q3 = quartiles([o / b for b, o in zip(base, other)])
    return Versus(ratio, q1, q3, wins(base, other, "lower"), len(base))


if __name__ == "__main__":  # fresh's child: SCRIPT FUNCTION JSON_ARGS
    script, name, args = sys.argv[1:]
    spec = importlib.util.spec_from_file_location(Path(script).stem, script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    print(json.dumps(getattr(module, name)(*json.loads(args))))
