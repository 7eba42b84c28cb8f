"""The command-line output contract, fuzzed as one property over every subcommand.

Every run of ``cli.main`` on arguments argparse accepts either succeeds
(exit 0), flags a check that ran and failed (exit 1) or refuses its input
(exit 2, stderr ``error: ...``).  Nothing escapes ``main``, no warning is
raised, JSON output is JSON proper and every CSV row has the header's width.
The numbers are drawn from the values that break floating point (signed
zeros, the smallest subnormal, exp's overflow edges, inf, nan) and from a
log-uniform spread over the whole double range, by the strategies
tests/_strategies.py shares with the library property.

Each option is written as ``--name=value``, which main leaves to argparse,
or, where its value does not start with '-', as ``--name value``, the form
``cli._parse_plain`` parses in one pass; a run mixes the two.

A plain run takes 50 examples per subcommand (tests/conftest.py), and
``pytest tests/test_cli_contract.py --hypothesis-profile=contract`` 2,000.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings

import pytest
from hypothesis import HealthCheck, find, given, settings
from hypothesis import strategies as st

from weightlab import cli, selftest
from weightlab.constants import KNOWN_CONSTANTS

from _strategies import NUMBERS, point, weight_json

P_VALUES = st.lists(st.floats(1.0, 50.0, exclude_min=True) | NUMBERS, max_size=3)
Q_LIST = st.lists(NUMBERS, max_size=5)
LIST_END = st.sampled_from(("", ",", ",apple"))
WHICH = st.lists(st.sampled_from(KNOWN_CONSTANTS), min_size=1, max_size=6, unique=True)
FORMATS = st.sampled_from(("json", "csv"))
EQUATIONS = st.sampled_from(("gamma-log", "gamma-entropy", "eps-minus", "gehring-sharp", "gehring-n", "funny"))
SURFACES, FAMILIES = st.sampled_from(tuple(cli._SURFACES)), st.sampled_from(tuple(cli._FAMILIES))
VERIFY = st.sampled_from(("hessian", "bounds", "tangent"))
RATIO = st.floats(1.0, 3.0, exclude_min=True)
DYADIC_Q, DELTA0 = st.floats(0.5, 60.0) | NUMBERS, st.floats(0.001, 0.46) | NUMBERS
# the two slowest checks (moment quadrature ~1 s, truncation monotonicity ~0.1 s) are left out
SLOW_CHECKS = ("criterion_12_moment_quadrature", "criterion_09_truncation_monotonicity")
CHECK_NAMES = st.lists(
    st.sampled_from(tuple(n for n, _ in selftest.CHECKS if n not in SLOW_CHECKS) + ("no-such-check", "")),
    min_size=1,
    max_size=3,
)

# paths under TMP/ are made relative to a fresh directory per run; TMP/missing/ does not exist
TMP = "TMP/"
OUTPUTS = st.sampled_from((TMP + "out", TMP + "missing/out"))
EMITS = st.sampled_from((TMP + "w.json", TMP + "w.csv", TMP + "w.txt", TMP + "missing/w.csv"))


def _opt(name, value):
    # --name=value keeps a leading minus (-inf, -1e-300) from reading as an option
    return [f"--{name}={value!r}"] if isinstance(value, float) else [f"--{name}={value}"]


def _maybe(draw, name, values):
    return _opt(name, draw(values)) if draw(st.booleans()) else []


WEIGHTS = weight_json()


def _real_list(draw, values):
    return ",".join(repr(v) for v in draw(values)) + draw(LIST_END)


@st.composite
def _constants(draw):
    argv = ["--weight", TMP + "w.json", "--which", ",".join(draw(WHICH))]
    argv += _opt("p-values", _real_list(draw, P_VALUES))
    argv += _opt("resolution", draw(st.integers(-1, 101)))
    argv += _opt("maximal-resolution", draw(st.integers(-1, 24)))
    return argv + _opt("format", draw(FORMATS)), draw(WEIGHTS)


@st.composite
def _solve(draw):
    argv = _opt("equation", draw(EQUATIONS))
    for name in ("q", "p", "k"):
        argv += _maybe(draw, name, NUMBERS)
    return argv + _maybe(draw, "n", st.integers(-2, 12)), None


@st.composite
def _bellman(draw):
    q = draw(NUMBERS)
    argv = _opt("surface", draw(SURFACES)) + _opt("q", q) + _maybe(draw, "eps", NUMBERS)
    if draw(st.booleans()):
        x, y = point(draw, q)
        argv += _opt("eval", draw(st.sampled_from((f"{x!r},{y!r}", repr(x), f"{x!r},{y!r},1", "x,y"))))
    else:
        argv += _opt("verify", draw(VERIFY)) + _maybe(draw, "grid", st.integers(-1, 12))
    return argv + _maybe(draw, "output", OUTPUTS), None


@st.composite
def _extremal(draw):
    q = draw(NUMBERS)
    argv = _opt("family", draw(FAMILIES)) + _opt("q", q)
    x, y = point(draw, q)
    argv += draw(st.sampled_from(([], _opt("x", x) + _opt("y", y), _opt("x", x), _opt("y", y))))
    argv += _maybe(draw, "eps", NUMBERS) + _maybe(draw, "emit", EMITS)
    return argv + _maybe(draw, "output", OUTPUTS), None


@st.composite
def _dyadic(draw):
    q = draw(DYADIC_Q)
    q1 = q * draw(RATIO) if draw(st.booleans()) else draw(NUMBERS)
    argv = ["--weight", TMP + "w.json", *_opt("mode", draw(st.sampled_from(("log", "entropy"))))]
    argv += _opt("q", q) + _opt("q1", q1) + _opt("depth", draw(st.integers(-1, 6)))
    argv += _maybe(draw, "delta0", DELTA0) + _maybe(draw, "eps", NUMBERS)
    argv += ["--verify"] if draw(st.booleans()) else []
    argv += _opt("format", draw(FORMATS)) + _maybe(draw, "output", OUTPUTS)
    return argv, draw(WEIGHTS)


@st.composite
def _sweep(draw):
    argv = _opt("q-list", _real_list(draw, Q_LIST)) + _opt("format", draw(FORMATS))
    return argv + _maybe(draw, "output", OUTPUTS), None


@st.composite
def _selftest(draw):
    names = draw(CHECK_NAMES)
    return [f"--only={','.join(names)}" if any(names) else "--only=,"], None


ARGV = {
    "constants": _constants(),
    "solve": _solve(),
    "bellman": _bellman(),
    "extremal": _extremal(),
    "dyadic": _dyadic(),
    "sweep": _sweep(),
    "selftest": _selftest(),
}


def _spaced(argv, split):
    """argv with each --name=value that split marks, and whose value does not start with '-', as --name value."""
    out = []
    for arg, sep in zip(argv, split):
        name, eq, value = arg.partition("=")
        out += [name, value] if sep and eq and not value.startswith("-") else [arg]
    return out


@st.composite
def _run(draw, command):
    argv, weight = draw(ARGV[command])
    return _spaced(argv, draw(st.lists(st.booleans(), min_size=len(argv), max_size=len(argv)))), weight


RUNS = {command: _run(command) for command in ARGV}
# subcommands that run a check, and so may exit 1
CHECKING = {"bellman", "dyadic", "selftest"}


def _strict_json(text):
    assert "NaN" not in text
    return json.loads(text, parse_constant=lambda token: pytest.fail(f"non-JSON {token}"))


def _assert_csv(text):
    header, *rows = text.splitlines()
    width = len(header.split(","))
    assert all(len(row.split(",")) == width for row in rows), text


def _value(argv, name):
    """The value argv gives --name, in either form, else None."""
    for k, arg in enumerate(argv):
        if arg.startswith(f"--{name}="):
            return arg.split("=", 1)[1]
        if arg == f"--{name}" and k + 1 < len(argv):
            return argv[k + 1]
    return None


def _check_run(command, argv, weight):
    """Run cli.main on argv, weight written to TMP/w.json, and check the contract."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = [a.replace(TMP, tmp + os.sep) for a in argv]
        if weight is not None:
            with open(os.path.join(tmp, "w.json"), "w") as fh:
                json.dump(weight, fh)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            rc = cli.main([command, *argv])
        assert rc in ((0, 1, 2) if command in CHECKING else (0, 2))
        if rc == 2:  # refused: nothing on stdout, one error line on stderr
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error:")
            assert "\n" not in err.getvalue().rstrip("\n")
            return
        assert err.getvalue() == ""
        path = _value(argv, "output")
        if path is not None:
            assert out.getvalue() == ""
            with open(path) as fh:
                text = fh.read()
        else:
            text = out.getvalue()
        assert text.endswith("\n")
        if command == "selftest":
            *checks, summary = text.splitlines()
            assert all(line.startswith(("PASS ", "FAIL ")) for line in checks)
            assert summary.startswith("OK (" if rc == 0 else "FAILED (")
        elif text.startswith("{"):  # a JSON payload is always an object
            _strict_json(text)
        else:
            _assert_csv(text)
        emitted = _value(argv, "emit")
        if emitted is not None and emitted.endswith(".csv"):
            with open(emitted) as fh:
                _assert_csv(fh.read())


@pytest.mark.parametrize("command", tuple(ARGV))
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_run_keeps_the_output_contract(command, data):
    _check_run(command, *data.draw(RUNS[command], label="argv"))


@pytest.mark.parametrize("command", tuple(ARGV))
def test_runs_take_both_parses(command):
    # some drawn run is parsed in cli._parse_plain's one pass, and some is left to argparse
    for plain in (True, False):
        find(RUNS[command], lambda run: (cli._parse_plain([command, *run[0]]) is not None) is plain,
             settings=settings(database=None, max_examples=500))
