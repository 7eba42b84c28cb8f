"""Tier-1 tests and the CLI command set under each SIMD dispatch numpy can take on x86-64.

    python tools/simd_matrix.py

runs, in subprocesses one at a time, the tier-1 suite (``pytest -q`` in the
repo root) and ``tools/cli_identity.py``'s command set (its ``--run`` mode)
against the repo's ``src``, once per setting of ``NPY_DISABLE_CPU_FEATURES``:

- ``default``: the variable unset, numpy's own dispatch;
- ``no-avx512``: ``X86_V4 AVX512_ICL AVX512_SPR`` disabled (the AVX2 kernels);
- ``no-avx2``: ``X86_V3`` disabled as well (the baseline kernels).

The variable is set in those subprocesses' environment only.  Printed: per
setting the dispatch targets numpy reports, the suite's summary line and its
failing tests, and each CLI run whose exit code, stdout or stderr differs from
the default setting's, with the ``tools/cli_identity.py`` kind it falls in.
A report, not a gate: it exits 0 whatever it finds, and changes no pin.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC, TOOLS = REPO / "src", REPO / "tools"
SETTINGS = {
    "default": None,
    "no-avx512": "X86_V4 AVX512_ICL AVX512_SPR",
    "no-avx2": "X86_V4 AVX512_ICL AVX512_SPR X86_V3",
}
DISPATCH = (
    "from numpy._core._multiarray_umath import __cpu_dispatch__ as d, __cpu_features__ as f;"
    "print(' '.join(t for t in d if f[t]) or 'baseline only')"
)


def environment(disabled: str | None) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    return env


def run_tests(env: dict[str, str]) -> tuple[str, list[str]]:
    """The suite's summary line and its FAILED/ERROR lines."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", "--continue-on-collection-errors"],
        cwd=REPO, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    failed = [line for line in lines if re.match(r"(FAILED|ERROR) ", line)]
    summary = next((line for line in reversed(lines) if re.search(r"\d+ (passed|failed)", line)), f"exit {proc.returncode}")
    return summary.strip("= "), failed


def run_cli(env: dict[str, str], workdir: str, out: str, cases: str | None) -> list:
    """cli_identity.py's rows [argv, rc, stdout, stderr]; with cases, that file's command lines."""
    argv = [sys.executable, str(TOOLS / "cli_identity.py"), str(SRC), str(SRC), "--run", workdir, out]
    subprocess.run(argv + (["--cases", cases] if cases else []), env=env, check=True)
    return json.loads(Path(out).read_text())


def main() -> int:
    sys.path.insert(0, str(TOOLS))
    import cli_identity

    with tempfile.TemporaryDirectory() as tmp:
        base = None
        for name, disabled in SETTINGS.items():
            env = environment(disabled)
            dispatch = subprocess.run([sys.executable, "-c", DISPATCH], env=env, capture_output=True, text=True)
            print(f"== {name}: NPY_DISABLE_CPU_FEATURES={disabled or '(unset)'}; dispatch {dispatch.stdout.strip()}")
            summary, failed = run_tests(env)
            print(f"tier-1: {summary}")
            for line in failed:
                print(f"  {line}")
            # every setting runs the default's command lines, on the weight files it wrote
            cases = None if base is None else str(Path(tmp) / "default.json")
            rows = run_cli(env, tmp, str(Path(tmp) / f"{name}.json"), cases)
            if base is None:
                base = rows
                print(f"cli: {len(rows)} runs")
                continue
            differ = [(cli_identity.kind(a[0], a, b), a[0]) for a, b in zip(base, rows) if a != b]
            counts = sorted(Counter(k for k, _ in differ).items())
            print(f"cli: {len(rows)} runs, {len(rows) - len(differ)} identical to default; "
                  + ", ".join(f"{k} {n}" for k, n in counts))
            for k, argv in differ:
                print(f"  {k}: weightlab {' '.join(argv)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
