"""A mutation gate for the enclosure-critical code: every mutant below must be
killed by the tests named with it.

Each mutant is (name, file, old text, new text, test files).  The old text
occurs exactly once in its file (a tier-1 test checks this, so a refactor
that moves a site updates its mutant in the same change).  For each mutant
the runner copies ``src/`` and ``tests/`` into a fresh temporary directory,
replaces the old text with the new there, and runs the named tests with
``pytest -x`` under a timeout.  A failing run kills the mutant; a run that
times out counts as killed and is reported as a timeout; a passing run is a
survivor.  The working tree is never edited.  Before the mutants, the named
tests run once on an unmutated copy, which must pass, so a kill is never a
test that fails anyway.  Standard library only.

    python tests/mutants.py            # every mutant; exit 1 on a survivor
    python tests/mutants.py NAME ...   # the named mutants only

Left out as equivalent: ``_dy_add`` with ``e1 < e2`` for ``e1 <= e2`` (at
equal exponents both branches add the mantissas unshifted), and a ball_sum
that starts from the first ball rather than from (0, 0) (``_dy_add`` returns
its other argument unchanged when one mantissa is 0).
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 60


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple  # pytest arguments: test files or node ids, relative to the root


_NUMERICS = "src/dzv/numerics.py"
_DZETA = "src/dzv/dzeta.py"
_BYTE_IDENTITY = "tests/test_numerics.py::test_product_and_sum_rules_repeat_the_old_mul_add_and_entry"

MUTANTS = (
    Mutant("product-without-rad-a-rad-b", _NUMERICS,
           "*_dy_add(rm, re, a._rm * b._rm, a._re + b._re))",
           "rm, re)",
           (_BYTE_IDENTITY,)),
    Mutant("product-signed-midpoint-in-radius", _NUMERICS,
           "rm, re = _dy_add(abs(a._mm) * b._rm,",
           "rm, re = _dy_add(a._mm * b._rm,",
           (_BYTE_IDENTITY,)),
    Mutant("ball-sum-keeps-the-last-radius", _NUMERICS,
           "        rm, re = _dy_add(rm, re, b._rm, b._re)\n",
           "        rm, re = b._rm, b._re\n",
           (_BYTE_IDENTITY,)),
    Mutant("from-floors-without-floor-units", _NUMERICS,
           "floors + 2 * rad, -width - 1)",
           "2 * rad, -width - 1)",
           ("tests/test_numerics.py",)),
    Mutant("form-ball-quotient-without-its-unit", _DZETA,
           "RealBall.from_floors(f, 1, r, width)",
           "RealBall.from_floors(f, 0, r, width)",
           ("tests/test_dzeta.py::test_form_ball_encloses_the_form",
            "tests/test_dzeta.py::test_form_ball_quotient_next_to_a_power_of_two_holds_the_form")),
    Mutant("rounded-without-its-half-ulp", _NUMERICS,
           "            rm, re = _dy_add(rm, re, 1, me - 1)\n",
           "",
           ("tests/test_numerics.py",)),
    Mutant("em-sum-remainder-at-twice-the-bound", "src/dzv/zeta.py",
           "rad + 4 * bound, width)",
           "rad + 2 * bound, width)",
           ("tests/test_zeta.py", "tests/test_dzeta.py")),
    Mutant("class-sums-middle-term-not-doubled", "src/dzv/bernoulli.py",
           "g // k << (2 * j == l)",
           "g // k",
           ("tests/test_bernoulli.py",)),
    Mutant("direct-sums-kept-partner-is-the-current-row", _DZETA,
           "l - k: kept.pop(l - k, row)}",
           "l - k: row}",
           ("tests/test_dzeta.py",)),
    Mutant("class-sums-cofactor-dropped", "src/dzv/bernoulli.py",
           "ck * (d // h) * na * nb",
           "ck * na * nb",
           ("tests/test_bernoulli.py",)),
    Mutant("table-classes-first-slot-off-by-one", _DZETA,
           "(r - 2) % 6 + 1",
           "(r - 1) % 6 + 1",
           ("tests/test_identities.py",)),
    Mutant("form-ball-content-not-multiplied-back", _DZETA,
           "g * scale.numerator",
           "scale.numerator",
           ("tests/test_identities.py",)),
    Mutant("tail-head-radius-dropped", _DZETA,
           "_em_sum(f1 + f2, 2, r1 + r2,",
           "_em_sum(f1 + f2, 2, r1,",
           ("tests/test_dzeta.py",)),
    Mutant("gen-poly-eval-unit-without-k", _DZETA,
           "_powers(b, d)), e + k",
           "_powers(b, d)), e",
           ("tests/test_dzeta.py",)),
)


def _copy(into: Path) -> None:
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, into / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis", "*.pyc"))


def _pytest(tree: Path, tests: tuple) -> str:
    """"passed", "failed" or "timeout" for ``pytest -x`` of the tests in tree,
    with tree's ``src`` first on the import path."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    try:
        return "passed" if proc.wait(timeout=TIMEOUT_S) == 0 else "failed"
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the tests' own subprocesses too
        proc.wait()
        return "timeout"


def occurrences(m: Mutant) -> int:
    return (ROOT / m.file).read_text(encoding="utf-8").count(m.old)


def run(mutants) -> int:
    """Run each mutant in its own copy; 0 when every one is killed, 1 when one
    survives, 2 when a site is not found once or the unmutated tests fail."""
    bad = [m.name for m in mutants if occurrences(m) != 1]
    if bad:
        print(f"old text not found exactly once: {', '.join(bad)}")
        return 2
    with tempfile.TemporaryDirectory(prefix="dzv-mutant-") as tmp:
        base = Path(tmp) / "base"
        _copy(base)
        tests = tuple(dict.fromkeys(t for m in mutants for t in m.tests))
        if _pytest(base, tests) != "passed":
            print(f"the unmutated tests do not pass: {' '.join(tests)}")
            return 2
        shutil.rmtree(base)
        survivors = []
        for m in mutants:
            tree = Path(tmp) / m.name
            _copy(tree)
            path = tree / m.file
            path.write_text(path.read_text(encoding="utf-8").replace(m.old, m.new),
                            encoding="utf-8")
            start = time.monotonic()
            outcome = _pytest(tree, m.tests)
            shutil.rmtree(tree)
            verdict = {"failed": "killed", "timeout": "killed (timeout)"}.get(outcome, "SURVIVED")
            print(f"{m.name}: {verdict} in {time.monotonic() - start:.1f} s", flush=True)
            if outcome == "passed":
                survivors.append(m.name)
    if survivors:
        print(f"{len(survivors)} of {len(mutants)} mutants survived: {', '.join(survivors)}")
        return 1
    print(f"all {len(mutants)} mutants killed")
    return 0


def main(argv) -> int:
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in argv if n not in by_name]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}; known: {', '.join(by_name)}")
        return 2
    return run([by_name[n] for n in argv] if argv else MUTANTS)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
