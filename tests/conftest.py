import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from dzv import dzeta as dzeta_mod
from dzv import zeta as zeta_mod
from dzv.numerics import PrecisionCtx


@pytest.fixture(scope="session")
def ctx128() -> PrecisionCtx:
    return PrecisionCtx(128, Fraction(1, 10**30))


@pytest.fixture(scope="session")
def ctx192() -> PrecisionCtx:
    return PrecisionCtx(192, Fraction(1, 10**40))


@pytest.fixture(scope="session")
def ctx64() -> PrecisionCtx:
    return PrecisionCtx(64, Fraction(1, 10**10))


@pytest.fixture
def em_sums(monkeypatch) -> list:
    """Every call of the Euler-Maclaurin rule ``_em_sum``, from the Hurwitz
    kernel and the double-zeta tail alike, recorded in call order with its
    ``negligible``, ``width``, the corrections (f, r) it drew, the returned
    ``ball`` and its ``remainder``: 4 (|f| + 1 + r) units of 2^-width for the
    last correction drawn, the omitted one."""
    calls = []
    em_sum = zeta_mod._em_sum

    def recorded(total, floors, rad, corrections, negligible, width):
        drawn = []

        def draw():
            for c in corrections:
                drawn.append(c)
                yield c
        ball = em_sum(total, floors, rad, draw(), negligible, width)
        f, r = drawn[-1]
        calls.append(SimpleNamespace(negligible=negligible, width=width, drawn=drawn, ball=ball,
                                     remainder=Fraction(4 * (abs(f) + 1 + r), 2**width)))
        return ball

    monkeypatch.setattr(zeta_mod, "_em_sum", recorded)
    monkeypatch.setattr(dzeta_mod, "_em_sum", recorded)
    return calls
