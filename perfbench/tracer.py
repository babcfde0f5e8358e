"""Per-layer tracing of dzv from outside the package.

The tracer wraps the functions and ball methods that one dzv layer calls in
another (for example ``dzv.dzeta.hurwitz_zeta`` or ``RealBall.mul``), times
each call as a span, and puts the originals back afterwards.  Nothing inside
``src/dzv`` is edited: a module-level function is replaced in every dzv
module that imported it, a method is replaced on its class.

Spans nest.  A span's self time is its duration minus the time of the spans
it caused, so the self times of all spans plus the unattributed remainder add
up to the traced wall time.  Stats are aggregated per span name as they are
recorded; individual spans are not stored, because the numeric layer alone
makes millions of calls in one run.

Cache behaviour is measured from outside: a span with a key function counts a
call as a hit when its key was seen before in this process, so over a whole
run ``hits / calls == 1 - distinct keys / calls``.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    hits: int = 0
    miss_s: float = 0.0
    seen: set = field(default_factory=set)

    def clear(self) -> None:
        """Zero the counters of a new window; keys seen so far stay seen."""
        self.calls, self.total_s, self.self_s, self.hits, self.miss_s = 0, 0.0, 0.0, 0, 0.0


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._stack = [0.0]  # child time accumulated by each open span
        self.stats: dict[str, SpanStats] = {}

    def wrap(self, name: str, fn: Callable, key: Optional[Callable] = None) -> Callable:
        st = self.stats.setdefault(name, SpanStats())
        stack, clock, seen = self._stack, self._clock, st.seen

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                stack[-1] += dur
                st.calls += 1
                st.total_s += dur
                st.self_s += dur - child
                if key is not None:
                    k = key(*args, **kwargs)
                    if k in seen:
                        st.hits += 1
                    else:
                        seen.add(k)
                        st.miss_s += dur

        traced.__wrapped__ = fn
        return traced

    def take(self) -> dict[str, SpanStats]:
        """Copy of the current window's stats; starts a new window."""
        out = {n: SpanStats(s.calls, s.total_s, s.self_s, s.hits, s.miss_s, set(s.seen))
               for n, s in self.stats.items()}
        for s in self.stats.values():
            s.clear()
        return out


# ---------------------------------------------------------------------------
# what is wrapped
# ---------------------------------------------------------------------------

def _hurwitz_key(s, a, ctx):
    # an int a and the equal Fraction hash alike, so they share a key
    if hasattr(a, "midpoint_fraction"):  # a RealBall argument
        a = (a.midpoint_fraction(), a.radius_fraction())
    return (s, a, ctx.working_precision)


def _table_key(l, ctx, jobs=1):
    return (l, ctx.working_precision)


def _bernoulli_key(m):
    return m


# (span name, defining module, attribute or "Class.attribute", key function).
# The first component of a span name is its layer.
SPANS = [
    ("cli.cmd_verify", "dzv.cli", "cmd_verify", None),
    ("cli.render_json", "dzv.cli", "render_json", None),
    ("identities.checks.theorem1_check", "dzv.identities", "theorem1_check", None),
    ("identities.checks.corollary1_check", "dzv.identities", "corollary1_check", None),
    ("identities.checks.gkz_parity_check", "dzv.identities", "gkz_parity_check", None),
    ("identities.checks.prop1_check", "dzv.identities", "prop1_check", None),
    ("identities.checks.lemma1_check", "dzv.identities", "lemma1_check", None),
    ("identities.checks.corollary2_exact_chain", "dzv.identities", "corollary2_exact_chain", None),
    ("identities.checks.check_from_sides", "dzv.identities", "check_from_sides", None),
    ("identities.checks.restricted_sum", "dzv.identities", "restricted_sum", None),
    ("dzeta.double_zeta", "dzv.dzeta", "double_zeta", None),
    ("dzeta.build_table", "dzv.dzeta", "build_table", None),
    ("dzeta.get_table", "dzv.dzeta", "get_table", _table_key),
    ("dzeta.gen_poly_eval", "dzv.dzeta", "gen_poly_eval", None),
    ("dzeta.gen_poly_real", "dzv.dzeta", "gen_poly_real", None),
    ("dzeta.functional_eq26_check", "dzv.dzeta", "functional_eq26_check", None),
    ("zeta.hurwitz_zeta", "dzv.zeta", "hurwitz_zeta", _hurwitz_key),
    ("zeta.zeta_numeric", "dzv.zeta", "zeta_numeric", None),
    ("zeta.zeta_even_exact", "dzv.zeta", "zeta_even_exact", None),
    ("bernoulli.bernoulli", "dzv.bernoulli", "bernoulli", _bernoulli_key),
    ("bernoulli.checks.euler_identity_check", "dzv.bernoulli", "euler_identity_check", None),
    ("bernoulli.checks.ramanujan_check", "dzv.bernoulli", "ramanujan_check", None),
    ("bernoulli.checks.ramanujan_sum", "dzv.bernoulli", "ramanujan_sum", None),
    ("numerics.from_fraction", "dzv.numerics", "RealBall.from_fraction", None),
    ("numerics.add", "dzv.numerics", "RealBall.add", None),
    ("numerics.sub", "dzv.numerics", "RealBall.sub", None),
    ("numerics.mul", "dzv.numerics", "RealBall.mul", None),
    ("numerics.mul_int", "dzv.numerics", "RealBall.mul_int", None),
    ("numerics.add_error", "dzv.numerics", "RealBall.add_error", None),
    ("numerics.pow_int", "dzv.numerics", "RealBall.pow_int", None),
    ("numerics.complex_add", "dzv.numerics", "ComplexBall.add", None),
    ("numerics.complex_sub", "dzv.numerics", "ComplexBall.sub", None),
    ("numerics.complex_mul", "dzv.numerics", "ComplexBall.mul", None),
    ("numerics.complex_mul_real", "dzv.numerics", "ComplexBall.mul_real", None),
    ("numerics.complex_from_fractions", "dzv.numerics", "ComplexBall.from_fractions", None),
    ("numerics.ball_sum", "dzv.numerics", "ball_sum", None),
    ("numerics.complex_sum", "dzv.numerics", "complex_sum", None),
    ("numerics.pi_const", "dzv.numerics", "pi_const", None),
    ("numerics.pipoly_eval", "dzv.numerics", "pipoly_eval", None),
    ("numerics.cube_root_of_unity", "dzv.numerics", "cube_root_of_unity", None),
    ("numerics.ball_is_zero_within", "dzv.numerics", "ball_is_zero_within", None),
    ("numerics.pipoly_add", "dzv.numerics", "PiPolynomial.__add__", None),
    ("numerics.pipoly_mul", "dzv.numerics", "PiPolynomial.__mul__", None),
    ("numerics.pipoly_mul", "dzv.numerics", "PiPolynomial.__rmul__", None),
]


def _dzv_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "dzv" or name.startswith("dzv."))]


def install(tracer: Tracer, spans=SPANS) -> list:
    """Replace every wrapped attribute; returns the (owner, attr, original)
    list that ``restore`` puts back."""
    patches = []
    wrappers: dict = {}
    modules = _dzv_modules()
    try:
        for name, modname, attr, key in spans:
            module = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = tracer.wrap(name, fn, key)
                new = wrappers[id(fn)]
                patches.append((cls, meth, raw))
                setattr(cls, meth, staticmethod(new) if isinstance(raw, staticmethod) else new)
                continue
            fn = getattr(module, attr)
            new = tracer.wrap(name, fn, key)
            for m in modules:
                if m.__dict__.get(attr) is fn:
                    patches.append((m, attr, fn))
                    setattr(m, attr, new)
    except BaseException:
        restore(patches)
        raise
    return patches


def restore(patches: list) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


@contextmanager
def tracing(tracer: Tracer, spans=SPANS):
    patches = install(tracer, spans)
    try:
        yield tracer
    finally:
        restore(patches)


# ---------------------------------------------------------------------------
# per-layer metrics from a window of stats
# ---------------------------------------------------------------------------

def _hit_ratio(st: SpanStats) -> float:
    return st.hits / st.calls if st.calls else 0.0


def layer_metrics(stats: dict[str, SpanStats], scale: int = 1) -> dict[str, float]:
    """Named per-layer metrics; times and counts are divided by ``scale``
    (the number of identical passes the window covers)."""
    empty = SpanStats()

    def st(name: str) -> SpanStats:
        return stats.get(name, empty)

    def self_of(prefix: str) -> float:
        return sum(s.self_s for n, s in stats.items() if n.startswith(prefix))

    def calls_of(prefix: str) -> int:
        return sum(s.calls for n, s in stats.items() if n.startswith(prefix))

    def per(count: int):
        return count // scale if count % scale == 0 else count / scale

    hz, tab, bern = st("zeta.hurwitz_zeta"), st("dzeta.get_table"), st("bernoulli.bernoulli")
    m = {
        "zeta.hurwitz_zeta.calls": per(hz.calls),
        "zeta.hurwitz_zeta.keys": per(hz.calls - hz.hits),
        "zeta.hurwitz_zeta.hit_ratio": _hit_ratio(hz),
        "zeta.hurwitz_zeta.self_s": hz.self_s / scale,
        "zeta.zeta_numeric.calls": per(st("zeta.zeta_numeric").calls),
        "zeta.zeta_numeric.self_s": st("zeta.zeta_numeric").self_s / scale,
        "zeta.self_s": self_of("zeta.") / scale,
        "dzeta.double_zeta.calls": per(st("dzeta.double_zeta").calls),
        "dzeta.double_zeta.self_s": st("dzeta.double_zeta").self_s / scale,
        "dzeta.get_table.calls": per(tab.calls),
        "dzeta.get_table.hit_ratio": _hit_ratio(tab),
        "dzeta.get_table.miss_s": tab.miss_s / scale,
        "dzeta.gen_poly_eval.calls": per(st("dzeta.gen_poly_eval").calls),
        "dzeta.gen_poly_eval.self_s": st("dzeta.gen_poly_eval").self_s / scale,
        "dzeta.self_s": self_of("dzeta.") / scale,
    }
    for op in ("from_fraction", "mul", "add", "ball_sum", "pi_const"):
        m[f"numerics.{op}.calls"] = per(st(f"numerics.{op}").calls)
    m["numerics.self_s"] = self_of("numerics.") / scale
    m["bernoulli.bernoulli.calls"] = per(bern.calls)
    m["bernoulli.bernoulli.max_index"] = max(bern.seen, default=0)
    m["bernoulli.bernoulli.self_s"] = bern.self_s / scale
    m["bernoulli.checks.self_s"] = self_of("bernoulli.checks.") / scale
    m["bernoulli.self_s"] = self_of("bernoulli.") / scale
    m["identities.checks.calls"] = per(calls_of("identities.checks."))
    m["identities.checks.self_s"] = self_of("identities.checks.") / scale
    m["cli.render_s"] = st("cli.render_json").total_s / scale
    m["cli.self_s"] = self_of("cli.") / scale
    return m


def spans_self_total(stats: dict[str, SpanStats]) -> float:
    return sum(s.self_s for s in stats.values())
