"""Self-tests of the benchmark harness (standard library only).

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
for p in (HERE, HERE.parent / "src"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

from tracer import SpanStats, Tracer, layer_metrics, spans_self_total, tracing  # noqa: E402
from workloads import (WORKLOADS, bernoulli_spot_problems, margin_digits,  # noqa: E402
                       output_problems, summarize_report)


def _record(mid: str, rad: str, tol: str = "1e-40", **extra) -> dict:
    return {"label": "x", "weight": 4, "lhs": "", "rhs": "", "residual_midpoint": mid,
            "residual_radius": rad, "exact": False, "passed": True, "tolerance": tol, **extra}


class MarginTest(unittest.TestCase):
    def test_radius_only(self):
        m = margin_digits(_record("0." + "0" * 60, "1.0e-73"))
        self.assertAlmostEqual(m, 33.0, places=12)

    def test_midpoint_and_radius_add(self):
        m = margin_digits(_record("-0." + "0" * 44 + "5", "5e-45"))
        self.assertAlmostEqual(m, 4.0, places=12)

    def test_complex_midpoint_takes_larger_part(self):
        mid = "0." + "0" * 44 + "1 + -0." + "0" * 43 + "1i"
        self.assertAlmostEqual(margin_digits(_record(mid, "0")), 4.0, places=12)

    def test_no_margin_for_exact_skipped_errored_or_zero(self):
        self.assertIsNone(margin_digits({"exact": True, "residual_midpoint": "0",
                                         "residual_radius": "0", "passed": True}))
        self.assertIsNone(margin_digits(_record("", "", skipped_reason="needs even weight")))
        self.assertIsNone(margin_digits(_record("", "", error="unreachable")))
        self.assertIsNone(margin_digits(_record("0.000", "0")))

    def test_summary_takes_smallest_margin(self):
        reports = [{"suite": "s", "checks": [_record("0", "1e-50"), _record("0", "1e-45"),
                                             _record("", "", skipped_reason="skip")]}]
        s = summarize_report(reports)
        self.assertEqual((s.records, s.attempted, s.skipped, s.failed), (3, 2, 1, 0))
        self.assertAlmostEqual(s.min_margin_digits, 5.0, places=12)


class FakeClock:
    def __init__(self, *times):
        self._times = iter(times)

    def __call__(self) -> float:
        return next(self._times)


class SpanTest(unittest.TestCase):
    def test_self_time_of_nested_spans(self):
        # outer [0, 10] contains inner [1, 3] and inner [4, 8]
        tracer = Tracer(clock=FakeClock(0.0, 1.0, 3.0, 4.0, 8.0, 10.0))
        inner = tracer.wrap("dzeta.inner", lambda: None)

        def outer_fn():
            inner()
            inner()

        tracer.wrap("cli.outer", outer_fn)()
        outer, inner_st = tracer.stats["cli.outer"], tracer.stats["dzeta.inner"]
        self.assertEqual((outer.calls, outer.total_s, outer.self_s), (1, 10.0, 4.0))
        self.assertEqual((inner_st.calls, inner_st.total_s, inner_st.self_s), (2, 6.0, 6.0))
        self.assertEqual(spans_self_total(tracer.stats), 10.0)

    def test_self_time_survives_an_exception(self):
        tracer = Tracer(clock=FakeClock(0.0, 2.0, 5.0, 6.0))

        def fail():
            raise ValueError

        inner = tracer.wrap("zeta.fail", fail)

        def outer_fn():
            try:
                inner()
            except ValueError:
                pass

        tracer.wrap("dzeta.outer", outer_fn)()
        self.assertEqual(tracer.stats["dzeta.outer"].self_s, 3.0)
        self.assertEqual(tracer.stats["zeta.fail"].self_s, 3.0)

    def test_hit_ratio_from_distinct_keys(self):
        tracer = Tracer()
        f = tracer.wrap("dzeta.get_table", lambda l, bits: None, key=lambda l, bits: (l, bits))
        for args in [(3, 192), (4, 192), (3, 192), (3, 512), (3, 192)]:
            f(*args)
        st = tracer.stats["dzeta.get_table"]
        self.assertEqual((st.calls, st.hits, len(st.seen)), (5, 2, 3))
        self.assertAlmostEqual(layer_metrics(tracer.stats)["dzeta.get_table.hit_ratio"], 1 - 3 / 5)

    def test_window_keeps_seen_keys(self):
        tracer = Tracer()
        f = tracer.wrap("dzeta.get_table", lambda l: None, key=lambda l: l)
        f(3)
        f(4)
        first = tracer.take()
        self.assertEqual(first["dzeta.get_table"].calls, 2)
        f(3)
        f(4)
        m = layer_metrics(tracer.take())
        self.assertEqual((m["dzeta.get_table.calls"], m["dzeta.get_table.hit_ratio"]), (2, 1.0))

    def test_layer_sums_and_scale(self):
        stats = {"bernoulli.bernoulli": SpanStats(calls=4, self_s=1.0, seen={2, 10, 4}),
                 "bernoulli.checks.ramanujan_sum": SpanStats(calls=2, self_s=3.0),
                 "numerics.mul": SpanStats(calls=6, self_s=0.5),
                 "numerics.complex_mul": SpanStats(calls=2, self_s=0.5)}
        m = layer_metrics(stats, scale=2)
        self.assertEqual(m["bernoulli.bernoulli.max_index"], 10)
        self.assertEqual(m["bernoulli.self_s"], 2.0)
        self.assertEqual(m["bernoulli.checks.self_s"], 1.5)
        self.assertEqual(m["numerics.mul.calls"], 3)
        self.assertEqual(m["numerics.self_s"], 0.5)
        self.assertEqual(m["zeta.hurwitz_zeta.hit_ratio"], 0.0)


class RestoreTest(unittest.TestCase):
    def _attributes(self):
        import dzv
        import dzv.cli
        import dzv.dzeta
        import dzv.zeta
        from dzv.numerics import PiPolynomial, RealBall
        return {
            "dzeta.hurwitz_zeta": dzv.dzeta.hurwitz_zeta,
            "zeta.hurwitz_zeta": dzv.zeta.hurwitz_zeta,
            "cli.get_table": dzv.cli.get_table,
            "dzv.get_table": dzv.get_table,
            "RealBall.from_fraction": RealBall.__dict__["from_fraction"],
            "RealBall.mul": RealBall.__dict__["mul"],
            "PiPolynomial.__mul__": PiPolynomial.__dict__["__mul__"],
            "PiPolynomial.__rmul__": PiPolynomial.__dict__["__rmul__"],
        }

    def test_originals_restored_and_untraced_after(self):
        from dzv import PrecisionCtx, RealBall, hurwitz_zeta
        before = self._attributes()
        tracer = Tracer()
        with tracing(tracer):
            during = self._attributes()
            import dzv.zeta
            dzv.zeta.hurwitz_zeta(3, 2, PrecisionCtx(64))
        for name, original in before.items():
            self.assertIsNot(during[name], original, name)
        self.assertEqual(self._attributes(), before)
        calls = {n: s.calls for n, s in tracer.stats.items()}
        self.assertGreater(calls["zeta.hurwitz_zeta"], 0)
        hurwitz_zeta(3, 5, PrecisionCtx(64))
        RealBall.from_fraction(Fraction(1, 3), 64)
        self.assertEqual({n: s.calls for n, s in tracer.stats.items()}, calls)

    def test_restored_after_an_exception(self):
        before = self._attributes()
        with self.assertRaises(RuntimeError):
            with tracing(Tracer()):
                raise RuntimeError
        self.assertEqual(self._attributes(), before)


class GateTest(unittest.TestCase):
    def test_output_problems(self):
        w = WORKLOADS["tables-192"]
        good = summarize_report([{"suite": "s", "checks": [_record("0", "1e-50")] * 70
                                  + [_record("", "", skipped_reason="skip")] * 28}])
        self.assertEqual(output_problems(w, 0, good), [])
        self.assertEqual(len(output_problems(w, 1, good)), 1)
        short = summarize_report([{"suite": "s", "checks": [_record("0", "1e-50")] * 97}])
        self.assertEqual(len(output_problems(w, 0, short)), 1)

    def _euler_report(self, b12: Fraction) -> list:
        from dzv import bernoulli
        checks = []
        for l in range(4, 31, 2):
            b = b12 if l == 12 else bernoulli(l)
            checks.append({"weight": l, "rhs": str(-(l - 1) * b)})
        return [{"suite": "euler-bernoulli", "checks": checks}]

    def test_bernoulli_spot_values(self):
        self.assertEqual(bernoulli_spot_problems(self._euler_report(Fraction(-691, 2730))), [])
        self.assertEqual(len(bernoulli_spot_problems(self._euler_report(Fraction(691, 2730)))), 1)


if __name__ == "__main__":
    unittest.main()
