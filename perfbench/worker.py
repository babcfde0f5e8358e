"""One measured dzv process, started by run.py.

    worker.py cli  WORKLOAD --report FILE --result FILE [--trace]
    worker.py warm WORKLOAD --result FILE --t0 T --seed N --budget S [--trace]

``cli`` is a cold ``dzv verify`` run.  Untraced it calls ``dzv.cli.main``, as
the ``dzv`` console script does; traced it makes the same run through the
public ``RunConfig``/``cmd_verify``/``render_json`` calls with the tracer
installed, because ``main`` picks its renderer from a private table the
tracer does not patch.  Either way it then reads the independent spot values
from the tables the run cached.

``warm`` sets up once (one ``cmd_verify`` builds every table), then times
passes of ``cmd_verify`` + ``render_json`` + the functional equation at seeded
points, for ``--budget`` seconds, or for a fixed number of passes when traced.

The result file is JSON; the harness reads the report and the result after
the process has exited, so parsing is never timed.
"""

from __future__ import annotations

import argparse
import json
import time
from contextlib import nullcontext

from workloads import WORKLOADS, eq26_points, output_problems, summarize_report, \
    table_spot_problems

TRACED_PASSES = 3
MIN_PASSES = 2


def _traced_cli(w, report_path: str) -> tuple:
    import dzv.cli as cli
    from tracer import Tracer, layer_metrics, spans_self_total, tracing
    tracer = Tracer()
    with tracing(tracer):  # call through the module, where the wrappers are
        reports, code = cli.cmd_verify(w.run_config())
        text = cli.render_json(reports)
    stats = tracer.take()
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    metrics = layer_metrics(stats)
    metrics["cli.records"] = sum(len(r.checks) for r in reports)
    metrics["cli.report_bytes"] = len(text.encode())
    metrics["dzeta.get_table.setup_miss_s"] = 0.0
    return code, {"metrics": metrics, "spans_self_s": spans_self_total(stats)}


def run_cli(args) -> dict:
    w = WORKLOADS[args.workload]
    trace = None
    if args.trace:
        code, trace = _traced_cli(w, args.report)
    else:
        from dzv.cli import main
        code = main(w.cli_args() + ["--out", args.report])
    spot = table_spot_problems(w.precision) if w.tables and code == 0 else []
    return {"exit_code": code, "spot_problems": spot, "trace": trace}


def _eq26_failures(points: list, ctx) -> int:
    import dzv.dzeta as dzeta
    from dzv import ComplexBall, ball_is_zero_within
    wp = ctx.working_precision + 48  # the guard bits the CLI's eq26 suite uses
    failed = 0
    for l, x, y in points:
        r = dzeta.functional_eq26_check(l, ComplexBall.from_fractions(x, 0, wp),
                                        ComplexBall.from_fractions(y, 0, wp), ctx)
        ok_re, _ = ball_is_zero_within(r.real, ctx.target_tolerance)
        ok_im, _ = ball_is_zero_within(r.imag, ctx.target_tolerance)
        failed += not (ok_re and ok_im)
    return failed


def run_warm(args) -> dict:
    import dzv.cli as cli
    from tracer import Tracer, layer_metrics, spans_self_total, tracing
    w = WORKLOADS[args.workload]
    tracer = Tracer()  # records nothing unless installed
    with tracing(tracer) if args.trace else nullcontext():
        config = w.run_config()
        ctx = config.ctx()
        reports, code = cli.cmd_verify(config)
        setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0
        setup_stats = tracer.take()
        setup_problems = output_problems(w, code, summarize_report([r.to_dict() for r in reports]))

        points = eq26_points(args.seed, w.weights)
        passes = []
        start = time.perf_counter()
        while True:
            t0, c0 = time.perf_counter(), time.process_time()
            reports, code = cli.cmd_verify(config)
            text = cli.render_json(reports)
            eq26_failed = _eq26_failures(points, ctx)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            s = summarize_report(json.loads(text))
            passes.append({"wall_s": wall, "cpu_s": cpu, "report_bytes": len(text.encode()),
                           "records": s.records, "attempted": s.attempted + len(points),
                           "failed": s.failed + eq26_failed,
                           "min_margin_digits": s.min_margin_digits,
                           "problems": output_problems(w, code, s)
                           + ([f"{eq26_failed} eq26 points failed"] if eq26_failed else [])})
            if len(passes) >= TRACED_PASSES if args.trace else \
                    len(passes) >= MIN_PASSES and time.perf_counter() - start >= args.budget:
                break
        stats = tracer.take()

    trace = None
    if args.trace:
        n = len(passes)
        metrics = layer_metrics(stats, scale=n)
        metrics["cli.records"] = passes[0]["records"]
        metrics["cli.report_bytes"] = passes[0]["report_bytes"]
        metrics["dzeta.get_table.setup_miss_s"] = setup_stats["dzeta.get_table"].miss_s
        trace = {"metrics": metrics, "spans_self_s": spans_self_total(stats) / n}
    return {"setup_s": setup_s, "setup_problems": setup_problems, "passes": passes,
            "spot_problems": table_spot_problems(w.precision), "trace": trace}


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=["cli", "warm"])
    p.add_argument("workload", choices=sorted(WORKLOADS))
    p.add_argument("--result", required=True)
    p.add_argument("--report")
    p.add_argument("--t0", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--budget", type=float)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()
    out = run_cli(args) if args.mode == "cli" else run_warm(args)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
