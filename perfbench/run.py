"""dzv benchmark: end-to-end and per-layer timings of ``dzv verify`` sweeps.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports dzv from ``src``.  The
workloads, metrics and output checks are described in perfbench/README.md.

``--trace 0`` measures untraced processes (cold workloads) or passes
(``warm-checks``) for ``--seconds`` and reports medians of the end-to-end
metrics.  ``--trace 1`` measures one untraced and one traced process and
reports the per-layer metrics of the traced one.  Every metric is printed as
``workload name = value unit``; the last line is the JSON result.  Each run
also writes ``perfbench/out/<workload>-seed<N>-trace<T>.json`` with every
sample, the interpreter, the core count and the commit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, bernoulli_spot_problems, output_problems, summarize_report

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKER = ROOT / "perfbench" / "worker.py"

SETUP_PROBES = 7      # interpreter start + import dzv, timed this many times
COLD_PROCESSES = 2    # an untraced cold run measures at least this many processes
WARM_PROCESSES = 3    # warm-checks set-up is timed once per process
RUN_DEADLINE_S = 170  # every process of one run is killed after this

UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = (("_s", "s"), ("ratio", "ratio"), ("bytes", "bytes"), ("max_index", "index"))


@dataclass
class Finished:
    """Exit code, wall time, CPU time and peak RSS of one finished process."""

    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def run_process(argv: list, env: dict, log, deadline: float) -> Finished:
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=log, stderr=log)
    killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Finished(proc.returncode, wall_s, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024)  # ru_maxrss is in kilobytes on Linux


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _provenance() -> dict:
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "commit": _commit(),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _read_json(path: Path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


class Run:
    def __init__(self, args):
        self.w = WORKLOADS[args.workload]
        self.args = args
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.env = {k: v for k, v in os.environ.items() if k != "DZV_PRECISION"}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        self.log = open(OUT / f"{self.tag}.log", "w", encoding="utf-8")
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.margins: set = set()

    def close(self) -> None:
        self.log.close()

    def child(self, argv: list) -> Finished:
        self.log.flush()
        return run_process([sys.executable] + argv, self.env, self.log, self.deadline)

    def _count(self, attempted: int, failed: int, problems: list, what: str) -> None:
        self.attempted += attempted
        if problems:
            failed = attempted
            self.problems += [f"{what}: {p}" for p in problems]
        self.failed += failed

    # -- cold CLI processes --------------------------------------------------

    def setup_probes(self) -> list:
        self.child(["-c", "import dzv"])  # untimed: may write the bytecode cache
        return [self.child(["-c", "import dzv"]).wall_s for _ in range(SETUP_PROBES)]

    def cli_process(self, trace: bool):
        report = OUT / f"{self.tag}.report.json"
        result = OUT / f"{self.tag}.result.json"
        for p in (report, result):
            p.unlink(missing_ok=True)
        argv = [str(WORKER), "cli", self.w.name, "--report", str(report), "--result", str(result)]
        c = self.child(argv + (["--trace"] if trace else []))
        out = _read_json(result) or {}
        reports = _read_json(report)
        expected = self.w.records - self.w.skipped
        if reports is None or "exit_code" not in out:
            self._count(expected, expected, [f"exit code {c.code}, no report"], "process")
            return c, out
        s = summarize_report(reports)
        problems = output_problems(self.w, out["exit_code"], s) + out["spot_problems"]
        if not self.w.tables:
            problems += bernoulli_spot_problems(reports)
        if c.code != 0:
            problems.append(f"worker exit code {c.code}")
        self._count(s.attempted, s.failed, problems, "process")
        if s.min_margin_digits is not None:
            self.margins.add(s.min_margin_digits)
        return c, out

    def cold(self) -> tuple:
        """Untraced processes for the run's seconds (at least COLD_PROCESSES);
        with trace, exactly one untraced and one traced process."""
        setup = self.setup_probes()
        runs = []
        start = time.perf_counter()
        while not runs or not self.args.trace and (
                len(runs) < COLD_PROCESSES or time.perf_counter() - start < self.args.seconds):
            runs.append(self.cli_process(trace=False)[0])
        samples = {"setup_s": setup, "wall_s": [c.wall_s for c in runs],
                   "cpu_s": [c.cpu_s for c in runs], "peak_rss_mb": [c.rss_mb for c in runs]}
        traced = None
        if self.args.trace:
            c, out = self.cli_process(trace=True)
            if out.get("trace"):
                traced = (c.wall_s, out["trace"])
        return samples, traced

    # -- warm process ---------------------------------------------------------

    def warm_process(self, budget: float, trace: bool):
        result = OUT / f"{self.tag}.result.json"
        result.unlink(missing_ok=True)
        argv = [str(WORKER), "warm", self.w.name, "--result", str(result),
                "--seed", str(self.args.seed), "--budget", str(budget),
                "--t0", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
        c = self.child(argv + (["--trace"] if trace else []))
        out = _read_json(result)
        expected = self.w.records - self.w.skipped
        if out is None:
            self._count(expected, expected, [f"exit code {c.code}, no result"], "process")
            return c, None
        self._count(expected, 0, out["setup_problems"], "set-up")
        for i, p in enumerate(out["passes"]):
            self._count(p["attempted"], p["failed"], p["problems"] + out["spot_problems"]
                        + ([f"worker exit code {c.code}"] if c.code else []), f"pass {i}")
            if p["min_margin_digits"] is not None:
                self.margins.add(p["min_margin_digits"])
        return c, out

    def warm(self) -> tuple:
        processes = 1 if self.args.trace else WARM_PROCESSES
        outs = []
        for _ in range(processes):
            c, out = self.warm_process(self.args.seconds / processes, trace=False)
            if out is not None:
                outs.append((c, out))
        passes = [p for _, out in outs for p in out["passes"]]
        samples = {"setup_s": [out["setup_s"] for _, out in outs],
                   "wall_s": [p["wall_s"] for p in passes],
                   "cpu_s": [p["cpu_s"] for p in passes],
                   "peak_rss_mb": [c.rss_mb for c, _ in outs]}
        traced = None
        if self.args.trace:
            c, out = self.warm_process(0.0, trace=True)
            if out is not None:
                traced = (statistics.mean(p["wall_s"] for p in out["passes"]), out["trace"])
        return samples, traced


# On a shared host a vCPU can run for seconds at a time in a contended state
# that slows dzv by up to 1.8x.  A warm pass (about 0.5 s) falls in one state,
# so the median pass of a run depends on which state dominated it, while the
# fastest pass measures the uncontended speed and repeats.  A cold process
# spans many state changes, so cold runs report medians.
BEST_OF_PASSES = ("wall_s", "cpu_s")


def _metrics(samples: dict, traced, trace: bool, warm: bool) -> dict:
    if not all(samples.get(k) for k in UNITS):
        return {}
    untraced = {k: min(v) if warm and k in BEST_OF_PASSES else statistics.median(v)
                for k, v in samples.items()}
    if not trace:
        return {k: (untraced[k], UNITS[k]) for k in UNITS}
    if traced is None:
        return {}
    wall, t = traced
    out = {name: (value, next((u for end, u in LAYER_UNITS if name.endswith(end)), "count"))
           for name, value in sorted(t["metrics"].items())}
    out["trace.wall_s"] = (wall, "s")
    # warm traced spans are means over passes, so compare with the mean pass
    base = statistics.mean(samples["wall_s"]) if warm else untraced["wall_s"]
    out["trace.overhead_s"] = (wall - base, "s")
    out["trace.unattributed_s"] = (wall - t["spans_self_s"], "s")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if not (ROOT / "src" / "dzv" / "__init__.py").is_file():
        print(f"error: no dzv package under {ROOT / 'src'}; run from a dzv checkout",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    run = Run(args)
    try:
        samples, traced = run.warm() if run.w.warm else run.cold()
    finally:
        run.close()
    metrics = _metrics(samples, traced, bool(args.trace), run.w.warm)
    if not metrics:
        run.problems.append("no measurement completed")
    if len(run.margins) > 1:
        run.problems.append(f"min_margin_digits differs between processes: {sorted(run.margins)}")
    correct = not run.problems and run.failed == 0 and run.attempted > 0
    margin = min(run.margins) if run.margins else None

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "seed_changes_inputs": run.w.warm,
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "fail_ratio": run.failed / run.attempted if run.attempted else 1.0,
        "min_margin_digits": margin, "problems": run.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": samples, **_provenance(),
    }
    with open(OUT / f"{run.tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for problem in run.problems:
        print(f"{args.workload} PROBLEM {problem}")
    for k, (v, u) in metrics.items():
        print(f"{args.workload} {k} = {v:.6g} {u}")
    print(f"{args.workload} fail_ratio = {record['fail_ratio']:.6g} "
          f"({run.failed} of {run.attempted} checks)")
    if margin is not None:
        print(f"{args.workload} min_margin_digits = {margin:.6f} digits")
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1),
                      "failed": run.failed if run.attempted else 1,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
