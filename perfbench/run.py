#!/usr/bin/env python3
"""The raagcc benchmark.

    python3 perfbench/run.py --workload certify-zoo --seed 1 --seconds 8 --trace 0

Run from the repository root; the package is imported from ``src/``.  One
process runs one workload as a closed loop: a single caller issues the next
op only after the previous one returns.  The workload's ops (one pass) are
made from ``--seed``; whole passes repeat until at least ``--seconds`` of op
time has been measured.  Every op of the first pass is checked outside the
timed region, and later passes must reproduce the first pass's outputs.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics, times scaled to the reference interpreter speed (see
``speed.py``); with ``--trace 1`` the calls into each ``raagcc`` module are
traced (see ``tracing.py``) and the per-layer metrics are reported instead,
as totals per pass.  ``--workload all`` runs every workload, each in its own
process, and prints each result.  ``--tiny`` shrinks every workload for the
smoke check (``smoke.py``).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 5
MAX_REPORTED_ERRORS = 5


def import_raagcc():
    """Import the package afresh from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == "raagcc" or n.startswith("raagcc.")]:
        del sys.modules[name]
    api = importlib.import_module("raagcc")
    if Path(api.__file__).resolve().parent != SRC / "raagcc":
        raise ImportError(f"raagcc was imported from {api.__file__}, not from {SRC}")
    return api


def setup(workload_cls, seed: int, tiny: bool):
    """Import, build graphs/models/families and the seeded inputs, and warm
    lazy caches.  Returns ((start, end), api, workload)."""
    start = time.perf_counter()
    api = import_raagcc()
    workload = workload_cls(api, seed, tiny)
    return (start, time.perf_counter()), api, workload


class Loop:
    """Closed-loop passes over a workload's ops, with output checks."""

    def __init__(self, workload):
        self.workload = workload
        self.intervals: list[tuple[float, float]] = []  # (start, end) per completed op
        self.attempted = 0
        self.failed = 0
        self.decided = 0
        self.errors: list[str] = []
        self.expected: list = [None] * len(workload.ops)
        self.checked = False
        self.busy = 0.0  # op time over all passes
        self.halfway, self.half = None, 0.0

    def _fail(self, index: int, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_REPORTED_ERRORS:
            self.errors.append(f"op {index}: {message}")

    def one_pass(self, tracer=None) -> float:
        """Run every op once; return the op time spent."""
        wl = self.workload
        before = self.busy
        first = not self.checked
        for index, op in enumerate(wl.ops):
            if tracer is not None:
                tracer.op = index
            self.attempted += 1
            start = time.perf_counter()
            try:
                out = wl.run(op)
            except Exception:  # a failed op is counted, and the loop goes on
                self.busy += time.perf_counter() - start
                self._fail(index, traceback.format_exc(limit=3).strip().splitlines()[-1])
                continue
            end = time.perf_counter()
            self.busy += end - start
            self.intervals.append((start, end))
            try:
                fingerprint = wl.fingerprint(out)
                if first:
                    if wl.decided(out):
                        self.decided += 1
                    error = wl.check(op, out)
                    self.expected[index] = fingerprint
                elif fingerprint != self.expected[index]:
                    error = "output differs from the first pass"
                else:
                    error = None
            except Exception:  # a crashing check is a failed op
                error = "check raised " + traceback.format_exc(limit=3).strip().splitlines()[-1]
            if error:
                self._fail(index, error)
            if self.halfway is not None and self.busy >= self.half:
                self.halfway, halfway = None, self.halfway
                halfway()
        self.checked = True
        return self.busy - before

    def run_for(self, seconds: float, tracer=None, halfway=None) -> tuple[int, float]:
        """Whole passes until at least ``seconds`` of op time; (passes, time).
        ``halfway`` is called once, between two ops, when half is done."""
        self.halfway, self.half = halfway, self.busy + seconds / 2
        passes, busy = 0, 0.0
        while passes == 0 or busy < seconds:
            busy += self.one_pass(tracer)
            passes += 1
        return passes, busy


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def settle() -> None:
    """Collect garbage and freeze what survives, so that the collector does
    not rescan the benchmark's own objects (inputs, timings) inside timed
    calls, as it would not in a process that only runs raagcc."""
    gc.collect()
    gc.freeze()


def note(text: str) -> None:
    print(f"# {text}", flush=True)


def traced_run(args, loop: Loop) -> dict[str, tuple[float, str]]:
    """One untraced pass, traced passes for ``--seconds``, then the
    enumeration memory replay; returns the per-layer metrics."""
    from tracing import Tracer, enum_peak_mb

    plain = loop.one_pass()
    tracer = Tracer()
    tracer.install()
    try:
        passes, traced = loop.run_for(args.seconds, tracer)
    finally:
        tracer.uninstall()
    metrics, notes = tracer.layer_metrics(passes)
    metrics["trace.overhead"] = ((traced / passes) / plain, "ratio")
    metrics["complexes.enum.peak_mb"] = (enum_peak_mb(tracer), "MB")
    out = ROOT / ".bench_trace" / f"{args.workload}-seed{args.seed}.tsv.gz"
    tracer.write(out)
    note(f"{len(tracer.spans)} spans over {passes} traced passes written to "
         f"{out.relative_to(ROOT)}")
    for line in notes:
        note(line)
    return metrics


def timed_run(args, cls, extra_errors: list[str]) -> tuple[Loop, dict[str, tuple[float, str]]]:
    """Set-up repeats, timed passes and the worked example, with the
    interpreter's speed sampled throughout; returns the end-to-end metrics."""
    from speed import Speed
    from workloads import check_worked, worked_certificate

    speed = Speed()
    speed.start()
    try:
        setups = []
        for _ in range(SETUP_REPS):
            interval, api, wl = setup(cls, args.seed, args.tiny)
            setups.append(interval)
        note(f"workload {args.workload}, seed {args.seed}: {len(wl.ops)} ops per pass")
        settle()
        loop = Loop(wl)
        # The worked example is timed before, halfway through and after the
        # passes, so that its median spans the whole run.
        worked = []

        def time_worked():
            settle()
            start = time.perf_counter()
            cert = worked_certificate(api)
            worked.append((start, time.perf_counter()))
            error = check_worked(api, cert)
            if error and error not in extra_errors:
                extra_errors.append(error)

        time_worked()
        passes, busy = loop.run_for(args.seconds, halfway=None if args.tiny else time_worked)
        if not args.tiny:
            time_worked()
    finally:
        speed.stop()

    lat = [speed.scaled(s, e) for s, e in loop.intervals]
    setup_s = [speed.scaled(s, e) for s, e in setups]
    worked_s = [speed.scaled(s, e) for s, e in worked]
    raw = [speed.own(s, e) for s, e in loop.intervals]
    note(f"{passes} passes, {len(lat)} op samples, {busy:.2f} s of op time, "
         f"{len(speed.durations)} speed samples, median unit "
         f"{statistics.median(speed.durations) * 1e3:.3f} ms")
    if len(lat) < 100:
        note(f"only {len(lat)} samples: p90 has fewer than ten samples beyond it")
    note(f"raw: setup_s {statistics.median(speed.own(s, e) for s, e in setups):.6g}, "
         f"ops_per_s {len(raw) / sum(raw):.6g}, "
         f"op_p50_ms {percentile(raw, 50) * 1e3:.6g}, "
         f"op_p90_ms {percentile(raw, 90) * 1e3:.6g}, "
         f"worked_certify_s {statistics.median(speed.own(s, e) for s, e in worked):.6g}")
    note(f"setup_s samples: {', '.join(f'{t:.4f}' for t in setup_s)}")
    note(f"worked_certify_s samples: {', '.join(f'{t:.4f}' for t in worked_s)}")
    return loop, {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (percentile(lat, 50) * 1e3, "ms"),
        "op_p90_ms": (percentile(lat, 90) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "decided_share": (loop.decided / len(wl.ops), "ratio"),
        "worked_certify_s": (statistics.median(worked_s), "s"),
    }


def run_workload(args) -> dict:
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    extra_errors: list[str] = []
    if args.trace:
        _, api, wl = setup(cls, args.seed, args.tiny)
        note(f"workload {args.workload}, seed {args.seed}: {len(wl.ops)} ops per pass")
        settle()
        loop = Loop(wl)
        metrics = traced_run(args, loop)
    else:
        loop, metrics = timed_run(args, cls, extra_errors)
    error_rate = loop.failed / loop.attempted
    note(f"error_rate = {error_rate:g} ({loop.failed} of {loop.attempted} ops)")
    for error in loop.errors + extra_errors:
        note(f"ERROR {error}")
    for name, (value, unit) in metrics.items():
        note(f"{name} = {value:.6g} {unit}")
    return {
        "correct": loop.failed == 0 and not extra_errors,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def run_all(args) -> int:
    """Run each workload in its own process and print its report."""
    from workloads import WORKLOADS

    status = 0
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
        print(f"== {name}")
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(proc.stderr, end="", file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        if not results[name]["correct"]:
            status = 1
    print(json.dumps(results))
    return status


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (smoke check only)")
    args = parser.parse_args()
    if not (SRC / "raagcc" / "__init__.py").is_file():
        print(f"error: no raagcc package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    os.chdir(ROOT)
    result = run_workload(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    sys.exit(main())
