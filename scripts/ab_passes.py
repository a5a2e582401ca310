#!/usr/bin/env python3
"""Time whole benchmark passes of two source trees in alternation.

    python3 scripts/ab_passes.py --parent ../old --change . --workload words-long --seed 1

Each tree is a checkout of this repository.  One worker process per tree
imports ``raagcc`` from that tree's ``src`` and builds the same workload
from this repository's ``perfbench/workloads.py`` at ``--seed``.  Each
worker first runs one checked pass, whose output fingerprints are compared
op by op between the two trees: the ops whose outputs moved are printed by
index and label, and the timing goes on, since a change may move outputs
on purpose.  Then every round asks each worker for one more pass, the
parent first in odd rounds and the change first in even ones.  A pass's
time is the sum of its op times, as ``perfbench/run.py`` counts them,
unscaled.  Printed: each round's two times and their ratio, each side's
min and median pass time, the median ratio, the rounds the change won and
the number of moved ops, if any.  ``--workload all`` runs every workload in
turn, each with its own pair of workers, and ends with one summary line per
workload.  Exit status 1 when a check fails or the op counts differ.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import reprlib
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _canonical(value):
    """A spelling of a fingerprint that does not depend on set order."""
    if isinstance(value, (set, frozenset)):
        return sorted(repr(_canonical(v)) for v in value)
    if isinstance(value, (tuple, list)):
        return [_canonical(v) for v in value]
    return repr(value)


def _label(op) -> str:
    """An op's name: its label when it starts with one (as certify-zoo's
    ops do), else its repr, cut short."""
    return op[0] if isinstance(op[0], str) else reprlib.repr(op)[:120]


def worker(src: Path, workload: str, seed: int, tiny: bool) -> int:
    """Serve passes over stdin and stdout: a ``check`` or ``pass`` line in,
    one JSON line out."""
    sys.path[:0] = [str(src), str(PERFBENCH)]
    import raagcc
    from workloads import WORKLOADS

    if Path(raagcc.__file__).resolve().parent != src / "raagcc":
        raise ImportError(f"raagcc was imported from {raagcc.__file__}, not from {src}")
    wl = WORKLOADS[workload](raagcc, seed, tiny)
    gc.collect()
    gc.freeze()
    print(json.dumps({"ops": len(wl.ops)}), flush=True)
    for line in sys.stdin:
        checked = line.strip() == "check"
        busy, outs = 0.0, []
        for op in wl.ops:
            start = time.perf_counter()
            out = wl.run(op)
            busy += time.perf_counter() - start
            if checked:
                outs.append(out)
        reply = {"s": busy}
        if checked:
            reply["prints"] = [
                hashlib.sha256(json.dumps(_canonical(wl.fingerprint(out))).encode()).hexdigest()
                for out in outs]
            reply["labels"] = [_label(op) for op in wl.ops]
            reply["errors"] = [f"op {i}: {err}" for i, (op, out) in enumerate(zip(wl.ops, outs))
                               if (err := wl.check(op, out))]
        print(json.dumps(reply), flush=True)
    return 0


class Worker:
    def __init__(self, name: str, tree: Path, workload: str, args):
        src = (tree / "src").resolve()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", str(src),
               "--workload", workload, "--seed", str(args.seed)] + \
            (["--tiny"] if args.tiny else [])
        env = {**os.environ, "PYTHONHASHSEED": "0"}
        env.pop("PYTHONPATH", None)
        self.name = name
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=env, cwd=ROOT)
        self.ops = self._reply()["ops"]

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"the {self.name} worker stopped (exit {self.proc.wait()})")
        return json.loads(line)

    def ask(self, request: str) -> dict:
        self.proc.stdin.write(request + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def compare(workload: str, args) -> tuple[int, str]:
    """Time ``args.rounds`` alternating passes of ``workload`` on a new pair
    of workers, printing as it goes; the exit status and the summary."""
    workers = []
    try:
        for name, tree in (("parent", args.parent), ("change", args.change)):
            workers.append(Worker(name, tree, workload, args))
        parent, change = workers
        print(f"workload {workload}, seed {args.seed}: {parent.ops} ops per pass")
        checks = [w.ask("check") for w in workers]
        failed = [f"{w.name} {err}" for w, c in zip(workers, checks) for err in c["errors"]]
        if parent.ops != change.ops:
            failed.append(f"the op counts differ: {parent.ops} and {change.ops}")
        for error in failed:
            print(f"ERROR {error}")
        if failed:
            return 1, f"{workload}: failed"
        prints = [c["prints"] for c in checks]
        moved = [i for i, (p, c) in enumerate(zip(*prints)) if p != c]
        if moved:
            print(f"first-pass fingerprints differ in {len(moved)} of {parent.ops} ops:")
            for i in moved:
                print(f"moved op {i}: {checks[1]['labels'][i]}")
        else:
            digest = hashlib.sha256("".join(prints[0]).encode()).hexdigest()
            print(f"first-pass fingerprints equal: {digest[:16]}")
        print("round,parent_s,change_s,ratio")
        times: dict[str, list[float]] = {"parent": [], "change": []}
        for r in range(1, args.rounds + 1):
            for w in (workers if r % 2 else workers[::-1]):
                times[w.name].append(w.ask("pass")["s"])
            p, c = times["parent"][-1], times["change"][-1]
            print(f"{r},{p:.6f},{c:.6f},{c / p:.4f}")
    finally:
        for w in workers:
            w.close()
    for name, ts in times.items():
        print(f"{name}: min {min(ts):.6f} s, median {statistics.median(ts):.6f} s")
    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    wins = sum(ratio < 1 for ratio in ratios)
    summary = (f"median ratio change/parent {statistics.median(ratios):.4f}; "
               f"change faster in {wins} of {args.rounds} rounds")
    if moved:
        summary += f"; {len(moved)} of {parent.ops} ops moved"
    print(summary)
    return 0, f"{workload}: {summary}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, help="the parent source tree")
    parser.add_argument("--change", type=Path, help="the changed source tree")
    parser.add_argument("--workload", default="words-long", help="a workload's name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--tiny", action="store_true", help="the smoke-check sizes")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker is not None:
        return worker(args.worker, args.workload, args.seed, args.tiny)
    if args.parent is None or args.change is None or args.rounds < 1:
        parser.error("--parent and --change are required, and --rounds must be positive")
    if args.workload != "all":
        return compare(args.workload, args)[0]
    sys.dont_write_bytecode = True  # importing the workloads must leave perfbench/ untouched
    sys.path.insert(0, str(PERFBENCH))
    from workloads import WORKLOADS

    results = []
    for workload in WORKLOADS:
        results.append(compare(workload, args))
        print()
    for _, summary in results:
        print(summary)
    return max(status for status, _ in results)


if __name__ == "__main__":
    sys.exit(main())
