#!/usr/bin/env python3
"""Acceptance-gate headroom, report only.

Runs ``tests/test_acceptance.py -s`` once and turns each
``ACCEPTANCE NN: PASS (x s < y s)`` line into ``acceptance.NN.s`` (x) and
``acceptance.NN.headroom`` (x / y, the share of the budget used).  It only
reads the tests; it is not a workload and has no regression bound.  Takes
about as long as the acceptance suite (one to two minutes).

    python3 perfbench/acceptance.py
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LINE = re.compile(r"ACCEPTANCE (\d+): (PASS \(([\d.]+)s < ([\d.]+)s\)|FAIL after ([\d.]+)s)")


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"]
                                             if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, "-m", "pytest", "tests/test_acceptance.py", "-s", "-q",
           "-p", "no:cacheprovider"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=env, timeout=1800)
    metrics = {}
    failed = []
    for match in LINE.finditer(proc.stdout):
        number = match.group(1)
        if match.group(3) is None:
            failed.append(number)
            print(f"acceptance.{number}: FAIL after {match.group(5)} s")
            continue
        seconds, budget = float(match.group(3)), float(match.group(4))
        metrics[f"acceptance.{number}.s"] = {"value": seconds, "unit": "s"}
        metrics[f"acceptance.{number}.headroom"] = {"value": seconds / budget, "unit": "ratio"}
        print(f"acceptance.{number}.s = {seconds:g} s, headroom = {seconds / budget:.3f} "
              f"of {budget:g} s")
    print(json.dumps({"pytest_exit": proc.returncode, "failed": failed, "metrics": metrics}))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
