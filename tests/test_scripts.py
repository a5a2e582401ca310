"""Smoke tests: the scripts under ``scripts/`` and the benchmark's own smoke
check run end to end."""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The sha256 of ``scripts/catalog_reports.py``'s output over the whole
# catalog.  A change that alters report bytes on purpose updates this value
# and says why.
CATALOG_SHA256 = "9155cce400e45b2eae20cd575e45f6f2d5c9368cdb693bfe5e9328c032057ad7"


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_ring_family_report():
    done = _run("ring_family_report.py", "--n", "4", "--N", "1")
    assert done.returncode == 0, done.stderr
    rows = done.stdout.splitlines()
    assert rows[0] == "h,h_length,m,bound,span_proper"
    assert rows[1] == "w1,1,1,2,True"
    assert "violations=0 all_proper=True" in done.stderr


def test_ring_family_report_rejects_deep_sweep():
    done = _run("ring_family_report.py", "--n", "4", "--N", "1", "--kmax", "3")
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr.splitlines() == [
        "error: k_max=3 exceeds n/2=2.0; containers stop being proper"]


def test_reproduce_examples():
    done = _run("reproduce_examples.py")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "== two-generator subgroup <bca, babc> =="
    assert "certify: certified (ell=30, elements counted=53745)" in lines
    assert "certify: refuted" in lines


def test_perfbench_smoke():
    """Every benchmark workload runs at a tiny size, untraced and traced,
    passes its output checks and emits exactly its declared metrics; a change
    to the API the benchmark uses fails here."""
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "smoke.py")],
                          capture_output=True, text=True, cwd=ROOT, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr


def test_catalog_reports():
    """The first catalog problems, one sorted-keys JSON report per line, and
    the total time on stderr."""
    done = _run("catalog_reports.py", "--limit", "3")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 3
    for line in lines:
        row = json.loads(line)
        assert json.dumps(row, sort_keys=True) == line
        assert row["graph"] == "abc" and row["report"]["schema"] == "raagcc-certificate-v1"
        assert row["report"]["verdict"] == row["stored"] == "refuted"
        assert row["report"]["core"]["stages"][0][0] == 256
    assert re.fullmatch(r"3 problems through certify in \d+\.\d\d s\n", done.stderr)


def test_catalog_report_bytes_are_pinned():
    """All 594 catalog reports, byte for byte."""
    done = _run("catalog_reports.py")
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.splitlines()) == 594
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == CATALOG_SHA256
