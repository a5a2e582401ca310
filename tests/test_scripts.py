"""Smoke tests: the scripts under ``scripts/`` and the benchmark's own smoke
check run end to end."""

from __future__ import annotations

import hashlib
import json
import os
import re
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The sha256 of ``scripts/catalog_reports.py``'s output over the whole
# catalog.  A change that alters report bytes on purpose updates this value
# and says why.
CATALOG_SHA256 = "c1b6b1dc0424ec595b49257ec9658af1e69d33174943c94f71fd060ed9a771e2"


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


def test_src_lines():
    """One row per module of ``src/raagcc``, whose lines and code lines sum
    to the total row; code lines leave out docstrings, comments and blanks."""
    done = _run("src_lines.py")
    assert done.returncode == 0, done.stderr
    header, *rows, total = [line.split(",") for line in done.stdout.splitlines()]
    assert header == ["module", "lines", "code"]
    package = ROOT / "src" / "raagcc"
    assert [name for name, _, _ in rows] == sorted(p.name for p in package.glob("*.py"))
    for name, lines, code in rows:
        assert int(lines) == len((package / name).read_text().splitlines())
        assert 0 < int(code) < int(lines)
    assert total == ["total", str(sum(int(r[1]) for r in rows)),
                     str(sum(int(r[2]) for r in rows))]
    count = runpy.run_path(str(ROOT / "scripts" / "src_lines.py"))["count"]
    assert count('"""Module\ndocstring."""\n\n# a comment\ndef f(x):\n    """Doc."""\n'
                 '    return (x +  # trailing\n            1)\n') == (8, 3)


def test_line_coverage_on_one_test_file():
    """The coverage script runs one test file under its tracer and lists the
    package's unrun function-body lines, then their total: the refusals
    that file tests ran, and ``certify``, which it never calls, did not."""
    done = _run("line_coverage.py", str(ROOT / "tests" / "test_refusals.py"), "-q")
    assert done.returncode == 0, done.stdout + done.stderr
    *_, total = done.stdout.splitlines()
    unrun, of = map(int, re.fullmatch(r"unrun: (\d+) of (\d+) function-body lines",
                                      total).groups())
    listed = re.findall(r"^src/raagcc/\w+\.py:\d+$", done.stdout, re.MULTILINE)
    assert len(listed) == unrun < of
    guards = re.findall(r"^src/raagcc/family\.py:\d+ listed: ", done.stdout, re.MULTILINE)
    assert len(guards) == 5  # the family's guards, which test_refusals.py never reaches
    source = (ROOT / "src" / "raagcc" / "graphs.py").read_text().splitlines()
    refusal = source.index('            raise InputError(f"duplicate vertex labels in {verts!r}")')
    assert f"src/raagcc/graphs.py:{refusal + 1}" not in listed
    source = (ROOT / "src" / "raagcc" / "certify.py").read_text().splitlines()
    define = next(i for i, line in enumerate(source) if line.startswith("def certify("))
    assert f"src/raagcc/certify.py:{define + 1}" in listed


def test_line_coverage_reads_the_sources_before_the_run(monkeypatch, capsys):
    """A module edited during the traced run shifts no reported line: with
    every function-body line hit, and each module's source read one line
    lower once the run has started, nothing is reported unrun."""
    script = runpy.run_path(str(ROOT / "scripts" / "line_coverage.py"))
    main, function_lines = script["main"], script["function_lines"]
    hits = {str(path.resolve()): function_lines(path, path.read_text(encoding="utf-8"))
            for path in (ROOT / "src" / "raagcc").glob("*.py")}
    read_text = Path.read_text

    def run_then_edit(args):
        monkeypatch.setattr(Path, "read_text", lambda self, *a, **k: "\n" + read_text(self, *a, **k))
        return 0, hits
    monkeypatch.setitem(main.__globals__, "run_traced", run_then_edit)
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    monkeypatch.setenv("HYPOTHESIS_STORAGE_DIRECTORY", "")
    assert main([]) == 0
    total = sum(map(len, hits.values()))
    assert capsys.readouterr().out == f"unrun: 0 of {total} function-body lines\n"


def test_line_coverage_unreachable_guards_are_in_the_source():
    """Each guard the coverage script lists as unreachable is the stripped
    text of exactly one line of its module."""
    listed = runpy.run_path(str(ROOT / "scripts" / "line_coverage.py"))["UNREACHABLE"]
    assert sum(map(len, listed.values())) == 6
    for module, guards in listed.items():
        lines = [line.strip() for line in
                 (ROOT / "src" / "raagcc" / module).read_text(encoding="utf-8").splitlines()]
        for text in guards:
            assert lines.count(text) == 1, (module, text)


def test_ab_passes_tiny_against_itself():
    """Two workers on this repository's own tree agree on the first pass's
    fingerprints and report every round, both sides' pass times and the
    wins."""
    done = _run("ab_passes.py", "--parent", str(ROOT), "--change", str(ROOT),
                "--workload", "words-long", "--tiny", "--rounds", "2")
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "workload words-long, seed 1: 4 ops per pass"
    assert re.fullmatch(r"first-pass fingerprints equal: [0-9a-f]{16}", lines[1])
    assert lines[2] == "round,parent_s,change_s,ratio"
    assert [row.split(",")[0] for row in lines[3:5]] == ["1", "2"]
    assert re.fullmatch(r"parent: min \d+\.\d{6} s, median \d+\.\d{6} s", lines[5])
    assert re.fullmatch(r"change: min \d+\.\d{6} s, median \d+\.\d{6} s", lines[6])
    assert re.fullmatch(r"median ratio change/parent \d+\.\d{4}; "
                        r"change faster in [012] of 2 rounds", lines[7])
    assert len(lines) == 8


def test_ab_passes_times_a_change_that_moves_an_op(tmp_path):
    """A change that moves an op's output is still timed: the moved op is
    printed by index and label, and the summary counts it.  The change is
    a copy of this tree whose ``certify`` reports another element count
    for the worked augmented example only."""
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "raagcc" / "__init__.py", "a", encoding="utf-8") as init:
        init.write("""
import dataclasses as _dataclasses
_certify = certify


def certify(graph, model, generators, **budgets):
    cert = _certify(graph, model, generators, **budgets)
    if [g.to_text() for g in cert.generators] == ["a b c", "c a b", "a^2 b c"]:
        cert = _dataclasses.replace(cert, element_count=-1)
    return cert
""")
    done = _run("ab_passes.py", "--parent", str(ROOT), "--change", str(tmp_path),
                "--workload", "certify-zoo", "--tiny", "--rounds", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "workload certify-zoo, seed 1: 14 ops per pass"
    assert lines[1] == "first-pass fingerprints differ in 1 of 14 ops:"
    assert re.fullmatch(r"moved op \d+: worked augmented", lines[2])
    assert lines[3] == "round,parent_s,change_s,ratio"
    assert re.fullmatch(r"median ratio change/parent \d+\.\d{4}; "
                        r"change faster in [01] of 1 rounds; 1 of 14 ops moved", lines[-1])
    assert len(lines) == 8


def test_ab_passes_all_workloads_tiny():
    """``--workload all`` times every workload in turn, each block as a
    single workload prints it, and ends with one summary line per
    workload, in the benchmark's order."""
    done = _run("ab_passes.py", "--parent", str(ROOT), "--change", str(ROOT),
                "--workload", "all", "--tiny", "--rounds", "1")
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    names = ["certify-zoo", "words-long", "words-short", "ring-sweep"]
    assert [line.split(",")[0] for line in lines if line.startswith("workload ")] == \
        [f"workload {name}" for name in names]
    assert len(lines) == 4 * (7 + 1) + 4  # a block and a blank line each, then the summary
    for name, line in zip(names, lines[-4:]):
        assert re.fullmatch(rf"{name}: median ratio change/parent \d+\.\d{{4}}; "
                            r"change faster in [01] of 1 rounds", line), line


def test_perfbench_smoke():
    """Every benchmark workload runs at a tiny size, untraced and traced,
    passes its output checks and emits exactly its declared metrics; a change
    to the API the benchmark uses fails here."""
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "smoke.py")],
                          capture_output=True, text=True, cwd=ROOT, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr


def test_catalog_reports():
    """The first catalog problems, one sorted-keys JSON report per line, and
    on stderr the time per class of problems and the total time."""
    done = _run("catalog_reports.py", "--limit", "3")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 3
    for line in lines:
        row = json.loads(line)
        assert json.dumps(row, sort_keys=True) == line
        assert row["graph"] == "abc" and row["report"]["schema"] == "raagcc-certificate-v1"
        assert row["report"]["verdict"] == row["stored"] == "refuted"
        assert row["report"]["core"]["stages"][0][0] == 64
    assert re.fullmatch(r"abc refuted: 3 problems in \d+\.\d{3} s\n"
                        r"3 problems through certify in \d+\.\d\d s\n", done.stderr)


def test_catalog_report_bytes_are_pinned():
    """All 594 catalog reports, byte for byte."""
    done = _run("catalog_reports.py")
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.splitlines()) == 594
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == CATALOG_SHA256
