from __future__ import annotations

import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from raagcc import cli
from raagcc.cli import EXIT_INTERNAL, main
from raagcc.complexes import LabeledCubeComplex, build_core
from raagcc.errors import InputError, InternalError
from raagcc.graphs import DefiningGraph
from raagcc.words import parse_word

import oracles


# The sha256 of every pinned invocation's argv, exit code, stdout, stderr
# and ``--out`` bytes (see ``test_cli_outputs_are_pinned``).  A change that
# alters CLI bytes on purpose updates this value and says why.
CLI_SHA256 = "b2c76b6f671ce4b23d46f86841695a110c6ecee7a21d396b5ba004c789a3c403"

GRAPH = {"vertices": ["a", "b", "c"], "edges": [["b", "c"]]}
MODEL = {"graph": GRAPH, "minimal_filling_sets": [["a", "b", "c"]], "admissible": True}


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, payload in (
        ("graph", GRAPH),
        ("model", MODEL),
        ("gens", {"generators": ["b c a", "b a b c"]}),
        ("gens_bad", {"generators": ["a b c", "c a b", "a^2 b c"]}),
        ("gens_a", {"generators": ["a"]}),
    ):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(payload), encoding="utf-8")
        paths[name] = str(p)
    paths["tmp"] = tmp_path
    return paths


def test_normalize_text(files, capsys):
    code = main(["normalize", "--graph", files["graph"], "--word", "a a^-1 b c b"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "b^2 c"


def test_normalize_json_report(files, capsys):
    code = main(["normalize", "--graph", files["graph"], "--word", "b c a", "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["normal_form"] == "b c a"
    assert report["letter_length"] == 3


def test_minclass_and_order(files, capsys):
    assert main(["minclass", "--graph", files["graph"], "--word", "b c a"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["b c a", "c b a"]
    assert main(["order", "--graph", files["graph"], "--word", "b c a"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["b[0] < a[2]", "c[1] < a[2]"]


def test_order_rejects_non_normal(files, capsys):
    # b c b merges across the commuting c, so it is not a normal spelling.
    assert main(["order", "--graph", files["graph"], "--word", "b c b"]) == 3


def test_module_entry_point_passes_exit_codes_through(files):
    """``python -m raagcc`` exits with the code ``main`` returns."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "raagcc", *argv], capture_output=True,
                              text=True, env=env, timeout=60)
    done = run("normalize", "--graph", files["graph"], "--word", "a a^-1 b c b")
    assert (done.returncode, done.stdout) == (0, "b^2 c\n")
    done = run("certify", "--graph", files["graph"], "--model", files["model"],
               "--gens", files["gens_bad"])
    assert done.returncode == 1 and "verdict: refuted" in done.stdout
    done = run("normalize", "--graph", str(files["tmp"] / "missing.json"), "--word", "a")
    assert done.returncode == 3 and done.stderr.startswith("error: cannot read ")
    done = run("--help")
    assert done.returncode == 0 and done.stdout.startswith("usage: raagcc")


def test_a_file_that_is_not_utf8_is_malformed_input(files, capsys):
    """A graph, model, generators or stored-core file that does not decode
    as UTF-8 (here, one that starts with a UTF-16 byte-order mark) is
    malformed input: one error line naming the file, and exit 3."""
    bad = files["tmp"] / "utf16.json"
    bad.write_bytes(json.dumps(GRAPH).encode("utf-16"))
    runs = (["normalize", "--graph", str(bad), "--word", "a"],
            ["certify", "--graph", files["graph"], "--model", str(bad), "--gens", files["gens"]],
            ["certify", "--graph", files["graph"], "--model", files["model"], "--gens", str(bad)],
            ["core", "check", "--core", str(bad)])
    for argv in runs:
        assert main(argv) == 3, argv
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {bad}: invalid UTF-8 at byte 0\n", argv


def test_certify_exit_codes(files, capsys):
    assert main(["certify", "--graph", files["graph"], "--model", files["model"],
                 "--gens", files["gens"]]) == 0
    capsys.readouterr()
    assert main(["certify", "--graph", files["graph"], "--model", files["model"],
                 "--gens", files["gens_bad"]]) == 1
    out = capsys.readouterr().out
    assert "witness" in out
    assert main(["certify", "--graph", files["graph"], "--model", files["model"],
                 "--gens", files["gens_a"]]) == 1


def test_certify_inconclusive_exit_code(files, capsys):
    assert main(["certify", "--graph", files["graph"], "--model", files["model"],
                 "--gens", files["gens"], "--cell-budget", "10"]) == 2
    assert "inconclusive" in capsys.readouterr().out


def test_certify_names_the_enum_budget_that_stopped_it(files, capsys):
    assert main(["certify", "--graph", files["graph"], "--model", files["model"],
                 "--gens", files["gens_bad"], "--enum-budget", "1"]) == 2
    assert "reason: enumeration exceeded budget 1" in capsys.readouterr().out.splitlines()
    assert main(["certify", "--graph", files["graph"], "--model", files["model"],
                 "--gens", files["gens_bad"], "--enum-budget", "1", "--format", "json"]) == 2
    assert json.loads(capsys.readouterr().out)["reason"] == "enumeration exceeded budget 1"


def test_certify_rejects_a_nonpositive_enum_budget(files, capsys):
    # A non-positive cell budget is malformed input too; it once exited 2.
    for option, budget in itertools.product(("enum", "cell"), ("0", "-5")):
        assert main(["certify", "--graph", files["graph"], "--model", files["model"],
                     "--gens", files["gens_bad"], f"--{option}-budget", budget]) == 3, budget
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {option}_budget must be positive"]


def test_certify_json_schema(files, capsys):
    assert main(["certify", "--graph", files["graph"], "--model", files["model"],
                 "--gens", files["gens"], "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == "raagcc-certificate-v1"
    assert report["verdict"] == "certified"
    assert report["bound"]["formula"].startswith("d >= |h|/")


def test_malformed_graph_is_input_error(files, capsys):
    bad = files["tmp"] / "bad.json"
    bad.write_text('{"vertices": ', encoding="utf-8")
    assert main(["normalize", "--graph", str(bad), "--word", "a"]) == 3
    err = capsys.readouterr().err
    assert "line" in err
    # Well-formed JSON of the wrong types is malformed input too, never a
    # crash that exits 1 (the code for "refuted").
    for graph in ({**GRAPH, "edges": 7}, {**GRAPH, "vertices": 5}, {**GRAPH, "edges": [7]},
                  {**GRAPH, "edges": [["b", 3]]}, {**GRAPH, "vertices": ["a", ["b"]]}, []):
        bad.write_text(json.dumps(graph), encoding="utf-8")
        assert main(["normalize", "--graph", str(bad), "--word", "a"]) == 3, graph
        model = files["tmp"] / "model_bad.json"
        model.write_text(json.dumps({**MODEL, "graph": graph}), encoding="utf-8")
        assert main(["certify", "--graph", files["graph"], "--model", str(model),
                     "--gens", files["gens"]]) == 3, graph
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 2, err
    for sets in (5, [5], "abc", ["abc"], [["a", "b", 3]], None):
        model = files["tmp"] / "model_bad.json"
        model.write_text(json.dumps({**MODEL, "minimal_filling_sets": sets}), encoding="utf-8")
        assert main(["certify", "--graph", files["graph"], "--model", str(model),
                     "--gens", files["gens"]]) == 3, sets
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    for gens in ({"generators": [5]}, {"generators": "a b"}, {"generators": None}, ["a"]):
        bad.write_text(json.dumps(gens), encoding="utf-8")
        assert main(["certify", "--graph", files["graph"], "--model", files["model"],
                     "--gens", str(bad)]) == 3, gens
        assert capsys.readouterr().err.startswith("error: ")


def test_admissible_flag_must_be_a_json_boolean(files, capsys):
    # The string "false" once read as admissible and gave a verdict.
    model = files["tmp"] / "model_flag.json"
    argv = ["certify", "--graph", files["graph"], "--model", str(model),
            "--gens", files["gens_bad"]]
    for flag in ("false", "true", 0, 1, None, []):
        model.write_text(json.dumps({**MODEL, "admissible": flag}), encoding="utf-8")
        assert main(argv) == 3, flag
        assert capsys.readouterr().err.splitlines() == [
            f"error: model JSON 'admissible' must be true or false, got {flag!r}"]
    model.write_text(json.dumps({**MODEL, "admissible": False}), encoding="utf-8")
    assert main(argv) == 3
    assert "admissibility flag" in capsys.readouterr().err


def test_core_pipeline_round_trip(files, capsys):
    core_path = str(files["tmp"] / "core.json")
    assert main(["core", "build", "--graph", files["graph"], "--gens", files["gens"],
                 "--out", core_path]) == 0
    capsys.readouterr()
    assert main(["core", "check", "--core", core_path]) == 0
    assert "local isometry: yes" in capsys.readouterr().out
    assert main(["core", "member", "--core", core_path, "--word", "b^2 c^2 a^2"]) == 0
    assert capsys.readouterr().out.strip() == "non-member"
    assert main(["core", "member", "--core", core_path, "--word", "b c a"]) == 0
    assert capsys.readouterr().out.strip() == "member"
    assert main(["core", "enum", "--core", core_path, "--max-len", "4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "(identity)" in out and "b c a" in out


def test_a_refused_format_stops_before_any_work(files, capsys, monkeypatch):
    """A command without a CSV or DOT form refuses that format before it
    reads input, computes anything or writes ``--out``."""
    out = files["tmp"] / "core.json"
    assert main(["core", "build", "--graph", files["graph"], "--gens", files["gens"],
                 "--format", "csv", "--out", str(out)]) == 3
    assert capsys.readouterr().err == "error: command core build has no CSV form\n"
    assert not out.exists()
    calls = []
    monkeypatch.setattr(cli, "certify", lambda *args, **kwargs: calls.append(args))
    assert main(["certify", "--graph", files["graph"], "--model", files["model"],
                 "--gens", files["gens"], "--format", "csv", "--out", str(out)]) == 3
    assert capsys.readouterr().err == "error: command certify has no CSV form\n"
    assert not calls and not out.exists()
    # The refusal comes before the missing core file is read.
    assert main(["export", "--core", str(files["tmp"] / "missing.json"),
                 "--format", "csv", "--out", str(out)]) == 3
    assert capsys.readouterr().err == "error: command export has no CSV form\n"
    assert not out.exists()
    # DOT is export's alone; the text report of the others is not a DOT form.
    assert main(["core", "build", "--graph", files["graph"], "--gens", files["gens"],
                 "--format", "dot", "--out", str(out)]) == 3
    assert capsys.readouterr().err == "error: command core build has no DOT form\n"
    assert not out.exists()
    assert main(["normalize", "--graph", files["graph"], "--word", "b c b",
                 "--format", "dot"]) == 3
    assert capsys.readouterr() == ("", "error: command normalize has no DOT form\n")


def test_a_nonpositive_budget_is_input_error(files, capsys):
    core_path = str(files["tmp"] / "core.json")
    assert main(["core", "build", "--graph", files["graph"], "--gens", files["gens"],
                 "--out", core_path]) == 0
    capsys.readouterr()
    for budget in ("0", "-2"):
        assert main(["core", "enum", "--core", core_path, "--max-len", "2",
                     "--budget", budget]) == 3
        assert capsys.readouterr().err == "error: budget must be positive\n"
        assert main(["minclass", "--graph", files["graph"], "--word", "b c",
                     "--max-size", budget]) == 3
        assert capsys.readouterr().err == "error: max_size must be positive\n"


def test_export_dot_round_trips(files, capsys):
    core_path = str(files["tmp"] / "core.json")
    main(["core", "build", "--graph", files["graph"], "--gens", files["gens"],
          "--out", core_path])
    capsys.readouterr()
    assert main(["export", "--core", core_path, "--format", "dot"]) == 0
    dot_text = capsys.readouterr().out
    # The worked two-generator core carries four square annotations.
    assert sum(1 for line in dot_text.splitlines() if "// square:" in line) == 4
    parsed = oracles.oracle_from_dot(dot_text)
    stored = LabeledCubeComplex.from_json_dict(json.loads((files["tmp"] / "core.json").read_text()))
    assert oracles.oracle_canonical_form(parsed) == oracles.oracle_canonical_form(stored)


def test_reports_are_deterministic(files, capsys):
    argv = ["certify", "--graph", files["graph"], "--model", files["model"],
            "--gens", files["gens"], "--format", "json"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_section8_commands(files, capsys):
    assert main(["section8", "gen", "--n", "3", "--N", "1"]) == 0
    assert capsys.readouterr().out.strip() == "w1 = g1 g2 f1 g3 f2 f3"
    assert main(["section8", "constants", "--n", "3", "--N", "2", "--format", "csv"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0] == "n,N,b,d,L,ell_prime,ell"
    assert rows[1] == "3,2,26,3,78,651,655"
    assert main(["section8", "verify-star", "--n", "6", "--N", "2", "--kmax", "3"]) == 0
    assert "violations: 0" in capsys.readouterr().out
    assert main(["section8", "verify-star", "--n", "16", "--N", "4", "--kmax", "8",
                 "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tested"] == 7_686_401 and report["ok"]
    assert main(["section8", "bound", "--n", "6", "--N", "2", "--word", "w1 w2^-1 w1",
                 "--format", "csv"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0] == "h,h_length,m,bound,span_proper"
    assert rows[1] == "w1 w2^-1 w1,3,1,2,True"


def test_section8_bound_long_block_is_contract_error(capsys):
    assert main(["section8", "bound", "--n", "3", "--N", "2", "--word", "w1 w2 w1"]) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: block 'w1 w2'")


def test_graph_and_model_files_round_trip(files):
    from raagcc.graphs import DefiningGraph
    from raagcc.surfaces import SurfaceModel
    graph = DefiningGraph.from_json_dict(GRAPH)
    assert DefiningGraph.from_json_dict(graph.to_json_dict()) == graph
    model = SurfaceModel.from_json_dict(MODEL)
    assert SurfaceModel.from_json_dict(model.to_json_dict()) == model


def test_usage_errors_exit_as_input_errors(files, capsys):
    # argparse would exit 2, which the CLI reserves for "inconclusive".
    assert main(["normalize", "--graph", files["graph"], "--word", "a", "--bogus"]) == 3
    assert main(["normalize", "--graph", files["graph"]]) == 3
    assert main(["normalize", "--graph", files["graph"], "--word", "a", "--seed", "1"]) == 3
    assert "usage:" in capsys.readouterr().err
    assert main(["normalize", "--help"]) == 0
    assert "--word" in capsys.readouterr().out


@pytest.mark.parametrize("exc", [InternalError("broken\ninvariant"),
                                 RecursionError("maximum recursion depth exceeded"),
                                 MemoryError(),
                                 TypeError("'int' object is not iterable"),
                                 KeyError("vertices"),
                                 ValueError("bad\nvalue")])
def test_crashes_exit_as_internal_errors(files, capsys, monkeypatch, exc):
    """A crash gets its own exit code, never the one for "refuted"."""
    def crash(*args):
        raise exc
    monkeypatch.setattr(cli, "normalize", crash)
    assert main(["normalize", "--graph", files["graph"], "--word", "a"]) == EXIT_INTERNAL == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: ") and err.count("\n") == 1
    assert type(exc).__name__ in err


def test_stored_core_status_is_recomputed(files, capsys):
    """A verified core with one square deleted is no longer believed."""
    core_path = files["tmp"] / "core.json"
    assert main(["core", "build", "--graph", files["graph"], "--gens", files["gens"],
                 "--out", str(core_path)]) == 0
    data = json.loads(core_path.read_text())
    assert data["status"] == "verified-local-isometry"
    data["squares"] = data["squares"][1:]
    forged = files["tmp"] / "forged.json"
    forged.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()
    assert main(["core", "member", "--core", str(forged), "--word", "b c a"]) == 3
    assert "verified core is required" in capsys.readouterr().err
    assert main(["core", "check", "--core", str(forged)]) == 1
    assert "local isometry: NO" in capsys.readouterr().out
    assert main(["core", "member", "--core", str(core_path), "--word", "b c a"]) == 0


def test_stored_core_with_repeated_vertex_ids_is_input_error(files, capsys):
    """A stored core whose vertex list repeats an id is malformed input
    (exit 3) for ``core check``, ``export`` and ``core member`` alike, and
    so is a seed complex with one.  Unchecked, ``core check`` calls the
    core a local isometry, ``export`` writes the repeat back, ``core
    member`` refuses the core as unverified, and a seed is called
    disconnected."""
    core_path = files["tmp"] / "core.json"
    assert main(["core", "build", "--graph", files["graph"], "--gens", files["gens"],
                 "--out", str(core_path)]) == 0
    data = json.loads(core_path.read_text())
    data["vertices"] = data["vertices"] + data["vertices"][:1]
    forged = files["tmp"] / "forged.json"
    forged.write_text(json.dumps(data), encoding="utf-8")
    capsys.readouterr()
    for argv in (["core", "check"], ["export", "--format", "json"], ["export", "--format", "dot"],
                 ["core", "member", "--word", "b c a"]):
        assert main(argv + ["--core", str(forged)]) == 3, argv
        captured = capsys.readouterr()
        assert not captured.out and "duplicate vertex ids" in captured.err, argv
    graph = DefiningGraph.from_json_dict(GRAPH)
    seed = LabeledCubeComplex(graph=graph, vertices=(0, 1, 0), edges=((0, 0, 1, "a"),),
                              squares=frozenset(), basepoint=0)
    with pytest.raises(InputError, match="duplicate vertex ids"):
        build_core(graph, [parse_word("b c a", graph)], extend=seed)


def test_core_check_runs_the_link_check_once(files, capsys, monkeypatch):
    """``core check`` prints the link report that loading the core computed:
    one link check per run, with the same text and JSON bytes as before."""
    from raagcc import complexes
    calls = []
    original = complexes._link_violations

    def counted(complex_):
        calls.append(complex_)
        return original(complex_)
    monkeypatch.setattr(complexes, "_link_violations", counted)
    monkeypatch.setattr(cli, "_link_violations", counted)
    verified, partial = files["tmp"] / "core.json", files["tmp"] / "partial.json"
    assert main(["core", "build", "--graph", files["graph"], "--gens", files["gens"],
                 "--out", str(verified)]) == 0
    assert main(["core", "build", "--graph", files["graph"], "--gens", files["gens"],
                 "--budget", "12", "--out", str(partial)]) == 2
    capsys.readouterr()
    corner = [0, [1, 0], [5, 1]]
    for path, fmt, code, expected in (
        (verified, "text", 0, "local isometry: yes\nfoldable pairs: 0\nunfilled corners: 0\n"),
        (verified, "json", 0, {"foldable": [], "ok": True, "schema": "raagcc-core-check-v1",
                               "unfilled_corners": []}),
        (partial, "text", 1, "local isometry: NO\nfoldable pairs: 0\nunfilled corners: 1\n"),
        (partial, "json", 1, {"foldable": [], "ok": False, "schema": "raagcc-core-check-v1",
                              "unfilled_corners": [corner]}),
    ):
        calls.clear()
        assert main(["core", "check", "--core", str(path), "--format", fmt]) == code
        out = capsys.readouterr().out
        if fmt == "json":
            expected = json.dumps(expected, sort_keys=True, indent=2) + "\n"
        assert out == expected, (path, fmt)
        assert len(calls) == 1, (path, fmt)


def test_stored_core_with_a_malformed_square_is_input_error(files, capsys):
    """A stored square must be four corners, each with two ends at its
    vertex carrying distinct commuting labels, that close up.  Otherwise
    the core is malformed input (exit 3).  Unchecked, a one-corner "square"
    over the only unfilled corner of the worked subgroup's budget-12 stage
    makes the stage pass as a local isometry, and a member of the subgroup
    is then reported a non-member."""
    core_path = files["tmp"] / "partial.json"
    assert main(["core", "build", "--graph", files["graph"], "--gens", files["gens"],
                 "--budget", "12", "--out", str(core_path)]) == 2
    data = json.loads(core_path.read_text())
    capsys.readouterr()
    assert main(["core", "check", "--core", str(core_path), "--format", "json"]) == 1
    (unfilled,) = json.loads(capsys.readouterr().out)["unfilled_corners"]
    squares = data["squares"]
    labels = {eid: label for eid, _, _, label in data["edges"]}
    ends_at_base = [[eid, 0] for eid, src, _, _ in data["edges"] if src == data["basepoint"]] \
        + [[eid, 1] for eid, _, dst, _ in data["edges"] if dst == data["basepoint"]]
    a_end = next(end for end in ends_at_base if labels[end[0]] == "a")
    b_end = next(end for end in ends_at_base if labels[end[0]] == "b")
    moved = [[c[0] + 1, c[1], c[2]] if i == 0 else c for i, c in enumerate(squares[0])]
    forgeries = {
        "four corners": [unfilled],
        "another vertex": moved,
        "not two distinct commuting labels": [[data["basepoint"], a_end, b_end]] + squares[0][1:],
        "does not close up": squares[0][:2] + squares[1][2:],
    }
    forged = files["tmp"] / "forged.json"
    dot = LabeledCubeComplex.from_json_dict(data).to_dot()
    for message, square in forgeries.items():
        forged.write_text(json.dumps({**data, "squares": squares + [square]}), encoding="utf-8")
        assert main(["core", "check", "--core", str(forged)]) == 3, message
        assert main(["core", "member", "--core", str(forged),
                     "--word", "a^-1 b^-2 c^-2 a^-1 b^-1"]) == 3, message
        err = capsys.readouterr().err
        assert err.startswith("error: invalid core") and message in err, (message, err)
        with pytest.raises(InputError, match=message):
            oracles.oracle_from_dot(dot + f"// square: {json.dumps(square)}\n")
    assert main(["core", "build", "--graph", files["graph"], "--gens", files["gens"],
                 "--out", str(core_path)]) == 0
    capsys.readouterr()
    assert main(["core", "member", "--core", str(core_path),
                 "--word", "a^-1 b^-2 c^-2 a^-1 b^-1"]) == 0
    assert capsys.readouterr().out.strip() == "member"


def _pinned_invocations(files) -> list[list[str]]:
    """Every subcommand in each format, on good and bad inputs: budget
    stops, ``--out`` files, stored cores at budgets 12 and 100,000, bad
    JSON, a missing file and an unknown label.  Argparse's own text (help
    and usage errors) is left out, since it changes between Python
    versions."""
    tmp = files["tmp"]
    graph, model = ["--graph", files["graph"]], ["--model", files["model"]]
    (tmp / "broken.json").write_text('{"vertices": ', encoding="utf-8")
    broken, missing = str(tmp / "broken.json"), str(tmp / "missing.json")
    cores = [str(tmp / f"core_{budget}.json") for budget in (12, 100_000)]
    runs = []
    for fmt in (None, "text", "json", "csv", "dot"):
        fmt_args = [] if fmt is None else ["--format", fmt]
        for budget, core in zip((12, 100_000), cores):
            build = ["core", "build", *graph, "--gens", files["gens"], "--budget", str(budget)]
            runs += [build + fmt_args, build + fmt_args + ["--out", core]]
        for word in ("a a^-1 b c b", "b c a", "c b a^-1 b^2", "", "a z"):
            runs += [[cmd, *graph, "--word", word, *fmt_args]
                     for cmd in ("normalize", "minclass", "order")]
        runs.append(["minclass", *graph, "--word", "b c a", "--max-size", "1", *fmt_args])
        for core in cores:
            runs += [["core", "check", "--core", core, *fmt_args],
                     ["core", "member", "--core", core, "--word", "b c a", *fmt_args],
                     ["core", "member", "--core", core, "--word", "b^2 c^2 a^2", *fmt_args],
                     ["core", "enum", "--core", core, "--max-len", "3", *fmt_args],
                     ["core", "enum", "--core", core, "--max-len", "4", "--budget", "5",
                      *fmt_args],
                     ["export", "--core", core, *fmt_args]]
        for gens in ("gens", "gens_bad", "gens_a"):
            runs.append(["certify", *graph, *model, "--gens", files[gens], *fmt_args])
        runs.append(["certify", *graph, *model, "--gens", files["gens"], "--cell-budget", "10",
                     *fmt_args])
        for n, big_n in ((3, 1), (3, 2), (4, 1)):
            family = ["--n", str(n), "--N", str(big_n), *fmt_args]
            runs += [["section8", "gen", *family], ["section8", "constants", *family],
                     ["section8", "verify-star", *family, "--kmax", str(n // 2)]]
        for word in ("w1 w2^-1 w1", "", "w1 w2 w1", "w3"):
            runs.append(["section8", "bound", "--n", "6", "--N", "2", "--word", word, *fmt_args])
    runs += [["normalize", "--graph", broken, "--word", "a"],
             ["normalize", "--graph", missing, "--word", "a"],
             ["certify", *graph, "--model", broken, "--gens", files["gens"]],
             ["certify", *graph, *model, "--gens", missing],
             ["certify", *graph, *model, "--gens", files["gens_bad"], "--enum-budget", "0"],
             ["certify", *graph, *model, "--gens", files["gens_bad"], "--enum-budget", "1"],
             ["certify", *graph, *model, "--gens", files["gens_bad"], "--enum-budget", "1",
              "--format", "json"],
             ["core", "check", "--core", broken],
             ["export", "--core", missing, "--format", "json"]]
    for i, argv in enumerate(
            [["normalize", *graph, "--word", "b c b"], ["minclass", *graph, "--word", "b c a"],
             ["order", *graph, "--word", "b c a", "--format", "json"],
             ["core", "check", "--core", cores[0]],
             ["core", "member", "--core", cores[1], "--word", "b c a"],
             ["core", "enum", "--core", cores[1], "--max-len", "2", "--format", "csv"],
             ["export", "--core", cores[1]],
             ["certify", *graph, *model, "--gens", files["gens_bad"], "--format", "json"],
             ["section8", "constants", "--n", "3", "--N", "2", "--format", "csv"],
             ["section8", "verify-star", "--n", "4", "--N", "1", "--kmax", "2"],
             ["section8", "bound", "--n", "6", "--N", "2", "--word", "w1 w2^-1"]]):
        runs.append(argv + ["--out", str(tmp / f"out_{i}.txt")])
    return runs


def test_cli_outputs_are_pinned(files, capsys):
    """Exit code, stdout, stderr and ``--out`` bytes of every pinned
    invocation, hashed with the temporary directory replaced by a
    placeholder.  On a mismatch, ``pinned_invocations.txt`` in the test's
    temporary directory has one line per invocation (argv, exit code, and
    the sha256 of stdout, stderr and the ``--out`` file), so that diffing
    the files of two commits lists the invocations that moved."""
    tmp = str(files["tmp"])
    records = []
    for argv in _pinned_invocations(files):
        code = main(argv)
        captured = capsys.readouterr()
        out = argv[argv.index("--out") + 1] if "--out" in argv else None
        written = open(out, encoding="utf-8").read() if out and Path(out).exists() else None
        records.append([argv, code, captured.out, captured.err, written])
    text = json.dumps(records).replace(tmp, "<tmp>")
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digest != CLI_SHA256:
        def sha(data):
            return "-" if data is None else hashlib.sha256(data.encode()).hexdigest()
        listing = files["tmp"] / "pinned_invocations.txt"
        listing.write_text("".join(
            f"{json.dumps(argv)}\t{code}\t{sha(out)}\t{sha(err)}\t{sha(written)}\n"
            for argv, code, out, err, written in json.loads(text)), encoding="utf-8")
        pytest.fail(f"pinned CLI outputs hash to {digest}, not {CLI_SHA256}; "
                    f"per-invocation digests in {listing}")
