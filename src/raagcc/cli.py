"""Command-line front end.

Subcommands: ``normalize``, ``minclass``, ``order``, ``core
{build,check,member,enum}``, ``certify``, ``section8
{gen,constants,verify-star,bound}``, ``export``.  Reports are deterministic
for identical inputs: JSON is emitted with sorted keys and no timestamps.

Exit codes: 0 success/certified, 1 refuted or a failed check, 2
inconclusive or budget exhausted, 3 malformed input or usage, 4 internal
error (any uncaught exception: a broken invariant, runaway recursion,
exhausted memory or a bug).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .certify import CERTIFIED, INCONCLUSIVE, REFUTED, certify
from .complexes import (
    BUDGET_EXCEEDED,
    UNVERIFIED,
    VERIFIED,
    LabeledCubeComplex,
    LinkReport,
    SubgroupCore,
    _link_violations,
    build_core,
    enumerate_elements,
    membership,
)
from .errors import BudgetExceededError, ContractError, InputError
from .family import (
    Section8Family,
    constants as family_constants,
    displacement_upper,
    family as make_family,
    h_word_text,
    parse_h_word,
    verify_star,
)
from .graphs import DefiningGraph, is_string_list
from .surfaces import SurfaceModel
from .words import (
    _group_letters,
    is_normal,
    min_class,
    normal_word_from_pairs,
    normalize,
    parse_word,
    syllable_order,
)

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4


@dataclass
class RunConfig:
    """Parsed invocation: command path, inputs, budgets, output format."""

    command: tuple[str, ...]
    options: dict = field(default_factory=dict)
    fmt: str = "text"


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc


def _load_graph(path: str) -> DefiningGraph:
    return DefiningGraph.from_json_dict(_read_json(path))


def _load_model(path: str) -> SurfaceModel:
    return SurfaceModel.from_json_dict(_read_json(path))


def _load_generators(path: str, graph: DefiningGraph):
    data = _read_json(path)
    if not isinstance(data, dict) or not is_string_list(data.get("generators")):
        raise InputError(f"{path}: expected an object with a 'generators' list of strings")
    return [parse_word(text, graph) for text in data["generators"]]


def _load_core(path: str) -> tuple[SubgroupCore, LinkReport]:
    """A stored core, with its status recomputed rather than read: verified
    only when it is connected and passes the link check, whose report comes
    with it.  Loading has already read every square through ``square_ends``,
    so the check does not read them again."""
    complex_ = LabeledCubeComplex.from_json_dict(_read_json(path))
    report = _link_violations(complex_)
    verified = complex_.is_connected() and report.ok
    return SubgroupCore(complex=complex_, status=VERIFIED if verified else UNVERIFIED), report


def _emit(report: dict, config: RunConfig, text_lines: list[str],
          csv_rows: list[dict] | None = None) -> str:
    if config.fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    if config.fmt == "csv":
        if csv_rows is None:
            raise InputError(f"command {' '.join(config.command)} has no CSV form")
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(csv_rows[0].keys()) if csv_rows else [])
        writer.writeheader()
        for row in csv_rows:
            writer.writerow(row)
        return buf.getvalue()
    return "\n".join(text_lines) + "\n"


def _write_out(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_normalize(config: RunConfig) -> int:
    graph = _load_graph(config.options["graph"])
    word = parse_word(config.options["word"], graph)
    result = normalize(word, graph)
    report = {
        "schema": "raagcc-normalize-v1",
        "input": config.options["word"],
        "normal_form": result.to_text(),
        "letter_length": result.letter_length,
        "syllable_length": result.syllable_length,
    }
    _write_out(_emit(report, config, [result.to_text()]), config.options.get("out"))
    return EXIT_OK


def _cmd_minclass(config: RunConfig) -> int:
    graph = _load_graph(config.options["graph"])
    word = parse_word(config.options["word"], graph)
    try:
        words = min_class(word, graph, max_size=config.options["max_size"])
    except BudgetExceededError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INCONCLUSIVE
    report = {
        "schema": "raagcc-minclass-v1",
        "input": config.options["word"],
        "size": len(words),
        "words": [w.to_text() for w in words],
    }
    _write_out(_emit(report, config, [w.to_text() for w in words]), config.options.get("out"))
    return EXIT_OK


def _cmd_order(config: RunConfig) -> int:
    graph = _load_graph(config.options["graph"])
    word = parse_word(config.options["word"], graph)
    if not is_normal(word, graph):
        raise InputError("word is not in normal form; run 'normalize' first")
    # Keep the user's spelling: positions refer to the word as written.
    given = normal_word_from_pairs(_group_letters(word.letters))
    order = syllable_order(given, graph)
    pairs = sorted(order.pairs)
    syls = given.syllables
    lines = [f"{syls[i].generator}[{i}] < {syls[j].generator}[{j}]" for i, j in pairs]
    report = {
        "schema": "raagcc-order-v1",
        "word": given.to_text(),
        "pairs": [[i, j] for i, j in pairs],
        "generator_pairs": sorted(f"{syls[i].generator}<{syls[j].generator}" for i, j in pairs),
    }
    _write_out(_emit(report, config, lines or ["(no ordered pairs)"]), config.options.get("out"))
    return EXIT_OK


def _cmd_core_build(config: RunConfig) -> int:
    graph = _load_graph(config.options["graph"])
    gens = _load_generators(config.options["gens"], graph)
    core = build_core(graph, gens, budget=config.options["budget"])
    report = {
        "schema": "raagcc-core-build-v1",
        "status": core.status,
        "diagnostics": core.diagnostics,
    }
    out = config.options.get("out")
    if out:
        Path(out).write_text(
            json.dumps({**core.complex.to_json_dict(), "status": core.status},
                       sort_keys=True, indent=2) + "\n",
            encoding="utf-8")
        report["core_file"] = out
    lines = [f"status: {core.status}"] + [
        f"{k}: {v}" for k, v in sorted(core.diagnostics.items())
    ]
    sys.stdout.write(_emit(report, config, lines))
    return EXIT_OK if core.status != BUDGET_EXCEEDED else EXIT_INCONCLUSIVE


def _cmd_core_check(config: RunConfig) -> int:
    _, report_obj = _load_core(config.options["core"])
    report = {
        "schema": "raagcc-core-check-v1",
        "ok": report_obj.ok,
        "foldable": [list(x) for x in report_obj.foldable],
        "unfilled_corners": [[v, list(a), list(b)] for v, (a, b) in report_obj.unfilled],
    }
    lines = [f"local isometry: {'yes' if report_obj.ok else 'NO'}",
             f"foldable pairs: {len(report_obj.foldable)}",
             f"unfilled corners: {len(report_obj.unfilled)}"]
    _write_out(_emit(report, config, lines), config.options.get("out"))
    return EXIT_OK if report_obj.ok else EXIT_REFUTED


def _cmd_core_member(config: RunConfig) -> int:
    core, _ = _load_core(config.options["core"])
    word = parse_word(config.options["word"], core.graph)
    result = membership(core, word)
    report = {"schema": "raagcc-member-v1", "word": config.options["word"], "member": result}
    _write_out(_emit(report, config, ["member" if result else "non-member"]),
               config.options.get("out"))
    return EXIT_OK


def _cmd_core_enum(config: RunConfig) -> int:
    core, _ = _load_core(config.options["core"])
    try:
        words = enumerate_elements(core, config.options["max_len"],
                                   budget=config.options.get("budget"))
    except BudgetExceededError as exc:
        sys.stderr.write(f"error: {exc} (partial count {exc.partial_count})\n")
        return EXIT_INCONCLUSIVE
    report = {
        "schema": "raagcc-enum-v1",
        "max_len": config.options["max_len"],
        "count": len(words),
        "elements": [w.to_text() for w in words],
    }
    _write_out(_emit(report, config, [w.to_text() or "(identity)" for w in words]),
               config.options.get("out"))
    return EXIT_OK


def _cmd_certify(config: RunConfig) -> int:
    graph = _load_graph(config.options["graph"])
    model = _load_model(config.options["model"])
    gens = _load_generators(config.options["gens"], graph)
    cert = certify(graph, model, gens,
                   cell_budget=config.options["cell_budget"],
                   enum_budget=config.options["enum_budget"])
    report = cert.to_json_dict()
    lines = [f"verdict: {cert.verdict}"]
    if cert.ell is not None:
        lines.append(f"ell: {cert.ell}")
    if cert.witness is not None:
        lines.append(f"witness: {cert.witness.to_text()}")
        lines.append(f"witness support: {{{', '.join(sorted(cert.witness_support))}}}")
    if cert.reason:
        lines.append(f"reason: {cert.reason}")
    if cert.verdict == CERTIFIED:
        lines.append(f"bound: d >= |h|/{6 * cert.ell} - 2")
    _write_out(_emit(report, config, lines), config.options.get("out"))
    if cert.verdict == CERTIFIED:
        return EXIT_OK
    if cert.verdict == REFUTED:
        return EXIT_REFUTED
    return EXIT_INCONCLUSIVE


def _cmd_export(config: RunConfig) -> int:
    core, _ = _load_core(config.options["core"])
    fmt = config.fmt if config.fmt != "text" else "dot"
    if fmt == "dot":
        text = core.complex.to_dot()
    elif fmt == "json":
        text = json.dumps({**core.complex.to_json_dict(), "status": core.status},
                          sort_keys=True, indent=2) + "\n"
    else:
        raise InputError(f"export supports dot or json, not {fmt!r}")
    _write_out(text, config.options.get("out"))
    return EXIT_OK


def _family_from_config(config: RunConfig) -> Section8Family:
    return make_family(config.options["n"], config.options["N"])


def _cmd_section8_gen(config: RunConfig) -> int:
    fam = _family_from_config(config)
    report = {
        "schema": "raagcc-section8-gen-v1",
        "n": fam.n,
        "N": fam.N,
        "graph": fam.graph.to_json_dict(),
        "model": fam.model.to_json_dict(),
        "generators": [w.to_text() for w in fam.generators],
    }
    lines = [f"w{i + 1} = {w.to_text()}" for i, w in enumerate(fam.generators)]
    _write_out(_emit(report, config, lines), config.options.get("out"))
    return EXIT_OK


def _cmd_section8_constants(config: RunConfig) -> int:
    fam = _family_from_config(config)
    c = family_constants(fam)
    report = {
        "schema": "raagcc-section8-constants-v1",
        "n": fam.n, "N": fam.N,
        "b": c.b, "d": c.d, "L": c.L, "ell_prime": c.ell_prime, "ell": c.ell,
    }
    lines = [f"b = {c.b}", f"d = {c.d}", f"L = {c.L}",
             f"ell' = {c.ell_prime}", f"ell = {c.ell}"]
    rows = [{"n": fam.n, "N": fam.N, "b": c.b, "d": c.d, "L": c.L,
             "ell_prime": c.ell_prime, "ell": c.ell}]
    _write_out(_emit(report, config, lines, rows), config.options.get("out"))
    return EXIT_OK


def _cmd_section8_verify_star(config: RunConfig) -> int:
    fam = _family_from_config(config)
    rep = verify_star(fam, config.options["kmax"])
    report = {
        "schema": "raagcc-section8-star-v1",
        "n": fam.n, "N": fam.N, "k_max": config.options["kmax"],
        "tested": rep.tested,
        "violations": [list(v) for v in rep.violations],
        "all_proper": rep.all_proper,
        "ok": rep.ok,
    }
    lines = [f"tested: {rep.tested}", f"violations: {len(rep.violations)}",
             f"all spans proper: {rep.all_proper}"]
    rows = [{"tested": rep.tested, "violations": len(rep.violations),
             "all_proper": rep.all_proper}]
    _write_out(_emit(report, config, lines, rows), config.options.get("out"))
    return EXIT_OK if rep.ok else EXIT_REFUTED


def _cmd_section8_bound(config: RunConfig) -> int:
    fam = _family_from_config(config)
    h = parse_h_word(config.options["word"], fam.N)
    m, bound = displacement_upper(h, fam)
    report = {
        "schema": "raagcc-section8-bound-v1",
        "n": fam.n, "N": fam.N,
        "h": h_word_text(h),
        "h_length": len(h),
        "m": m,
        "bound": [bound.numerator, bound.denominator],
        "span_proper": True,
    }
    lines = [f"h = {h_word_text(h) or '(identity)'}",
             f"|h|_H = {len(h)}", f"m = {m}",
             f"bound: d(alpha, h alpha) <= {bound}"]
    rows = [{"h": h_word_text(h), "h_length": len(h), "m": m,
             "bound": str(bound), "span_proper": True}]
    _write_out(_emit(report, config, lines, rows), config.options.get("out"))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv", "dot"), default="text",
                        help="report format (default: text)")
    common.add_argument("--out", default=None, help="write the report to a file")

    parser = argparse.ArgumentParser(
        prog="raagcc",
        description="Normal forms, subgroup cores, and convex-cocompactness certificates "
                    "for right-angled Artin groups over a declared surface model.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", parents=[common], help="canonical normal form of a word")
    p.add_argument("--graph", required=True)
    p.add_argument("--word", required=True)

    p = sub.add_parser("minclass", parents=[common], help="all normal representatives of a word")
    p.add_argument("--graph", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--max-size", type=int, default=200_000)

    p = sub.add_parser("order", parents=[common], help="syllable partial order of a normal word")
    p.add_argument("--graph", required=True)
    p.add_argument("--word", required=True)

    core = sub.add_parser("core", help="subgroup core operations").add_subparsers(
        dest="core_command", required=True)
    p = core.add_parser("build", parents=[common], help="fold-and-fill a core for given generators")
    p.add_argument("--graph", required=True)
    p.add_argument("--gens", required=True)
    p.add_argument("--budget", type=int, default=100_000)
    p = core.add_parser("check", parents=[common], help="link conditions of a stored core")
    p.add_argument("--core", required=True)
    p = core.add_parser("member", parents=[common], help="membership of a word in a stored core")
    p.add_argument("--core", required=True)
    p.add_argument("--word", required=True)
    p = core.add_parser("enum", parents=[common], help="enumerate elements up to a length")
    p.add_argument("--core", required=True)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--budget", type=int, default=None)

    p = sub.add_parser("certify", parents=[common], help="convex-cocompactness certificate")
    p.add_argument("--graph", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--gens", required=True)
    p.add_argument("--cell-budget", type=int, default=20_000)
    p.add_argument("--enum-budget", type=int, default=5_000_000,
                   help="enumeration nodes allowed when searching for a refutation's "
                        "witness; a certified verdict does not depend on it")

    s8 = sub.add_parser("section8", help="the explicit ring family").add_subparsers(
        dest="s8_command", required=True)
    for name, extra in (("gen", ()), ("constants", ()),
                        ("verify-star", ("kmax",)), ("bound", ("word",))):
        p = s8.add_parser(name, parents=[common])
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--N", type=int, required=True, dest="bigN")
        if "kmax" in extra:
            p.add_argument("--kmax", type=int, required=True)
        if "word" in extra:
            p.add_argument("--word", required=True)

    p = sub.add_parser("export", parents=[common], help="export a stored core (dot or json)")
    p.add_argument("--core", required=True)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    options = {k: v for k, v in vars(args).items()
               if k not in ("format", "command", "core_command", "s8_command")}
    command = tuple(x for x in (args.command, getattr(args, "core_command", None),
                                getattr(args, "s8_command", None)) if x)
    if "bigN" in options:
        options["N"] = options.pop("bigN")
    return RunConfig(command=command, options=options, fmt=args.format)


_DISPATCH = {
    ("normalize",): _cmd_normalize,
    ("minclass",): _cmd_minclass,
    ("order",): _cmd_order,
    ("core", "build"): _cmd_core_build,
    ("core", "check"): _cmd_core_check,
    ("core", "member"): _cmd_core_member,
    ("core", "enum"): _cmd_core_enum,
    ("certify",): _cmd_certify,
    ("section8", "gen"): _cmd_section8_gen,
    ("section8", "constants"): _cmd_section8_constants,
    ("section8", "verify-star"): _cmd_section8_verify_star,
    ("section8", "bound"): _cmd_section8_bound,
    ("export",): _cmd_export,
}


def run(config: RunConfig) -> int:
    """Dispatch a parsed configuration; returns the process exit code."""
    handler = _DISPATCH.get(config.command)
    if handler is None:
        raise InputError(f"unknown command {' '.join(config.command)}")
    return handler(config)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed help (code 0) or a usage error
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    try:
        return run(_config_from_args(args))
    except (InputError, ContractError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except Exception as exc:  # a crash must never exit with the code for "refuted"
        detail = " ".join(str(exc).split())
        sys.stderr.write(f"internal error: {type(exc).__name__}"
                         f"{': ' + detail if detail else ''}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
