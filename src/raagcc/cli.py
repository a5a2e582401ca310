"""Command-line front end.

Subcommands: ``normalize``, ``minclass``, ``order``, ``core
{build,check,member,enum}``, ``certify``, ``section8
{gen,constants,verify-star,bound}``, ``export``.  Each subparser carries its
handler, so argparse alone routes a command.  Reports are deterministic for
identical inputs: JSON is emitted with sorted keys and no timestamps.

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
from pathlib import Path

from .certify import CERTIFIED, REFUTED, certify
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


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: invalid UTF-8 at byte {exc.start}") from exc
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


def _core_json(core: SubgroupCore) -> str:
    return json.dumps({**core.complex.to_json_dict(), "status": core.status},
                      sort_keys=True, indent=2) + "\n"


def _emit(report: dict, args: argparse.Namespace, text_lines: list[str],
          csv_rows: list[dict] | None = None) -> str:
    if args.format == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.format == "csv":
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


def _cmd_normalize(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    word = parse_word(args.word, graph)
    result = normalize(word, graph)
    report = {
        "schema": "raagcc-normalize-v1",
        "input": args.word,
        "normal_form": result.to_text(),
        "letter_length": result.letter_length,
        "syllable_length": result.syllable_length,
    }
    _write_out(_emit(report, args, [result.to_text()]), args.out)
    return EXIT_OK


def _cmd_minclass(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    word = parse_word(args.word, graph)
    try:
        words = min_class(word, graph, max_size=args.max_size)
    except BudgetExceededError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INCONCLUSIVE
    report = {
        "schema": "raagcc-minclass-v1",
        "input": args.word,
        "size": len(words),
        "words": [w.to_text() for w in words],
    }
    _write_out(_emit(report, args, [w.to_text() for w in words]), args.out)
    return EXIT_OK


def _cmd_order(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    word = parse_word(args.word, graph)
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
    _write_out(_emit(report, args, lines or ["(no ordered pairs)"]), args.out)
    return EXIT_OK


def _cmd_core_build(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    gens = _load_generators(args.gens, graph)
    core = build_core(graph, gens, budget=args.budget)
    report = {
        "schema": "raagcc-core-build-v1",
        "status": core.status,
        "diagnostics": core.diagnostics,
    }
    if args.out:
        Path(args.out).write_text(_core_json(core), encoding="utf-8")
        report["core_file"] = args.out
    lines = [f"status: {core.status}"] + [
        f"{k}: {v}" for k, v in sorted(core.diagnostics.items())
    ]
    sys.stdout.write(_emit(report, args, lines))
    return EXIT_OK if core.status != BUDGET_EXCEEDED else EXIT_INCONCLUSIVE


def _cmd_core_check(args: argparse.Namespace) -> int:
    _, report_obj = _load_core(args.core)
    report = {
        "schema": "raagcc-core-check-v1",
        "ok": report_obj.ok,
        "foldable": [list(x) for x in report_obj.foldable],
        "unfilled_corners": [[v, list(a), list(b)] for v, (a, b) in report_obj.unfilled],
    }
    lines = [f"local isometry: {'yes' if report_obj.ok else 'NO'}",
             f"foldable pairs: {len(report_obj.foldable)}",
             f"unfilled corners: {len(report_obj.unfilled)}"]
    _write_out(_emit(report, args, lines), args.out)
    return EXIT_OK if report_obj.ok else EXIT_REFUTED


def _cmd_core_member(args: argparse.Namespace) -> int:
    core, _ = _load_core(args.core)
    word = parse_word(args.word, core.graph)
    result = membership(core, word)
    report = {"schema": "raagcc-member-v1", "word": args.word, "member": result}
    _write_out(_emit(report, args, ["member" if result else "non-member"]), args.out)
    return EXIT_OK


def _cmd_core_enum(args: argparse.Namespace) -> int:
    core, _ = _load_core(args.core)
    try:
        words = enumerate_elements(core, args.max_len, budget=args.budget)
    except BudgetExceededError as exc:
        sys.stderr.write(f"error: {exc} (partial count {exc.partial_count})\n")
        return EXIT_INCONCLUSIVE
    report = {
        "schema": "raagcc-enum-v1",
        "max_len": args.max_len,
        "count": len(words),
        "elements": [w.to_text() for w in words],
    }
    _write_out(_emit(report, args, [w.to_text() or "(identity)" for w in words]), args.out)
    return EXIT_OK


def _cmd_certify(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    model = _load_model(args.model)
    gens = _load_generators(args.gens, graph)
    cert = certify(graph, model, gens, cell_budget=args.cell_budget, enum_budget=args.enum_budget)
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
        lines.append(f"bound: {report['bound']['formula']}")
    _write_out(_emit(report, args, lines), args.out)
    if cert.verdict == CERTIFIED:
        return EXIT_OK
    if cert.verdict == REFUTED:
        return EXIT_REFUTED
    return EXIT_INCONCLUSIVE


def _cmd_export(args: argparse.Namespace) -> int:
    core, _ = _load_core(args.core)
    _write_out(_core_json(core) if args.format == "json" else core.complex.to_dot(), args.out)
    return EXIT_OK


def _cmd_section8_gen(args: argparse.Namespace, fam: Section8Family) -> int:
    report = {
        "schema": "raagcc-section8-gen-v1",
        "n": fam.n,
        "N": fam.N,
        "graph": fam.graph.to_json_dict(),
        "model": fam.model.to_json_dict(),
        "generators": [w.to_text() for w in fam.generators],
    }
    lines = [f"w{i + 1} = {w.to_text()}" for i, w in enumerate(fam.generators)]
    _write_out(_emit(report, args, lines), args.out)
    return EXIT_OK


def _cmd_section8_constants(args: argparse.Namespace, fam: Section8Family) -> int:
    c = family_constants(fam)
    report = {
        "schema": "raagcc-section8-constants-v1",
        "n": fam.n, "N": fam.N,
        "b": c.b, "d": c.d, "L": c.L, "ell_prime": c.ell_prime, "ell": c.ell,
    }
    lines = [f"b = {c.b}", f"d = {c.d}", f"L = {c.L}",
             f"ell' = {c.ell_prime}", f"ell = {c.ell}"]
    rows = [{k: v for k, v in report.items() if k != "schema"}]
    _write_out(_emit(report, args, lines, rows), args.out)
    return EXIT_OK


def _cmd_section8_verify_star(args: argparse.Namespace, fam: Section8Family) -> int:
    rep = verify_star(fam, args.kmax)
    report = {
        "schema": "raagcc-section8-star-v1",
        "n": fam.n, "N": fam.N, "k_max": args.kmax,
        "tested": rep.tested,
        "violations": [list(v) for v in rep.violations],
        "all_proper": rep.all_proper,
        "ok": rep.ok,
    }
    lines = [f"tested: {rep.tested}", f"violations: {len(rep.violations)}",
             f"all spans proper: {rep.all_proper}"]
    rows = [{"tested": rep.tested, "violations": len(rep.violations),
             "all_proper": rep.all_proper}]
    _write_out(_emit(report, args, lines, rows), args.out)
    return EXIT_OK if rep.ok else EXIT_REFUTED


def _cmd_section8_bound(args: argparse.Namespace, fam: Section8Family) -> int:
    h = parse_h_word(args.word, fam.N)
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
    _write_out(_emit(report, args, lines, rows), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv", "dot"), default="text",
                        help="report format (default: text)")
    common.add_argument("--out", default=None, help="write the report to a file")

    def command(subparsers, name, handler, *required, **kwargs):
        """A subparser that runs ``handler``, with the required string options named."""
        p = subparsers.add_parser(name, parents=[common], **kwargs)
        p.set_defaults(run=handler, name=p.prog.removeprefix("raagcc "),
                       formats=("text", "json"))  # the formats it has a form for
        for option in required:
            p.add_argument(f"--{option}", required=True)
        return p

    parser = argparse.ArgumentParser(
        prog="raagcc",
        description="Normal forms, subgroup cores, and convex-cocompactness certificates "
                    "for right-angled Artin groups over a declared surface model.")
    # Each dest names a missing subcommand in argparse's usage error.
    sub = parser.add_subparsers(dest="command", required=True)

    command(sub, "normalize", _cmd_normalize, "graph", "word",
            help="canonical normal form of a word")
    p = command(sub, "minclass", _cmd_minclass, "graph", "word",
                help="all normal representatives of a word")
    p.add_argument("--max-size", type=int, default=200_000)
    command(sub, "order", _cmd_order, "graph", "word",
            help="syllable partial order of a normal word")

    core = sub.add_parser("core", help="subgroup core operations").add_subparsers(
        dest="core_command", required=True)
    p = command(core, "build", _cmd_core_build, "graph", "gens",
                help="fold-and-fill a core for given generators")
    p.add_argument("--budget", type=int, default=100_000)
    command(core, "check", _cmd_core_check, "core", help="link conditions of a stored core")
    command(core, "member", _cmd_core_member, "core", "word",
            help="membership of a word in a stored core")
    p = command(core, "enum", _cmd_core_enum, "core",
                help="enumerate elements up to a length")
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--budget", type=int, default=None)

    p = command(sub, "certify", _cmd_certify, "graph", "model", "gens",
                help="convex-cocompactness certificate")
    p.add_argument("--cell-budget", type=int, default=20_000)
    p.add_argument("--enum-budget", type=int, default=5_000_000,
                   help="enumeration nodes allowed when searching for a refutation's "
                        "witness; a certified verdict does not depend on it")

    s8 = sub.add_parser("section8", help="the explicit ring family").add_subparsers(
        dest="s8_command", required=True)
    for name, handler, extra in (("gen", _cmd_section8_gen, ()),
                                 ("constants", _cmd_section8_constants, ()),
                                 ("verify-star", _cmd_section8_verify_star, ("kmax",)),
                                 ("bound", _cmd_section8_bound, ("word",))):
        p = command(s8, name, lambda args, h=handler: h(args, make_family(args.n, args.bigN)))
        if name != "gen":
            p.set_defaults(formats=("text", "json", "csv"))
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--N", type=int, required=True, dest="bigN")
        if "kmax" in extra:
            p.add_argument("--kmax", type=int, required=True)
        if "word" in extra:
            p.add_argument("--word", required=True)

    p = command(sub, "export", _cmd_export, "core", help="export a stored core (dot or json)")
    p.set_defaults(formats=("text", "dot", "json"))  # text is its DOT default

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed help (code 0) or a usage error
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    try:
        # A format is refused before any input is read or any work is done.
        if args.format not in args.formats:
            raise InputError(f"command {args.name} has no {args.format.upper()} form")
        return args.run(args)
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
