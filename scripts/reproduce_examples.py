#!/usr/bin/env python3
"""Run the three worked subgroup constructions end to end and print what the
certifier finds: a certified two-generator subgroup, its extension by a new
member, and an augmented generating set that traps a non-filling element."""

from __future__ import annotations

import argparse

from raagcc import (
    DefiningGraph,
    SurfaceModel,
    build_core,
    certify,
    check_local_isometry,
    displacement_lower_bound,
    enumerate_elements,
    extract_generators,
    membership,
    parse_word,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cell-budget", type=int, default=20_000)
    args = parser.parse_args()

    graph = DefiningGraph.build("abc", [("b", "c")])
    model = SurfaceModel.build(graph, [["a", "b", "c"]], admissible=True)

    print("== two-generator subgroup <bca, babc> ==")
    gens = [parse_word("b c a", graph), parse_word("b a b c", graph)]
    core = build_core(graph, gens, budget=args.cell_budget)
    print(f"core: status={core.status} "
          f"V={core.diagnostics['vertex_count']} E={core.diagnostics['edge_count']} "
          f"squares={core.diagnostics['square_count']} folds={core.diagnostics['folds']}")
    print(f"link check clean: {check_local_isometry(core.complex).ok}")
    probe = parse_word("b^2 c^2 a^2", graph)
    print(f"membership('b^2 c^2 a^2') = {membership(core, probe)}")
    cert = certify(graph, model, gens, cell_budget=args.cell_budget)
    print(f"certify: {cert.verdict} (ell={cert.ell}, elements counted={cert.element_count})")
    if cert.verdict == "certified":
        h = parse_word("b c a b a b c", graph)
        print(f"displacement bound for a length-7 member: >= {displacement_lower_bound(cert, h)}")
    extracted = extract_generators(cert.core)
    print(f"spanning-tree generators: {[w.to_text() for w in extracted]}")

    print("\n== extension by b^2 c^2 a^2 ==")
    extended = build_core(graph, [probe], budget=args.cell_budget, extend=core.complex)
    print(f"core: status={extended.status} "
          f"squares={extended.diagnostics['square_count']} folds={extended.diagnostics['folds']}")
    print(f"now membership('b^2 c^2 a^2') = {membership(extended, probe)}")
    print(f"elements up to length 6: {len(enumerate_elements(extended, 6))} "
          f"(was {len(enumerate_elements(core, 6))})")

    print("\n== augmented set <abc, cab, a^2 b c> ==")
    gens4 = [parse_word(t, graph) for t in ("a b c", "c a b", "a^2 b c")]
    cert4 = certify(graph, model, gens4, cell_budget=args.cell_budget)
    print(f"certify: {cert4.verdict}")
    print(f"witness: {cert4.witness.to_text()} with cyclic-reduction support "
          f"{{{', '.join(sorted(cert4.witness_support))}}}")
    print("the witness image fixes a curve, so this subgroup is not purely pseudo-Anosov")


if __name__ == "__main__":
    main()
