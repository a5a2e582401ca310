#!/usr/bin/env python3
"""Regenerate ``zoo_catalog.json``, the problem set the certify-zoo workload
draws from.

Candidates come from a fixed catalog seed: over each small defining graph,
2-3 generators, each spelling every vertex once in a random order with random
signs plus 0-2 extra random letters.  Every candidate is certified once at the
zoo budgets and filed under its verdict, up to ``KEEP`` per stratum.  The
workload seed then draws a fixed number of problems from each (graph,
verdict) stratum, so the mix of fast refutations, certifications and
budget-bound inconclusive runs is the same for every seed, and every drawn
problem has a stored verdict to check against.

Run from the repository root:  python3 perfbench/make_catalog.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from raagcc import DefiningGraph, SurfaceModel, certify, word_from_pairs  # noqa: E402

from zoo import CATALOG_SEED, CELL_BUDGET, ENUM_BUDGET, GRAPHS  # noqa: E402

CANDIDATES_PER_GRAPH = 1200
KEEP = {"refuted": 80, "certified": 80, "inconclusive": 40}


def candidate(rng: random.Random, vertices: str) -> list[str]:
    gens = []
    for _ in range(rng.choice((2, 3))):
        letters = list(vertices) + [rng.choice(vertices) for _ in range(rng.randint(0, 2))]
        rng.shuffle(letters)
        gens.append(" ".join(v if rng.random() < 0.5 else f"{v}^-1" for v in letters))
    return gens


def main() -> None:
    rng = random.Random(CATALOG_SEED)
    catalog: dict[str, dict[str, list]] = {}
    for name, (vertices, edges) in GRAPHS.items():
        graph = DefiningGraph.build(vertices, edges)
        model = SurfaceModel.build(graph, [list(vertices)])
        strata: dict[str, list] = {k: [] for k in KEEP}
        seen = set()
        for _ in range(CANDIDATES_PER_GRAPH):
            gens = candidate(rng, vertices)
            key = tuple(gens)
            if key in seen:
                continue
            seen.add(key)
            cert = certify(graph, model,
                           [word_from_pairs(_pairs(g)) for g in gens],
                           cell_budget=CELL_BUDGET, enum_budget=ENUM_BUDGET)
            bucket = strata[cert.verdict]
            if len(bucket) < KEEP[cert.verdict]:
                bucket.append(gens)
        catalog[name] = strata
        print(name, {k: len(v) for k, v in strata.items()}, file=sys.stderr)
    out = {"catalog_seed": CATALOG_SEED, "cell_budget": CELL_BUDGET,
           "enum_budget": ENUM_BUDGET, "graphs": catalog}
    (HERE / "zoo_catalog.json").write_text(json.dumps(out, indent=0) + "\n")


def _pairs(text: str) -> list[tuple[str, int]]:
    out = []
    for token in text.split():
        label, _, exp = token.partition("^")
        out.append((label, int(exp) if exp else 1))
    return out


if __name__ == "__main__":
    main()
