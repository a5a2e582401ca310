from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from raagcc.certify import _StageView
from raagcc.complexes import _Builder
from raagcc.graphs import DefiningGraph
from raagcc.surfaces import SurfaceModel
from raagcc.words import _indexed, normalize, parse_word


@pytest.fixture(scope="session")
def abc_graph() -> DefiningGraph:
    """Three generators, single commuting pair b-c (the running example)."""
    return DefiningGraph.build("abc", [("b", "c")])


@pytest.fixture(scope="session")
def abc_model(abc_graph) -> SurfaceModel:
    """Full-set-only filling over the running example graph."""
    return SurfaceModel.build(abc_graph, [["a", "b", "c"]], admissible=True)


@pytest.fixture(scope="session")
def path_graph() -> DefiningGraph:
    """Four generators in a path: a-b, b-c, c-d."""
    return DefiningGraph.build("abcd", [("a", "b"), ("b", "c"), ("c", "d")])


GRAPH_ZOO = [
    DefiningGraph.build("ab", []),
    DefiningGraph.build("abc", [("b", "c")]),
    DefiningGraph.build("abc", [("a", "b"), ("b", "c"), ("a", "c")]),
    DefiningGraph.build("abcd", [("a", "b"), ("b", "c"), ("c", "d")]),
    DefiningGraph.build("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]),
    DefiningGraph.build("abcd", [("a", "c")]),
]


CATALOG = Path(__file__).resolve().parents[1] / "perfbench" / "zoo_catalog.json"
CATALOG_GRAPHS = {"abc": GRAPH_ZOO[1], "path4": GRAPH_ZOO[3], "cycle4": GRAPH_ZOO[4],
                  "sparse4": GRAPH_ZOO[5]}


def build_shuffled(graph: DefiningGraph, gens, budget: int, rng: random.Random):
    """``build_core(graph, gens, budget=budget)`` with its fold and fill
    order drawn from ``rng``, for the confluence tests: the core must not
    depend on it."""
    builder = _Builder(graph, [_indexed(w, graph) for w in gens], rng, None)
    return builder.core(builder.grow(budget), budget)


def catalog_sample(rng: random.Random):
    """A seeded sample of the certify catalog: up to three problems per
    graph and stored verdict, as (graph, generator words normalized as
    ``certify`` builds them)."""
    catalog = json.loads(CATALOG.read_text())
    for name, strata in catalog["graphs"].items():
        graph = CATALOG_GRAPHS[name]
        for verdict in sorted(strata):
            for texts in rng.sample(strata[verdict], min(3, len(strata[verdict]))):
                yield graph, [normalize(parse_word(t, graph), graph).as_word() for t in texts]


@pytest.fixture(scope="session")
def catalog_stages():
    """A seeded catalog sample, three problems per graph and stored verdict,
    with every stage ``certify`` builds for it at the catalog's cell budget:
    256, 1024 and 2000 cells, grown on one builder as ``certify`` grows
    them, up to the first verified one.  Each stage is a pair: the stage
    frozen as a core, and the ``_StageView`` that ``certify`` decides it on."""
    out = []
    for graph, gens in catalog_sample(random.Random(29)):
        model = SurfaceModel.build(graph, [graph.vertices])
        builder = _Builder(graph, [_indexed(w, graph) for w in gens], None, None)
        stages = []
        for budget in (256, 1_024, 2_000):
            core = builder.core(builder.grow(budget), budget)
            stages.append((core, _StageView(builder)))
            if core.verified:
                break
        out.append((graph, model, gens, stages))
    return out
