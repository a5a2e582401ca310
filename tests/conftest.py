from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from raagcc.certify import _StageView, _stage_budgets
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
CATALOG_BUDGETS = {"cell_budget": 2_000, "enum_budget": 50_000}


class _RandomPopQueue(list):
    """A fold queue whose ``pop`` takes an entry drawn from ``rng``, and
    counts the pops that did not take the last entry."""

    def __init__(self, rng: random.Random, entries=()):
        super().__init__(entries)
        self.rng = rng
        self.moved = 0

    def pop(self):
        i = self.rng.randrange(len(self))
        if i != len(self) - 1:
            self.moved += 1
            self[i], self[-1] = self[-1], self[i]
        return super().pop()


class ShuffledBuilder(_Builder):
    """A ``_Builder`` that folds its queued pairs and attaches each fill
    pass's squares in an order drawn from ``rng``.  ``reordered`` counts the
    passes whose attaches ran in an order other than the builder's own."""

    def __init__(self, graph: DefiningGraph, gens, rng: random.Random):
        self.rng = rng
        self.reordered = 0
        super().__init__(graph, [_indexed(w, graph) for w in gens])

    @property
    def collisions(self):
        return self._queue

    @collisions.setter
    def collisions(self, entries):
        self._queue = _RandomPopQueue(self.rng, entries)

    def fill_pass(self) -> bool:
        self.deferred = attaches = []
        filled = super().fill_pass()
        shuffled = self.rng.sample(attaches, len(attaches))
        self.reordered += shuffled != attaches
        for corner in shuffled:
            super()._attach_square(*corner)
        return filled

    def _attach_square(self, *corner) -> None:
        self.deferred.append(corner)


def build_shuffled(graph: DefiningGraph, gens, budget: int, rng: random.Random):
    """``build_core(graph, gens, budget=budget)`` with its fold and fill
    order drawn from ``rng``, for the confluence tests: the core must not
    depend on it."""
    builder = ShuffledBuilder(graph, gens, rng)
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
    with every stage ``certify`` builds for it at the catalog's cell budget
    (``_stage_budgets``), up to the first verified one.  Each stage is a
    pair: the stage frozen as a core, and the ``_StageView`` that ``certify``
    decides it on.  A view answers for its stage only until its builder
    grows on, so each view reads a fresh builder grown to its stage alone;
    the builder that resumes each stage from the one before, as ``certify``
    grows it, freezes into the same core with the same counters."""
    out = []
    for graph, gens in catalog_sample(random.Random(29)):
        model = SurfaceModel.build(graph, [graph.vertices])
        words = [_indexed(w, graph) for w in gens]
        resumed = _Builder(graph, words)
        stages = []
        for budget in _stage_budgets(CATALOG_BUDGETS["cell_budget"]):
            fresh = _Builder(graph, words)
            core = fresh.core(fresh.grow(budget), budget)
            again = resumed.core(resumed.grow(budget), budget)
            assert (again, again.diagnostics) == (core, core.diagnostics)
            stages.append((core, _StageView(fresh)))
            if core.verified:
                break
        out.append((graph, model, gens, stages))
    return out
