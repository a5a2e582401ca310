"""The convex-cocompactness certifier.

``certify`` builds a core for the subgroup, sets the window length from the
core's vertex count (three times one more than it, the concrete stand-in
for the abstract ball-counting constant), enumerates every nontrivial
subgroup element up to that length in increasing length order, and checks
that each one fills.  All fill: certified, with the displacement lower
bound d >= |h|/(6*ell) - 2 attached.  Any failure: refuted, with the first
non-filling element as witness (its image fixes a curve, so the subgroup is
not purely pseudo-Anosov).  Budget exhaustion anywhere: inconclusive, never
a negative claim.

The per-element filling check needs only the generator support of a cyclic
reduction: each enumerated element is piled once by the word kernel in
``words.py`` and reduced in place, and the verdict is memoized per support
set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .complexes import (
    BUDGET_EXCEEDED,
    VERIFIED,
    SubgroupCore,
    build_core,
    iter_elements_by_length,
    iter_loops_by_length,
    membership,
)
from .errors import BudgetExceededError, ContractError, InputError
from .graphs import DefiningGraph
from .surfaces import SurfaceModel
from .words import (
    NormalWord,
    Word,
    concat,
    cyclic_core_support,
    invert,
    normal_word_from_pairs,
    normalize,
    word_from_pairs,
)

CERTIFIED = "certified"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class Certificate:
    """Outcome of the finite convex-cocompactness check."""

    graph: DefiningGraph
    model: SurfaceModel
    generators: tuple[NormalWord, ...]
    core_vertex_count: int
    core_square_count: int
    core_status: str
    ell: int | None
    verdict: str
    witness: NormalWord | None = None
    witness_support: frozenset[str] | None = None
    reason: str | None = None
    element_count: int | None = None
    core: SubgroupCore | None = field(default=None, repr=False, compare=False)
    diagnostics: dict = field(default_factory=dict, compare=False)

    def bound_coefficients(self) -> tuple[Fraction, Fraction] | None:
        """(slope, offset) of the certified lower bound d >= slope*|h| + offset."""
        if self.verdict != CERTIFIED or self.ell is None:
            return None
        return Fraction(1, 6 * self.ell), Fraction(-2)

    def to_json_dict(self) -> dict:
        bound = self.bound_coefficients()
        return {
            "schema": "raagcc-certificate-v1",
            "verdict": self.verdict,
            "generators": [g.to_text() for g in self.generators],
            "core": {
                "vertex_count": self.core_vertex_count,
                "square_count": self.core_square_count,
                "status": self.core_status,
                **{k: v for k, v in self.diagnostics.items()
                   if k in ("folds", "squares_added", "refuted_from_partial_core")},
            },
            "ell": self.ell,
            "element_count": self.element_count,
            "witness": None if self.witness is None else self.witness.to_text(),
            "witness_support": None if self.witness_support is None else sorted(self.witness_support),
            "reason": self.reason,
            "bound": None if bound is None else {
                "slope": [bound[0].numerator, bound[0].denominator],
                "offset": [bound[1].numerator, bound[1].denominator],
                "formula": f"d >= |h|/{6 * self.ell} - 2",
            },
        }


def _find_nonfilling_loop(core: SubgroupCore, model: SurfaceModel,
                          max_len: int, node_budget: int
                          ) -> tuple[tuple[tuple[int, int], ...], frozenset[int]] | None:
    """Bounded search for a basepoint loop whose cyclic reduction fails to fill.

    Sound on any link-injective stage of the construction: folding identifies
    paths without changing their images, and attached squares are relations
    that already hold, so basepoint loops always represent subgroup members.
    """
    graph = core.graph
    labels = graph.vertices
    memo: dict[frozenset[int], bool] = {}
    try:
        for length, loops in iter_loops_by_length(core.complex, max_len, node_budget=node_budget):
            if length == 0:
                continue
            for syls in loops:
                support = cyclic_core_support(syls, graph)
                verdict = memo.get(support)
                if verdict is None:
                    verdict = model.fills_subset(labels[g] for g in support)
                    memo[support] = verdict
                if not verdict:
                    return syls, support
    except BudgetExceededError:
        pass
    return None


_STAGE_START = 256
_WITNESS_SEARCH_NODES = 100_000


def certify(graph: DefiningGraph, model: SurfaceModel, generators: Sequence[Word],
            cell_budget: int = 20_000, enum_budget: int = 5_000_000) -> Certificate:
    """Run the full certification pipeline for the subgroup the generators span.

    The core is built under a geometrically escalating cell budget.  When a
    stage fails to stabilize, its partial complex is searched for a
    non-filling basepoint loop, which refutes immediately; otherwise the
    budget escalates.  A construction that never stabilizes within the cell
    budget and never exposes a witness is reported inconclusive.
    """
    if model.graph != graph:
        raise InputError("the model's coincidence graph must equal the defining graph")
    if not model.admissible:
        raise ContractError("certification requires the model's admissibility flag")
    if not generators:
        raise InputError("certify requires at least one generator")
    normal_gens = tuple(normalize(g, graph) for g in generators)
    gen_words = [g.as_word() for g in normal_gens]
    labels = graph.vertices

    stages = []
    b = _STAGE_START
    while b < cell_budget:
        stages.append(b)
        b *= 4
    stages.append(cell_budget)

    core = None
    for stage in stages:
        core = build_core(graph, gen_words, budget=stage)
        if core.status == VERIFIED:
            break
        found = _find_nonfilling_loop(
            core, model,
            max_len=3 * (len(core.complex.vertices) + 1),
            node_budget=_WITNESS_SEARCH_NODES)
        if found is not None:
            syls, support = found
            witness = normal_word_from_pairs((labels[g], e) for g, e in syls)
            stats = dict(core.diagnostics)
            stats["refuted_from_partial_core"] = True
            return Certificate(
                graph=graph, model=model, generators=normal_gens,
                core_vertex_count=len(core.complex.vertices),
                core_square_count=len(core.complex.squares),
                core_status=core.status, core=core, diagnostics=stats,
                verdict=REFUTED, ell=None, witness=witness,
                witness_support=frozenset(labels[g] for g in support))
    assert core is not None
    stats = dict(core.diagnostics)
    base = dict(
        graph=graph, model=model, generators=normal_gens,
        core_vertex_count=len(core.complex.vertices),
        core_square_count=len(core.complex.squares),
        core_status=core.status, core=core, diagnostics=stats,
    )
    if core.status == BUDGET_EXCEEDED:
        return Certificate(verdict=INCONCLUSIVE, ell=None,
                           reason=f"core construction exceeded cell budget {cell_budget}",
                           **base)
    ell = 3 * (len(core.complex.vertices) + 1)
    fills_memo: dict[frozenset[int], bool] = {}
    count = 0
    try:
        for length, loops in iter_elements_by_length(core, ell, node_budget=enum_budget):
            for syls in loops:
                count += 1
                if length == 0:
                    continue  # the identity never fills and is exempt
                support = cyclic_core_support(syls, graph)
                verdict = fills_memo.get(support)
                if verdict is None:
                    verdict = model.fills_subset(labels[g] for g in support)
                    fills_memo[support] = verdict
                if not verdict:
                    witness = normal_word_from_pairs((labels[g], e) for g, e in syls)
                    return Certificate(
                        verdict=REFUTED, ell=ell, witness=witness,
                        witness_support=frozenset(labels[g] for g in support),
                        element_count=count, **base)
    except BudgetExceededError as exc:
        return Certificate(
            verdict=INCONCLUSIVE, ell=ell, element_count=exc.partial_count,
            reason=f"enumeration exceeded budget {enum_budget}", **base)
    return Certificate(verdict=CERTIFIED, ell=ell, element_count=count, **base)


def extract_generators(core: SubgroupCore) -> tuple[NormalWord, ...]:
    """Spanning-tree/chord generators of the core's loop group.

    Tree paths from the basepoint are at most the tree depth, so each chord
    word has letter length at most twice the depth plus one.
    """
    if not core.verified:
        raise ContractError(f"core status is {core.status!r}; a verified core is required")
    complex_ = core.complex
    base = complex_.basepoint
    parent: dict[int, tuple[int, str, int] | None] = {base: None}  # vertex -> (prev, label, sign)
    tree_edges: set[int] = set()
    order_queue = [base]
    label_idx = complex_.graph.index
    while order_queue:
        v = order_queue.pop(0)
        incident = sorted(
            complex_.ends_at[v],
            key=lambda end: (label_idx(complex_.end_label(end)), end[1], end[0]),
        )
        for end in incident:
            far = complex_.far_vertex(end)
            if far not in parent:
                parent[far] = (v, complex_.end_label(end), 1 if end[1] == 0 else -1)
                tree_edges.add(end[0])
                order_queue.append(far)
    def path_word(v: int) -> Word:
        pairs = []
        while parent[v] is not None:
            prev, label, sign = parent[v]
            pairs.append((label, sign))
            v = prev
        return word_from_pairs(reversed(pairs))
    out: list[NormalWord] = []
    seen: set[tuple] = set()
    for eid, src, dst, label in complex_.edges:
        if eid in tree_edges:
            continue
        loop = concat(concat(path_word(src), word_from_pairs([(label, 1)])),
                      invert(path_word(dst)))
        nw = normalize(loop, complex_.graph)
        key = nw.pairs()
        if nw.syllables and key not in seen:
            seen.add(key)
            out.append(nw)
    return tuple(out)


def displacement_lower_bound(cert: Certificate, h: Word | NormalWord) -> Fraction:
    """Certified curve-complex displacement lower bound for a member word."""
    if cert.verdict != CERTIFIED or cert.ell is None or cert.core is None:
        raise ContractError("displacement bounds require a certified certificate")
    if not membership(cert.core, h):
        raise ContractError("displacement bounds apply to subgroup members only")
    length = normalize(h, cert.graph).letter_length
    return Fraction(length, 6 * cert.ell) - 2
