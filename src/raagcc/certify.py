"""The convex-cocompactness certifier.

``certify`` grows a core for the subgroup in stages and sets the window
length from a stage's vertex count (three times one more than it, the
concrete stand-in for the abstract ball-counting constant).  The subgroup
is convex cocompact exactly when no nontrivial member has a cyclic reduction
whose support fails to fill, and on a verified core that is a finite
check: for each maximal non-filling label set S, every chord of a spanning
forest of the core's S-labelled edges closes a loop, and some member fails
to fill exactly when one of those chord words is nontrivial.  (A member
p*u*p^-1 with u cyclically reduced traces u as a closed S-path at the
vertex p reaches, and that path is a product of chord loops; conversely a
nontrivial chord loop c gives the member p*c*p^-1, of letter length at
most 2V - 1, inside the window.)  A verified core is exact because local
isometries of nonpositively curved cube complexes are pi_1-injective
(Haglund & Wise, "Special cube complexes", GAFA 2008).

The same check decides every stage of the construction, partial or
verified, on a view of the construction's own tables (``_StageView``).
On a budget-exceeded stage a "yes" is still sound.  The stage
is connected and link-injective, and every loop at its basepoint reads a
member of the subgroup: folding identifies paths without changing their
images, and attached squares are relations that already hold.  So a
nontrivial chord loop w of the S-labelled edges at a root r gives the
member p*w*p^-1, where p is any path from the basepoint to r.  The cyclic
core of that member has its support inside S, so the member does not
fill.  A "no" on a partial stage proves nothing, since a later stage may
add loops, and the construction goes on to the next stage.

Most chord words are decided without spelling them, by homology over
GF(2).  Each square of a stage is a relation of A(Gamma), so each
component K of the S-labelled subcomplex maps pi_1(K) onto a finitely
generated subgroup of A(Gamma_S).  RAAGs are residually torsion-free
nilpotent (Duchamp & Krob, "The lower central series of the free
partially commutative group", Semigroup Forum 1992), so a nontrivial
finitely generated subgroup of one has a nontrivial torsion-free
nilpotent quotient, hence maps onto Z and onto Z/2.  So H_1(K; GF(2)) = 0
makes every chord word of K trivial, on any stage.  On a verified core
the S-labelled subcomplex is itself locally isometric into the Salvetti
complex of Gamma_S, so pi_1(K) injects (Haglund & Wise, above): there
H_1 != 0 forces a nontrivial chord word.  Only on a partial stage with
H_1 != 0 are the chord words piled.

No chord word survives on a verified core: certified, with the core
frozen and link-checked, the displacement lower bound
d >= |h|/(6*ell) - 2 attached and the number of members up to length ell
counted by ``count_elements``.  Some chord word survives: refuted, with
the first non-filling loop in increasing length order as witness (its
image fixes a curve, so the subgroup is not purely pseudo-Anosov); the
walk that finds it is bounded by the enumeration budget.  Budget
exhaustion anywhere: inconclusive, never a negative claim.

Each enumerated element's filling check needs only the generator support
of a cyclic reduction: it is piled once by the word kernel in ``words.py``
and reduced in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain
from typing import Callable, Iterator, Sequence

from .complexes import (
    VERIFIED,
    LabeledCubeComplex,
    SubgroupCore,
    _Builder,
    _require_verified,
    count_elements,
    iter_loops_by_length,
    membership,
)
from .errors import BudgetExceededError, ContractError, InputError, InternalError
from .graphs import DefiningGraph
from .surfaces import SurfaceModel
from .words import (NormalWord, Word, _indexed, _pile, _read_out, _spell, cyclic_core_support,
                    normalize)

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
    _freeze: Callable[[], SubgroupCore] | None = field(default=None, repr=False, compare=False)
    diagnostics: dict = field(default_factory=dict, compare=False)

    @cached_property
    def core(self) -> SubgroupCore | None:
        """The stage's core, frozen by ``_freeze`` on first read."""
        core = None if self._freeze is None else self._freeze()
        object.__setattr__(self, "_freeze", None)  # drop the thunk and the builder it holds
        return core

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
                   if k in ("folds", "squares_added", "refuted_from_partial_core",
                            "stages", "chord_set")},
            },
            "ell": self.ell,
            "element_count": self.element_count,
            "witness": None if self.witness is None else self.witness.to_text(),
            "witness_support": None if self.witness_support is None else sorted(self.witness_support),
            "reason": self.reason,
            "bound": None if bound is None else {
                "slope": [bound[0].numerator, bound[0].denominator],
                "offset": [bound[1].numerator, bound[1].denominator],
                "formula": f"d >= |h|/{1 / bound[0]} - {-bound[1]}",
            },
        }


class _StageView:
    """A stage, verified or not, read off its folded builder, with the parts
    of ``LabeledCubeComplex`` that the chord check and the spelling
    automaton read: the canonical vertices, the canonical edges numbered by
    least raw id (neither answer depends on the numbering), the adjacency
    and letter table built from them as a frozen complex builds its own,
    and a square row per raw square: (a, b, gamma, delta, label index of
    a, of b), its boundary edges as positions in ``edges``.  Raw squares
    that folding made equal give equal rows, which ``_h1_vanishes`` reduces
    to zero and has counted in its slack.  The view copies what it reads,
    so the builder may grow on."""

    adjacency = LabeledCubeComplex.adjacency
    _letter_options = LabeledCubeComplex._letter_options

    def __init__(self, builder: _Builder):
        vroot = list(map(builder.vfind, range(len(builder.vparent))))
        eroot = list(map(builder.efind, range(len(builder.eparent))))
        labels, raw = builder.graph.vertices, builder.edges
        self.graph, self.basepoint = builder.graph, vroot[builder.basepoint]
        self.vertices = tuple(builder.ends)
        roots = [e for e, root in enumerate(eroot) if e == root]
        self.edges = [(e, vroot[raw[e][0]], vroot[raw[e][1]], labels[raw[e][2]]) for e in roots]
        slot = {e: i for i, e in enumerate(roots)}
        position = [slot[root] for root in eroot]
        self.square_edges = [(position[a], position[b], position[gamma], position[delta],
                              ka >> 1, kb >> 1)
                             for a, b, gamma, delta, ka, kb in builder.squares]


def _first_nonfilling(layers: Iterator[tuple[int, list[tuple[tuple[int, int], ...]]]],
                      graph: DefiningGraph, model: SurfaceModel
                      ) -> tuple[NormalWord, frozenset[str], int] | None:
    """The first nontrivial loop of a per-length loop stream whose cyclic
    reduction fails to fill, as (witness, its support, loops read including
    the identity and the witness); None when the stream ends first.

    Sound on any link-injective stage of the construction: folding
    identifies paths without changing their images, and attached squares
    are relations that already hold, so basepoint loops always represent
    subgroup members.
    """
    labels = graph.vertices
    count = 0
    for length, loops in layers:
        for syls in loops:
            count += 1
            if length == 0:
                continue  # the identity never fills and is exempt
            support = cyclic_core_support(syls, graph)
            if not model.fills_mask(support):
                return (_spell(syls, graph),
                        frozenset(v for g, v in enumerate(labels) if support >> g & 1), count)
    return None


def _spanning_forest(complex_: LabeledCubeComplex, allowed: int
                     ) -> tuple[dict[int, tuple[int, int] | None], list[int]]:
    """A spanning forest of the edges whose label index is a bit of
    ``allowed``, as parent pointers (v -> (u, key): u's end at key reaches
    v; None at a root), and its chords: the positions in ``edges`` of the
    other edges so labelled, in order.

    Roots are the basepoint, then the other vertices in order; each tree
    grows breadth first, taking a vertex's edge-ends in the complex's
    ``adjacency`` order: by label index, orientation and edge id.
    """
    ends = complex_.adjacency
    index = complex_.graph._index
    takes = [allowed >> (key >> 1) & 1 for key in range(2 * len(index))]
    parent: dict[int, tuple[int, int] | None] = {}
    tree: set[int] = set()
    for root in (complex_.basepoint, *complex_.vertices):
        if root in parent:
            continue
        parent[root] = None
        queue = [root]
        for v in queue:
            for key, eid, far in ends[v]:
                if takes[key] and far not in parent:
                    parent[far] = (v, key)
                    tree.add(eid)
                    queue.append(far)
    return parent, [i for i, (eid, _, _, label) in enumerate(complex_.edges)
                    if allowed >> index[label] & 1 and eid not in tree]


def _chord_words(complex_: LabeledCubeComplex,
                 forest: tuple[dict[int, tuple[int, int] | None], list[int]]
                 ) -> Iterator[list[tuple[int, int]]]:
    """The loop word of every chord of a ``forest`` that ``_spanning_forest``
    grew on ``complex_``, in edge order.  The chord loops at the roots
    generate the fundamental group of each component.

    A chord from src to dst labelled g gives path(src)*g*path(dst)^-1 as
    index syllables, read off the forest's parent chains; path(v) is the
    forest path from its root to v."""
    parent, chords = forest
    index = complex_.graph._index
    edges = complex_.edges
    for i in chords:
        _, src, dst, label = edges[i]
        climbs = []  # the end keys from src, and from dst, up to the root
        for v in (src, dst):
            keys = []
            step = parent[v]
            while step is not None:
                keys.append(step[1])
                step = parent[step[0]]
            climbs.append(keys)
        up, down = climbs
        yield [(key >> 1, -1 if key & 1 else 1) for key in reversed(up)] + [(index[label], 1)] + \
            [(key >> 1, 1 if key & 1 else -1) for key in down]  # path(dst)^-1: letters inverted


def _squares_by_labels(view: _StageView) -> dict[int, list[tuple[int, int, int, int]]]:
    """The stage's ``square_edges`` (four edge positions each), grouped by
    the bitmask of their two label indices."""
    groups: dict[int, list[tuple[int, int, int, int]]] = {}
    for a, b, gamma, delta, la, lb in view.square_edges:
        groups.setdefault(1 << la | 1 << lb, []).append((a, b, gamma, delta))
    return groups


def _h1_vanishes(chords: list[int], squares: dict[int, list[tuple[int, int, int, int]]],
                 allowed: int, edge_count: int) -> bool:
    """Whether H_1(S-subcomplex; GF(2)) = 0, for S the labels of ``allowed``:
    whether the boundaries of the ``squares`` whose two labels lie in S
    span the cycle space of the S-edges, given the ``chords`` (positions in
    ``edges``) of a spanning forest of them.

    With the forest contracted, each chord is one bit and a square's row is
    the XOR of its four edges' bits (an edge its boundary repeats cancels).
    Rows are reduced with the pivot on their highest set bit until the rank
    reaches the number of chords.  The rank is at most the number of rows,
    and each row that reduces to zero lowers that bound by one, so the
    check also stops as soon as the bound falls short.
    """
    rows = [group for labels, group in squares.items() if labels & allowed == labels]
    slack = sum(map(len, rows)) - len(chords)
    if slack < 0:
        return False
    bit = [0] * edge_count
    for i, e in enumerate(chords):
        bit[e] = 1 << i
    basis: dict[int, int] = {}  # bit length -> reduced row
    for a, b, gamma, delta in chain.from_iterable(rows):
        row = bit[a] ^ bit[b] ^ bit[gamma] ^ bit[delta]
        while row:
            top = row.bit_length()
            pivot = basis.get(top)
            if pivot is None:
                basis[top] = row
                if len(basis) == len(chords):
                    return True
                break
            row ^= pivot
        else:
            slack -= 1
            if slack < 0:
                return False
    return len(basis) == len(chords)


def _nonfilling_chord_set(view: _StageView, model: SurfaceModel, verified: bool) -> int | None:
    """The first maximal non-filling set, as a vertex-index bitmask, whose
    labelled edges have a nontrivial chord word on a stage's ``view``;
    None when there is none.  ``verified`` says whether the stage is a
    verified core.

    Each set S is first decided by ``_h1_vanishes`` (see the module
    docstring).  H_1 = 0: every chord word of S is trivial, on any stage.
    Otherwise, on a verified core, some chord word is nontrivial and S is
    returned; on a partial stage, the chord words of the same forest are
    piled.

    On a verified core, None means that no nontrivial member fails to
    fill.  On any connected link-injective stage, a set returned here
    bounds the support of a non-filling member.
    """
    graph = view.graph
    squares = None
    for allowed in model.maximal_non_filling_sets:
        forest = _, chords = _spanning_forest(view, allowed)
        if not chords:
            continue  # a forest has no loops
        squares = squares or _squares_by_labels(view)
        if _h1_vanishes(chords, squares, allowed, len(view.edges)):
            continue
        if verified or any(any(_pile(word, graph)) for word in _chord_words(view, forest)):
            return allowed
    return None


_STAGE_START = 256


def certify(graph: DefiningGraph, model: SurfaceModel, generators: Sequence[Word],
            cell_budget: int = 20_000, enum_budget: int = 5_000_000) -> Certificate:
    """Run the full certification pipeline for the subgroup the generators span.

    The core is built under a geometrically escalating cell budget, each
    stage resuming the construction where the one before stopped.  Every
    stage, partial or verified, goes through the same two steps (see the
    module docstring): the chord-word check, then, when it finds a
    nontrivial chord word, the length-ordered walk of the stage's basepoint
    loops (the core's members, when it is verified), bounded by
    ``enum_budget`` and by the window ell = 3(V+1), whose first non-filling
    loop is the refutation's witness.  Only what the outcome means depends
    on whether the core is verified:

    - no nontrivial chord word: certified, with ``count_elements``;
    - a walk that runs out of budget: inconclusive, with its partial count;
    - a walk that ends without a witness: an ``InternalError``.

    On a partial stage each of these moves on to the next stage, and a
    refutation carries neither ell nor an element count.

    The stages grow on one ``_Builder``, and each is decided on its
    ``_StageView``.  A certified stage is frozen into its core, and so
    link-checked, before the verdict is returned; any other certificate
    freezes its stage only when its ``core`` is first read.

    A construction that never stabilizes within the cell budget and never
    exposes a witness is inconclusive.  Its reason names the enumeration
    budget when some stage's walk ran out of it, and the cell budget
    otherwise.  ``diagnostics`` records the stages tried as [budget, cells]
    pairs and, for a refutation, the labels of the first non-filling set
    with a nontrivial chord word.  Both budgets must be positive.
    """
    if model.graph != graph:
        raise InputError("the model's coincidence graph must equal the defining graph")
    if not model.admissible:
        raise ContractError("certification requires the model's admissibility flag")
    if not generators:
        raise InputError("certify requires at least one generator")
    if enum_budget < 1:
        raise InputError("enum_budget must be positive")
    if cell_budget < 1:
        raise InputError("cell_budget must be positive")
    forms = [_read_out(_pile(_indexed(g, graph), graph), graph) for g in generators]
    normal_gens = tuple(_spell(form, graph) for form in forms)

    stages = []
    b = _STAGE_START
    while b < cell_budget:
        stages.append(b)
        b *= 4
    stages.append(cell_budget)
    tried: list[list[int]] = []

    def certificate(verdict: str, chord_set: int = 0, ell: int | None = None,
                    element_count: int | None = None, **fields) -> Certificate:
        """The certificate of the stage at hand (``status``, ``verified``,
        ``counts``, ``freeze``)."""
        stats = dict(counts)
        if not verified:
            ell = element_count = None
            if verdict == REFUTED:
                stats["refuted_from_partial_core"] = True
        stats["stages"] = tried
        if verdict == REFUTED:
            stats["chord_set"] = [v for g, v in enumerate(graph.vertices) if chord_set >> g & 1]
        return Certificate(graph=graph, model=model, generators=normal_gens,
                           core_vertex_count=counts["vertex_count"],
                           core_square_count=counts["square_count"],
                           core_status=status, _freeze=freeze, diagnostics=stats,
                           verdict=verdict, ell=ell, element_count=element_count, **fields)

    builder = _Builder(graph, forms)
    walk_ran_out = False  # a partial stage's witness walk hit enum_budget
    for stage in stages:
        status = builder.grow(stage)
        verified = status == VERIFIED
        view, counts = _StageView(builder), builder.diagnostics(stage)
        freeze = partial(builder.core, status, stage)  # called when a certificate's core is read
        tried.append([stage, counts["cells"]])
        ell = 3 * (counts["vertex_count"] + 1)
        chord_set = _nonfilling_chord_set(view, model, verified)
        if chord_set is None:
            if verified:
                core = builder.core(status, stage)  # so link-checked before the verdict
                freeze = lambda: core  # noqa: E731
                return certificate(CERTIFIED, ell=ell, element_count=count_elements(core, ell))
            continue
        # The witness is the first non-filling member in increasing length
        # order; on a verified core one of length at most 2V - 1 < ell exists.
        try:
            found = _first_nonfilling(iter_loops_by_length(view, ell, node_budget=enum_budget),
                                      graph, model)
        except BudgetExceededError as exc:
            if verified:
                return certificate(INCONCLUSIVE, ell=ell, element_count=exc.partial_count,
                                   reason=f"enumeration exceeded budget {enum_budget}")
            walk_ran_out = True
            continue
        if found is not None:
            witness, support, count = found
            return certificate(REFUTED, chord_set, ell=ell, witness=witness,
                               witness_support=support, element_count=count)
        if verified:
            raise InternalError(f"no non-filling member up to length {ell}, "
                                "though a chord word of a non-filling set is nontrivial")
    reason = (f"enumeration exceeded budget {enum_budget}" if walk_ran_out
              else f"core construction exceeded cell budget {cell_budget}")
    return certificate(INCONCLUSIVE, reason=reason)


def extract_generators(core: SubgroupCore) -> tuple[NormalWord, ...]:
    """Spanning-tree/chord generators of the core's loop group.

    Tree paths from the basepoint are at most the tree depth, so each chord
    word has letter length at most twice the depth plus one.
    """
    _require_verified(core)
    graph, complex_ = core.graph, core.complex
    seen: dict[tuple[tuple[int, int], ...], None] = {}
    for chord in _chord_words(complex_, _spanning_forest(complex_, -1)):
        seen.setdefault(tuple(_read_out(_pile(chord, graph), graph)))
    return tuple(_spell(syls, graph) for syls in seen if syls)


def displacement_lower_bound(cert: Certificate, h: Word | NormalWord) -> Fraction:
    """Certified curve-complex displacement lower bound for a member word."""
    if cert.verdict != CERTIFIED or cert.ell is None or cert.core is None:
        raise ContractError("displacement bounds require a certified certificate")
    if not membership(cert.core, h):
        raise ContractError("displacement bounds apply to subgroup members only")
    slope, offset = cert.bound_coefficients()
    return slope * normalize(h, cert.graph).letter_length + offset
