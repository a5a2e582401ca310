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
verified, on a view of the builder's own arrays (``_StageView``), read in
place in one pass: its ids compressed to their roots, its edges by label
and its square rows grouped by their two labels; letters are read off the
builder's end tables only for the vertices that a forest or the witness
walk reaches.  A view answers for its stage until the builder grows on.
On a budget-exceeded stage a "yes" is still sound.
The stage is connected and link-injective, and every loop at its
basepoint reads a member of the subgroup: folding identifies paths
without changing their images, and attached squares are relations that
already hold.  So a nontrivial chord loop w of the S-labelled edges at a
root r gives the member p*w*p^-1, where p is any path from the basepoint
to r.  The cyclic core of that member has its support inside S, so the
member does not fill.  A "no" on a partial stage proves nothing, since a
later stage may add loops, and the construction goes on to the next
stage.

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

No chord word survives on a verified core: certified, with the stage
link-checked on the builder and the displacement lower bound
d >= |h|/(6*ell) - 2 attached; nothing is enumerated, and the core is
frozen only when it is read.  Some chord word
survives: refuted, with the first non-filling loop in increasing length
order as witness (its image fixes a curve, so the subgroup is not purely
pseudo-Anosov); the walk that finds it is bounded by the enumeration
budget.  Budget exhaustion anywhere: inconclusive, never a negative claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence

from .complexes import (
    VERIFIED,
    SubgroupCore,
    _Builder,
    _require_count,
    _require_verified,
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
    """Outcome of the finite convex-cocompactness check.

    ``element_count`` counts the loops, identity included, that the witness
    walk read on a verified stage: up to and including the witness for a
    refutation, its partial count for an inconclusive one, else None.  A
    certified verdict's members up to ell are ``count_elements(core, ell)``.
    """

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


class _Letters(dict):
    """A stage's letter table: per root vertex, the letters leaving it as
    (generator index, sign, far root) in table-key order, the canonical
    letter order, each row read off the builder's end table on first use."""

    def __init__(self, ends: dict[int, dict[int, int]], vroot: list[int], raw: list) -> None:
        super().__init__()
        self.ends, self.vroot, self.raw = ends, vroot, raw

    def __missing__(self, v: int) -> list[tuple[int, int, int]]:
        table, vroot, raw = self.ends[v], self.vroot, self.raw
        row = self[v] = [(key >> 1, -1 if key & 1 else 1, vroot[raw[table[key]][1 - (key & 1)]])
                         for key in sorted(table)]
        return row


class _StageView:
    """A stage, verified or not, read in place off its folded builder in
    one pass, on the builder's own ids: its parent lists compressed so
    each raw id points at its root, the root edges by label index as (edge
    id, source, target) in ``labelled``, and each raw square's row (a, b,
    gamma, delta) of root edge ids in ``square_groups``, keyed by the
    bitmask of its two label indices.  Raw squares that folding made equal
    give equal rows, which ``_h1_vanishes`` reduces to zero and has counted
    in its slack.  ``_letter_options``, shaped as a frozen complex's and
    keyed by root vertex, reads a row off the builder's end table only when
    a forest or the walk reaches the vertex.  The view answers for the
    stage until the builder grows on."""

    def __init__(self, builder: _Builder):
        vroot, eroot, raw = builder.vparent, builder.eparent, builder.edges
        for roots in (vroot, eroot):  # path compression, by pointer jumping
            while (jumped := [roots[r] for r in roots]) != roots:
                roots[:] = jumped
        self.graph, self.basepoint = builder.graph, vroot[builder.basepoint]
        self.vertex_ids, self.edge_ids = len(vroot), len(eroot)
        self.labelled: list[list[tuple[int, int, int]]] = [[] for _ in builder.graph.vertices]
        for e, root in enumerate(eroot):
            if e == root:
                src, dst, g = raw[e]
                self.labelled[g].append((e, vroot[src], vroot[dst]))
        self.square_groups: dict[int, list[tuple[int, int, int, int]]] = {}
        for a, b, gamma, delta, ka, kb in builder.squares:
            self.square_groups.setdefault(1 << (ka >> 1) | 1 << (kb >> 1), []).append(
                (eroot[a], eroot[b], eroot[gamma], eroot[delta]))
        self._letter_options = _Letters(builder.ends, vroot, raw), self.basepoint


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


def _forest_chords(view: _StageView, allowed: int) -> list[int]:
    """The chords of a spanning forest of a stage's edges whose label index
    is a bit of ``allowed``: the edge ids that close a cycle, taken by
    label, in a list-based union-find over the vertex ids."""
    up = list(range(view.vertex_ids))
    chords = []
    for g, edges in enumerate(view.labelled):
        if allowed >> g & 1:
            for e, s, t in edges:
                while up[s] != s:
                    up[s] = s = up[up[s]]
                while up[t] != t:
                    up[t] = t = up[up[t]]
                if s == t:
                    chords.append(e)
                else:
                    up[s] = t
    return chords


def _chord_words(options: dict, allowed: int, roots: Iterable[int]
                 ) -> Iterator[tuple[int, int, list[tuple[int, int]]]]:
    """Each chord of a breadth-first spanning forest of the edges whose
    label index is a bit of ``allowed``, as (source, label index, loop
    word), yielded as the forest grows.  The chord loops at the roots
    generate the fundamental group of each component.

    Trees grow from the ``roots`` not yet reached, in order, through a
    letter table ``options`` (a frozen complex's or a view's
    ``_letter_options``), as parent pointers v -> (u, g, sign): the letter
    (g, sign) leaving u reaches v.  An edge met at its source whose target
    is reached already is a chord, unless it is the source's tree edge.  A
    chord from src to dst labelled g gives path(src)*g*path(dst)^-1, with
    path(v) read up the parent chain from v's root."""
    parent: dict[int, tuple[int, int, int] | None] = {}
    for root in roots:
        if root in parent:
            continue
        parent[root] = None
        queue = [root]
        for src in queue:
            for g, sign, dst in options[src]:
                if not allowed >> g & 1:
                    continue
                if dst not in parent:
                    parent[dst] = (src, g, sign)
                    queue.append(dst)
                elif sign > 0 and parent[src] != (dst, g, -1):
                    up, down = [], []  # the letters from src, and from dst, up to the root
                    for v, steps in ((src, up), (dst, down)):
                        while (step := parent[v]) is not None:
                            steps.append(step)
                            v = step[0]
                    yield src, g, [(h, e) for _, h, e in reversed(up)] + [(g, 1)] + \
                        [(h, -e) for _, h, e in down]  # path(dst)^-1: letters inverted


def _h1_vanishes(chords: list[int], square_groups: dict[int, list[tuple[int, int, int, int]]],
                 allowed: int, edge_ids: int) -> bool:
    """Whether H_1(S-subcomplex; GF(2)) = 0, for S the labels of ``allowed``:
    whether the boundaries of the squares whose two labels lie in S (a
    view's ``square_groups``) span the cycle space of the S-edges, given
    the ``chords`` (edge ids below ``edge_ids``) of a spanning forest of
    them.

    With the forest contracted, each chord is one bit and a square's row is
    the XOR of its four edges' bits (an edge its boundary repeats cancels).
    Rows are reduced with the pivot on their highest set bit until the rank
    reaches the number of chords.  The rank is at most the number of rows,
    and each row that reduces to zero lowers that bound by one, so the
    check also stops as soon as the bound falls short.
    """
    rows = [group for labels, group in square_groups.items() if labels & allowed == labels]
    slack = sum(map(len, rows)) - len(chords)
    if slack < 0:
        return False
    bit = [0] * edge_ids
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

    Each set S is first decided by ``_h1_vanishes`` on the chords of a
    union-find forest (see the module docstring).  H_1 = 0: every chord
    word of S is trivial, on any stage.  Otherwise, on a verified core, S
    is returned; on a partial stage, the chord words of a breadth-first
    forest are piled as they are met.  No answer depends on the forest:
    any spanning forest's chord loops generate each component's pi_1.

    On a verified core, None means that no nontrivial member fails to
    fill.  On any connected link-injective stage, a set returned here
    bounds the support of a non-filling member.
    """
    graph = view.graph
    for allowed in model.maximal_non_filling_sets:
        chords = _forest_chords(view, allowed)
        if not chords:
            continue  # a forest has no loops
        if _h1_vanishes(chords, view.square_groups, allowed, view.edge_ids):
            continue
        sources = (s for g, group in enumerate(view.labelled) if allowed >> g & 1
                   for _, s, _ in group)
        if verified or any(any(_pile(word, graph)) for *_, word in
                           _chord_words(view._letter_options[0], allowed, sources)):
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

    - no nontrivial chord word: certified, with no walk and no count;
    - a walk that runs out of budget: inconclusive, with its partial count;
    - a walk that ends without a witness: an ``InternalError``.

    On a partial stage each of these moves on to the next stage, and a
    refutation carries neither ell nor an element count.

    The stages grow on one ``_Builder``, and each is decided on its
    ``_StageView``.  A certified stage is link-checked on the builder's
    own tables (``_Builder.check_link``) before the verdict is returned.
    Every certificate freezes its stage only when its ``core`` is first
    read, and a verified stage's core is then link-checked again, frozen.

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
    _require_count("enum_budget", enum_budget, 1)
    _require_count("cell_budget", cell_budget, 1)
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
                builder.check_link()
                return certificate(CERTIFIED, ell=ell)
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
    options, base = complex_._letter_options
    index = graph._index
    at = {(src, index[label]): i for i, (_, src, _, label) in enumerate(complex_.edges)}
    seen: dict[tuple[tuple[int, int], ...], None] = {}
    for *_, chord in sorted(_chord_words(options, -1, (base,)), key=lambda c: at[c[:2]]):
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
