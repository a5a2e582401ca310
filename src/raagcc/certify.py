"""The convex-cocompactness certifier.

``certify`` grows a core for the subgroup in stages of growing cell
budgets (``_stage_budgets``) and sets the window length from a stage's
vertex count (three times one more than it, the concrete stand-in for the
abstract ball-counting constant).  The subgroup is convex cocompact
exactly when no nontrivial member has a cyclic reduction whose support
fails to fill, and on a verified core that is a finite check: for each
maximal non-filling label set S, every chord of a spanning forest of the
core's S-labelled edges closes a loop, and some member fails to fill
exactly when one of those chord words is nontrivial.  (A member
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

Why each outcome of ``certify`` is sound.  A certificate needs a verified
core (one that passed the link check on the builder as it stabilized),
where the chord check is exact; the displacement lower bound d >=
|h|/(6*ell) - 2 comes with it.  A refutation needs one member that fails
to fill, since it fixes a curve, so the subgroup is not purely
pseudo-Anosov.  The walk's witness is a basepoint loop of its stage, and
p*w*p^-1 is a member on any stage (above), so no verdict depends on the
enumeration budget that bounds the walk.  An inconclusive result makes no
claim, since a larger cell budget may still decide.
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
    _require_verified,
    iter_loops_by_length,
    membership,
)
from .errors import BudgetExceededError, ContractError, InputError, _require_count
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
    walk read on a verified stage up to and including the witness; it is
    None for any other verdict, on a partial stage, and when the witness is
    the chord witness.  A certified verdict's members up to ell are
    ``count_elements(core, ell)``.
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
                **self.diagnostics,
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
    give equal rows, which ``_h1_vanishes`` reduces to zero.
    ``_letter_options``, shaped as a frozen complex's and keyed by root
    vertex, reads a row off the builder's end table only when a forest or
    the walk reaches the vertex.  The view answers for the stage until the
    builder grows on."""

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
                      ) -> tuple[Sequence[tuple[int, int]], int, int] | None:
    """The first nontrivial loop of a per-length loop stream whose cyclic
    reduction fails to fill, as (its syllables, the support bitmask of its
    cyclic reduction, loops read including the identity and the witness);
    None when the stream ends first."""
    count = 0
    for length, loops in layers:
        for syls in loops:
            count += 1
            if length == 0:
                continue  # the identity never fills and is exempt
            support = cyclic_core_support(syls, graph)
            if not model.fills_mask(support):
                return syls, support, count
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
                 ) -> Iterator[tuple[int, int, int, list[tuple[int, int]]]]:
    """Each chord of a breadth-first spanning forest of the edges whose
    label index is a bit of ``allowed``, as (tree root, source, label
    index, loop word at the root), yielded as the forest grows.  The chord
    loops at the roots generate the fundamental group of each component.

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
                    yield root, src, g, [(h, e) for _, h, e in reversed(up)] + [(g, 1)] + \
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
    reaches the number of chords; with fewer rows than chords it cannot.
    """
    rows = [group for labels, group in square_groups.items() if labels & allowed == labels]
    if sum(map(len, rows)) < len(chords):
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
    return len(basis) == len(chords)


def _nontrivial_chord(view: _StageView, allowed: int) -> tuple[int, list[tuple[int, int]]] | None:
    """The first nontrivial chord word of a breadth-first forest of a
    stage's edges whose label index is a bit of ``allowed``, each word
    piled as the forest meets it, as (tree root, loop word at the root);
    None when every chord word is trivial."""
    graph = view.graph
    sources = (s for g, group in enumerate(view.labelled) if allowed >> g & 1 for _, s, _ in group)
    for root, _, _, word in _chord_words(view._letter_options[0], allowed, sources):
        if any(_pile(word, graph)):
            return root, word
    return None


def _chord_witness(view: _StageView, allowed: int) -> tuple[list[tuple[int, int]], int]:
    """The member p*w*p^-1 that refutes on a stage's ``view`` (see the
    module docstring), as its normal form's syllables and the support
    bitmask of its cyclic reduction: w is ``_nontrivial_chord``'s word for
    the labels of ``allowed``, at the root r, and p a breadth-first path
    from the basepoint to r."""
    graph = view.graph
    root, word = _nontrivial_chord(view, allowed)
    options, base = view._letter_options
    parent: dict[int, tuple[int, int, int] | None] = {base: None}
    queue = [base]
    for v in queue:
        if root in parent:
            break
        for g, sign, far in options[v]:
            if far not in parent:
                parent[far] = (v, g, sign)
                queue.append(far)
    back = []  # the letters of p, last first
    while (step := parent[root]) is not None:
        root, g, sign = step
        back.append((g, sign))
    member = _read_out(_pile(chain(reversed(back), word, ((g, -sign) for g, sign in back)),
                             graph), graph)
    return member, cyclic_core_support(member, graph)


def _nonfilling_chord_set(view: _StageView, model: SurfaceModel, verified: bool) -> int | None:
    """The first maximal non-filling set, as a vertex-index bitmask, whose
    labelled edges have a nontrivial chord word on a stage's ``view``;
    None when there is none.  ``verified`` says whether the stage is a
    verified core.

    Each set S is first decided by ``_h1_vanishes`` on the chords of a
    union-find forest (see the module docstring).  H_1 = 0: every chord
    word of S is trivial, on any stage.  Otherwise, on a verified core, S
    is returned; on a partial stage, the chord words of a breadth-first
    forest are piled as they are met (``_nontrivial_chord``).  No answer
    depends on the forest: any spanning forest's chord loops generate each
    component's pi_1.

    On a verified core, None means that no nontrivial member fails to
    fill.  On any connected link-injective stage, a set returned here
    bounds the support of a non-filling member.
    """
    for allowed in model.maximal_non_filling_sets:
        chords = _forest_chords(view, allowed)
        if not chords:
            continue  # a forest has no loops
        if _h1_vanishes(chords, view.square_groups, allowed, view.edge_ids):
            continue
        if verified or _nontrivial_chord(view, allowed) is not None:
            return allowed
    return None


_STAGE_START = 64


def _stage_budgets(cell_budget: int) -> list[int]:
    """``certify``'s stage cell budgets: 64, 256, 1024, ..., each four times
    the one before while below ``cell_budget``, then ``cell_budget``."""
    stages = []
    b = _STAGE_START
    while b < cell_budget:
        stages.append(b)
        b *= 4
    return stages + [cell_budget]


def certify(graph: DefiningGraph, model: SurfaceModel, generators: Sequence[Word],
            cell_budget: int = 20_000, enum_budget: int = 5_000_000) -> Certificate:
    """Run the full certification pipeline for the subgroup the generators span.

    The core is built in the stages of ``_stage_budgets(cell_budget)``,
    each resuming the construction where the one before stopped, so that a
    refutation that shows on a small partial stage pays for no large one.
    Stages are checked for a nontrivial chord word (see the module
    docstring) until one is verified or has one, and the certificate is
    built once, from the last stage checked.  A nontrivial chord word
    starts the length-ordered walk of the stage's basepoint loops (the
    core's members, when it is verified), bounded by ``enum_budget`` and by
    the window ell = 3(V+1), whose first non-filling loop is the
    refutation's witness.  The five outcomes:

    - no nontrivial chord word on a verified core: certified, with no walk
      and no count;
    - no nontrivial chord word on a partial stage: the next stage;
    - a walk that finds a witness: refuted;
    - a walk that ends empty or runs out of ``enum_budget``: refuted, with
      the chord witness p*w*p^-1 (``_chord_witness``) and no count;
    - no stage left: inconclusive on the cell budget.

    So ``enum_budget`` bounds only the search for the shortest witness, and
    no verdict depends on it.

    The stages grow on one ``_Builder``, and each is decided on its
    ``_StageView``.  A stage is verified only once it has passed the link
    check on the builder's own tables (``_Builder.check_link``), run once
    by ``grow`` as the stage stabilizes, so every verdict on a verified
    stage has been link-checked before it is returned.  Every certificate
    freezes its stage only when its ``core`` is first read.

    ``diagnostics`` holds what the report prints beside the core's counts:
    the builder's folds and squares added, the stages tried as [budget,
    cells] pairs and, for a refutation, the labels of the first non-filling
    set with a nontrivial chord word.  A refutation on a partial stage has
    the core status budget-exceeded, and carries neither ell nor an element
    count.  Both budgets must be positive.
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

    builder = _Builder(graph, forms)
    tried: list[list[int]] = []
    for stage in _stage_budgets(cell_budget):
        status = builder.grow(stage)
        verified = status == VERIFIED
        view, counts = _StageView(builder), builder.diagnostics(stage)
        tried.append([stage, counts["cells"]])
        chord_set = _nonfilling_chord_set(view, model, verified)
        if verified or chord_set is not None:
            break
    ell = 3 * (counts["vertex_count"] + 1)
    stats = {"folds": counts["folds"], "squares_added": counts["squares_added"], "stages": tried}
    verdict = REFUTED if chord_set is not None else CERTIFIED if verified else INCONCLUSIVE
    witness = support = reason = count = None
    if verdict == REFUTED:
        stats["chord_set"] = [v for g, v in enumerate(graph.vertices) if chord_set >> g & 1]
        # The witness is the first non-filling member in increasing length
        # order (on a verified core one of length at most 2V - 1 < ell
        # exists), else the chord witness.
        try:
            found = _first_nonfilling(iter_loops_by_length(view, ell, node_budget=enum_budget),
                                      graph, model)
        except BudgetExceededError:
            found = None
        syls, mask, count = found or (*_chord_witness(view, chord_set), None)
        witness = _spell(syls, graph)
        support = frozenset(v for g, v in enumerate(graph.vertices) if mask >> g & 1)
    elif verdict == INCONCLUSIVE:
        reason = f"core construction exceeded cell budget {cell_budget}"
    return Certificate(graph=graph, model=model, generators=normal_gens,
                       core_vertex_count=counts["vertex_count"],
                       core_square_count=counts["square_count"], core_status=status,
                       verdict=verdict, ell=ell if verified else None, witness=witness,
                       witness_support=support, reason=reason,
                       element_count=count if verified else None,
                       _freeze=partial(builder.core, status, stage), diagnostics=stats)


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
    for *_, chord in sorted(_chord_words(options, -1, (base,)), key=lambda c: at[c[1:3]]):
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
