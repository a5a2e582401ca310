"""Labeled square complexes over a defining graph, and subgroup cores.

A complex stores vertices, oriented generator-labeled edges, and squares.
Each square is recorded as its set of four corners; a corner is a vertex
together with the two edge-ends meeting there.  Higher cubes are implicit:
the complex is read as its flag cube completion, so all conditions are
checked at the corner level.

The target of every complex here is the one-vertex complex with a loop per
generator and a square per commuting pair (plus implicit cubes on cliques).
A complex maps locally isometrically to it exactly when every vertex link
is injective (no two incident edge-ends share a label and orientation) and
full (every corner with distinct commuting labels bounds a square).

``build_core`` wedges subdivided generator loops at a basepoint and
alternates two moves until stable: fold edge pairs violating link
injectivity, and attach a square at every unfilled commuting corner (with a
fresh opposite vertex and two fresh edges unless the completing edges are
already present).  Folds are found as collisions in per-vertex end tables
on label indices and done by union-find (Touikan, IJAC 16, 2006).
Termination is budget-bounded, not proven: running out of budget yields an
inconclusive status, never a negative claim.

On a verified core, tracing a normal word from the basepoint is
deterministic, and a word lies in the core's subgroup exactly when its
trace closes up at the basepoint.  Element enumeration walks canonical
spellings (normal as written, least in their commutation class) letter by
letter through the complex, so each subgroup element is produced exactly
once, in order of word length and then letter order.  Whether a letter may
extend a canonical spelling depends only on a finite state (the vertex
reached, the last letter, and the generators a new syllable may not use),
so the walk steps through a memoised spelling automaton, and
``count_elements`` counts the same walks by dynamic programming over its
states.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain, compress, count, islice, repeat
from typing import Iterable, Iterator, Sequence

from .errors import BudgetExceededError, ContractError, InputError, InternalError, _require_int
from .graphs import DefiningGraph
from .words import NormalWord, Word, _indexed, _pile, _read_out, _spell

VERIFIED = "verified-local-isometry"
BUDGET_EXCEEDED = "budget-exceeded"
UNVERIFIED = "unverified"  # a stored complex that fails the link or connectivity check

# An edge-end is (edge_id, endpoint) with endpoint 0 at the source, 1 at the
# target.  A corner is (vertex, (end, end)) with the ends sorted.
End = tuple[int, int]
Corner = tuple[int, tuple[End, End]]
Square = frozenset


def _corner(v: int, a: End, b: End) -> Corner:
    return (v, (a, b) if a < b else (b, a))


@dataclass(frozen=True)
class LabeledCubeComplex:
    """An immutable 2-skeletal labeled cube complex with a basepoint."""

    graph: DefiningGraph
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int, int, str], ...]  # (edge_id, source, target, label)
    squares: frozenset[Square]
    basepoint: int

    @cached_property
    def edge_map(self) -> dict[int, tuple[int, int, str]]:
        return {eid: (src, dst, label) for eid, src, dst, label in self.edges}

    def end_label(self, end: End) -> str:
        return self.edge_map[end[0]][2]

    def square_ends(self, square: Square) -> tuple[End, End, End, End]:
        """The boundary of a square read from its least corner (v, a, b):
        the ends a and b at v, gamma across a parallel to b, and delta
        across b parallel to a.

        Raises ``InputError`` unless the square is four corners, each with
        two ends at its vertex carrying distinct commuting labels, that
        close up around such a boundary.
        """
        # edge_map[eid] is (source, target, label): the end (eid, p) lies at
        # edge_map[eid][p], and its far end (eid, 1 - p) at edge_map[eid][1 - p].
        edge_map, commutes = self.edge_map, self.graph.commutes
        try:
            if len(square) != 4:
                raise InputError("invalid core: a square must have four corners")
            for v, (a, b) in square:
                if a[1] not in (0, 1) or b[1] not in (0, 1):
                    raise InputError("invalid core: a square corner has an endpoint other "
                                     "than 0 or 1")
                ea, eb = edge_map[a[0]], edge_map[b[0]]
                if ea[a[1]] != v or eb[b[1]] != v:
                    raise InputError(f"invalid core: a square corner at {v} has an "
                                     "edge-end at another vertex")
                if ea[2] == eb[2] or not commutes(ea[2], eb[2]):
                    raise InputError(f"invalid core: a square corner at {v} pairs {ea[2]} "
                                     f"with {eb[2]}, not two distinct commuting labels")
            v, (a, b) = corner = min(square)
            ea, eb = edge_map[a[0]], edge_map[b[0]]
            a_back, b_back = (a[0], 1 - a[1]), (b[0], 1 - b[1])
            # gamma shares a corner with a's far end, delta with b's.
            for _, (p, q) in square:
                gamma = q if p == a_back else p if q == a_back else None
                if gamma is None or gamma[1] != b[1] or edge_map[gamma[0]][2] != eb[2]:
                    continue
                g_back = (gamma[0], 1 - gamma[1])
                for _, (r, t) in square:
                    delta = t if r == b_back else r if t == b_back else None
                    if delta is None or delta[1] != a[1] or edge_map[delta[0]][2] != ea[2]:
                        continue
                    if square == {corner, _corner(ea[a_back[1]], a_back, gamma),
                                  _corner(eb[b_back[1]], b_back, delta),
                                  _corner(edge_map[gamma[0]][g_back[1]], g_back,
                                          (delta[0], 1 - delta[1]))}:
                        return a, b, gamma, delta
        except KeyError as exc:
            raise InputError(f"invalid core: a square references the unknown edge {exc}") from exc
        raise InputError(f"invalid core: the square at corner {v} does not close up")

    @cached_property
    def adjacency(self) -> dict[int, list[tuple[int, int, int]]]:
        """Each vertex's edge-ends as (2*label index + endpoint, edge id, far
        vertex), sorted: by label index, orientation (out first), edge id."""
        index = self.graph._index
        ends: dict[int, list[tuple[int, int, int]]] = {v: [] for v in self.vertices}
        for eid, src, dst, label in self.edges:
            key = 2 * index[label]
            ends[src].append((key, eid, dst))
            ends[dst].append((key + 1, eid, src))
        for incident in ends.values():
            incident.sort()
        return ends

    @cached_property
    def corner_index(self) -> frozenset[Corner]:
        return frozenset(c for sq in self.squares for c in sq)

    @cached_property
    def _letter_options(self) -> tuple[dict[int, list[tuple[int, int, int]]], int]:
        """Per vertex, the letters leaving it as (generator index, sign, far
        vertex), in the adjacency's key order: the canonical letter order
        (declaration index, positive sign first); and the basepoint."""
        options = {}
        for v, ends in self.adjacency.items():
            if len({key for key, _, _ in ends}) < len(ends):
                raise ContractError("complex is not link-injective; tracing is ambiguous")
            options[v] = [(key >> 1, -1 if key & 1 else 1, far) for key, _, far in ends]
        return options, self.basepoint

    def is_connected(self) -> bool:
        if not self.vertices:
            return False
        seen = {self.basepoint}
        queue = [self.basepoint]
        for v in queue:
            for _, _, far in self.adjacency[v]:
                if far not in seen:
                    seen.add(far)
                    queue.append(far)
        return len(seen) == len(self.vertices)

    def _require_cells(self, what: str) -> None:
        """Raise ``InputError``, its message starting with ``what``, unless
        vertex ids and edge ids are distinct, every edge has a label of the
        graph and two declared endpoints, and the basepoint is a vertex."""
        vertex_set = set(self.vertices)
        if len(vertex_set) != len(self.vertices):
            raise InputError(f"{what}: duplicate vertex ids")
        if len({e[0] for e in self.edges}) != len(self.edges):
            raise InputError(f"{what}: duplicate edge ids")
        for eid, src, dst, label in self.edges:
            self.graph.require_vertex(label)
            if src not in vertex_set or dst not in vertex_set:
                raise InputError(f"{what}: edge {eid} has undeclared endpoints")
        if self.basepoint not in vertex_set:
            raise InputError(f"{what}: basepoint is not a vertex")

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "schema": "raagcc-core-v1",
            "graph": self.graph.to_json_dict(),
            "basepoint": self.basepoint,
            "vertices": list(self.vertices),
            "edges": [list(e) for e in self.edges],
            "squares": sorted(
                sorted([v, list(a), list(b)] for v, (a, b) in sq) for sq in self.squares
            ),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "LabeledCubeComplex":
        def ints(*values):  # as read: int() would take true for 1, 0.9 for 0 and "2" for 2
            for v in values:
                if type(v) is not int:
                    raise TypeError(f"ids and endpoints must be JSON integers, not {v!r}")
            return values

        try:
            graph = DefiningGraph.from_json_dict(data["graph"])
            vertices = ints(*data["vertices"])
            edges = tuple((*ints(eid, src, dst), label) for eid, src, dst, label in data["edges"])
            for *_, label in edges:
                if not isinstance(label, str):
                    raise TypeError(f"edge labels must be JSON strings, not {label!r}")
            squares = frozenset(
                frozenset(_corner(*ints(v), ints(ea, pa), ints(eb, pb))
                          for v, (ea, pa), (eb, pb) in sq)
                for sq in data["squares"]
            )
            (basepoint,) = ints(data["basepoint"])
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise InputError(f"invalid core JSON: {exc}") from exc
        complex_ = cls(graph=graph, vertices=vertices, edges=edges,
                       squares=squares, basepoint=basepoint)
        complex_._require_cells("invalid core JSON")
        for sq in squares:
            complex_.square_ends(sq)
        return complex_

    def to_dot(self) -> str:
        lines = ["digraph core {"]
        lines.append(f"  // schema: raagcc-dot-v1")
        lines.append(f"  // graph: {json.dumps(self.graph.to_json_dict(), sort_keys=True)}")
        lines.append(f"  // basepoint: {self.basepoint}")
        for sq in sorted(self.to_json_dict()["squares"]):
            lines.append(f"  // square: {json.dumps(sq)}")
        for v in self.vertices:
            shape = "doublecircle" if v == self.basepoint else "circle"
            lines.append(f"  {v} [shape={shape}];")
        for eid, src, dst, label in self.edges:
            lines.append(f'  {src} -> {dst} [label="{label}" eid={eid}];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def salvetti(graph: DefiningGraph) -> LabeledCubeComplex:
    """One vertex, a loop per generator (edge id = its index), a square per
    commuting pair."""
    index = graph._index
    edges = tuple((i, 0, 0, label) for i, label in enumerate(graph.vertices))
    squares = frozenset(frozenset(_corner(0, (index[u], pu), (index[w], pw))
                                  for pu in (0, 1) for pw in (0, 1))
                        for u, w in graph.edges)
    return LabeledCubeComplex(graph=graph, vertices=(0,), edges=edges, squares=squares, basepoint=0)


@dataclass(frozen=True)
class LinkReport:
    """Every link-injectivity violation, every unfilled commuting corner,
    and every square that ``LabeledCubeComplex.square_ends`` rejects (a
    malformed square would mark corners filled that no square bounds)."""

    foldable: tuple[tuple[int, str, int, tuple[int, ...]], ...]  # (vertex, label, orientation, edge ids)
    unfilled: tuple[Corner, ...]
    malformed: tuple[Square, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.foldable and not self.unfilled and not self.malformed


def _link_violations(complex_: LabeledCubeComplex) -> LinkReport:
    """The link check on the adjacency and commutation masks, without
    reading squares: ``malformed`` stays empty."""
    labels, comm = complex_.graph.vertices, complex_.graph.comm_masks
    adjacency, corner_index = complex_.adjacency, complex_.corner_index
    foldable = []
    unfilled = []
    for v in complex_.vertices:
        ends = adjacency[v]
        if len({key for key, _, _ in ends}) < len(ends):
            by_slot: dict[int, list[int]] = {}
            for key, eid, _ in ends:  # edge ids come sorted within a slot
                by_slot.setdefault(key, []).append(eid)
            foldable += sorted((v, labels[key >> 1], key & 1, tuple(eids))
                               for key, eids in by_slot.items() if len(eids) > 1)
        for i, (ka, ea, _) in enumerate(ends):
            commuting = comm[ka >> 1]
            if not commuting:
                continue
            for kb, eb, _ in ends[i + 1:]:
                if commuting >> (kb >> 1) & 1:
                    corner = _corner(v, (ea, ka & 1), (eb, kb & 1))
                    if corner not in corner_index:
                        unfilled.append(corner)
    return LinkReport(foldable=tuple(foldable), unfilled=tuple(sorted(unfilled)))


def check_local_isometry(complex_: LabeledCubeComplex) -> LinkReport:
    """The link check, with every square's boundary read by ``square_ends``."""
    malformed = []
    for sq in complex_.squares:
        try:
            complex_.square_ends(sq)
        except InputError:
            malformed.append(sq)
    return replace(_link_violations(complex_), malformed=tuple(sorted(malformed, key=sorted)))


@dataclass(frozen=True)
class SubgroupCore:
    """A core complex for a finitely generated subgroup, with its status."""

    complex: LabeledCubeComplex
    status: str
    diagnostics: dict = field(default_factory=dict, compare=False)

    @property
    def graph(self) -> DefiningGraph:
        return self.complex.graph

    @property
    def verified(self) -> bool:
        return self.status == VERIFIED


class _Builder:
    """Fold/fill state on label indices, with union-find over raw ids.

    Each canonical vertex has an end table from ``label_index*2 + endpoint``
    (endpoint 0 where the vertex is the edge's source) to an edge id.  An
    insertion into an occupied slot queues the two edges as a fold, which
    keeps the lower edge id and unions both pairs of endpoints; a vertex
    union merges the smaller table into the larger.  Filled corners are
    pairs of table keys per vertex, which folding never changes.  A square
    is its raw edges (a, b, gamma, delta) and the keys of a and b at one
    corner; gamma lies across a parallel to b, delta across b parallel to a.

    A fill pass reads a vertex's commuting corners from the graph's corner
    table (``DefiningGraph._corners``), by the bitmask of its table's keys.
    Only vertices whose tables gained a key since the last pass are
    scanned.  A fresh opposite vertex is not: its table holds exactly the
    two keys of the corner its own square fills, and any later insertion
    or union marks its root again.
    """

    def __init__(self, graph: DefiningGraph, words: Sequence[Sequence[tuple[int, int]]],
                 seed: LabeledCubeComplex | None = None):
        self.graph = graph
        self.vparent: list[int] = []
        self.eparent: list[int] = []
        self.edges: list[tuple[int, int, int]] = []  # raw (source, target, label index)
        self.ends: dict[int, dict[int, int]] = {}
        self.filled: dict[int, set[tuple[int, int]]] = {}
        self.squares: list[tuple[int, int, int, int, int, int]] = []
        self.collisions: list[tuple[int, int]] = []
        self.dirty: set[int] = set()
        self.folds = self.squares_added = 0
        # The basepoint, or the seed complex, with a loop wedged on per word, folded.
        index = graph._index
        if seed is None:
            self.basepoint = self.new_vertex()
        else:
            vmap = {v: self.new_vertex() for v in seed.vertices}
            emap = {eid: self.new_edge(vmap[src], vmap[dst], index[label])
                    for eid, src, dst, label in seed.edges}
            for sq in seed.squares:
                a, b, gamma, delta = seed.square_ends(sq)
                self.add_square(emap[a[0]], emap[b[0]], emap[gamma[0]], emap[delta[0]],
                                2 * index[seed.end_label(a)] + a[1],
                                2 * index[seed.end_label(b)] + b[1])
            self.basepoint = vmap[seed.basepoint]
        for syllables in words:
            letters = [(g, e > 0) for g, e in syllables for _ in range(abs(e))]
            current = self.basepoint
            for i, (g, positive) in enumerate(letters):
                nxt = self.basepoint if i == len(letters) - 1 else self.new_vertex()
                if positive:
                    self.new_edge(current, nxt, g)
                else:
                    self.new_edge(nxt, current, g)
                current = nxt
        self.fold_all()

    # -- union-find ---------------------------------------------------------

    def vfind(self, v: int) -> int:
        parent = self.vparent
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]  # path halving
        return v

    def efind(self, e: int) -> int:
        parent = self.eparent
        while parent[e] != e:
            parent[e] = e = parent[parent[e]]
        return e

    def new_vertex(self) -> int:
        v = len(self.vparent)
        self.vparent.append(v)
        self.ends[v] = {}
        self.filled[v] = set()
        return v

    def new_edge(self, src: int, dst: int, label: int) -> int:
        e = len(self.eparent)
        self.eparent.append(e)
        self.edges.append((src, dst, label))
        self._insert(self.vfind(src), 2 * label, e)
        self._insert(self.vfind(dst), 2 * label + 1, e)
        return e

    def _insert(self, v: int, key: int, e: int) -> None:
        other = self.ends[v].setdefault(key, e)
        if other != e:
            self.collisions.append((other, e))
        self.dirty.add(v)

    def end_vertex(self, e: int, endpoint: int) -> int:
        return self.vfind(self.edges[e][endpoint])

    def union_vertices(self, a: int, b: int) -> None:
        a, b = self.vfind(a), self.vfind(b)
        if a == b:
            return
        if len(self.ends[a]) < len(self.ends[b]):
            a, b = b, a
        self.vparent[b] = a
        for key, e in self.ends.pop(b).items():
            self._insert(a, key, e)
        filled = self.filled
        if len(filled[a]) < len(filled[b]):
            filled[a], filled[b] = filled[b], filled[a]
        filled[a] |= filled.pop(b)

    # -- folding ------------------------------------------------------------

    def fold_all(self) -> None:
        """Fold queued edge pairs until no end table has a collision."""
        collisions = self.collisions
        while collisions:
            keep, drop = collisions.pop()
            keep, drop = self.efind(keep), self.efind(drop)
            if keep == drop:
                continue
            if drop < keep:
                keep, drop = drop, keep
            self.eparent[drop] = keep
            self.folds += 1
            (src, dst, _), (src2, dst2, _) = self.edges[keep], self.edges[drop]
            self.union_vertices(src, src2)
            self.union_vertices(dst, dst2)

    # -- square filling -----------------------------------------------------

    def fill_pass(self) -> bool:
        """Attach a square at every unfilled commuting corner of a dirty
        vertex, each marked filled as its square is attached, in the order
        ``_unfilled_corners`` lists them."""
        vertices = sorted({self.vfind(v) for v in self.dirty})
        self.dirty.clear()
        # Listed in full first: attaching marks corners at other vertices.
        targets = list(self._unfilled_corners(vertices))
        filled = self.filled
        for v, ka, kb in targets:
            filled[v].add((ka, kb))
            self._attach_square(v, ka, kb)
        return bool(targets)

    def _unfilled_corners(self, vertices: Iterable[int]) -> Iterator[tuple[int, int, int]]:
        """The unfilled commuting corners of the given root vertices, as
        (vertex, ka, kb), vertex by vertex and each one's in key order, read
        from the graph's corner table by the bitmask of the vertex's keys."""
        corners, ends, filled = self.graph._corners, self.ends, self.filled
        for v in vertices:
            mask = 0
            for key in ends[v]:
                mask |= 1 << key
            done = filled[v]
            for ka, kb in corners[mask]:
                if (ka, kb) not in done:
                    yield v, ka, kb

    def _attach_square(self, v: int, ka: int, kb: int) -> None:
        """Close the corner of v's ends at keys ka < kb with a square.

        The completing edges sit in the same table slots across the square
        as a and b at v.  A fresh opposite vertex and both completing edges
        are made unless both exist and agree on the opposite vertex; the
        next fold pass removes any duplicates this creates.
        """
        a, b = self.ends[v][ka], self.ends[v][kb]
        pa, pb = ka & 1, kb & 1
        far_a = self.end_vertex(a, 1 - pa)  # corner of the square across edge a
        far_b = self.end_vertex(b, 1 - pb)
        gamma = self.ends[far_a].get(kb)
        delta = self.ends[far_b].get(ka)
        opposite = None if gamma is None or delta is None else self.end_vertex(gamma, 1 - pb)
        if opposite is None or opposite != self.end_vertex(delta, 1 - pa):
            opposite = self.new_vertex()
            gamma = self.new_edge(far_a if pb == 0 else opposite,
                                  opposite if pb == 0 else far_a, kb >> 1)
            delta = self.new_edge(far_b if pa == 0 else opposite,
                                  opposite if pa == 0 else far_b, ka >> 1)
            self.dirty.discard(opposite)  # its one corner is this square's
        self.squares.append((a, b, gamma, delta, ka, kb))
        self.squares_added += 1
        # fill_pass marked the corner at v; the other three, in key order.
        filled = self.filled
        filled[far_a].add((ka ^ 1, kb))
        filled[far_b].add((ka, kb ^ 1))
        filled[opposite].add((ka ^ 1, kb ^ 1))

    def add_square(self, *square: int) -> None:
        """Record a seed square (a, b, gamma, delta, ka, kb) and mark its
        corners filled: at the vertex of a and b, across a, across b, and
        opposite, each as an edge and its key and the other key there."""
        self.squares.append(square)
        a, b, gamma, _, ka, kb = square
        for e, k1, k2 in ((a, ka, kb), (a, ka ^ 1, kb), (b, kb ^ 1, ka), (gamma, kb ^ 1, ka ^ 1)):
            self.filled[self.end_vertex(e, k1 & 1)].add((k1, k2) if k1 < k2 else (k2, k1))

    # -- assembly -----------------------------------------------------------

    def grow(self, budget: int) -> str:
        """Fill every unfilled commuting corner, then fold, in rounds until
        nothing is left to fill (VERIFIED) or, checked between rounds, the
        cells exceed ``budget`` (BUDGET_EXCEEDED): the vertices, the edges
        less the folds, and the raw squares."""
        while len(self.ends) + len(self.edges) - self.folds + len(self.squares) <= budget:
            if not self.fill_pass():
                return VERIFIED
            self.fold_all()
        return BUDGET_EXCEEDED

    def diagnostics(self, budget: int) -> dict:
        """The counters of the stage grown to ``budget``, its cells counted
        as ``freeze`` leaves them.  Raw squares that folding made equal are
        one square: on a folded stage any one corner fixes its square, and
        each square has four distinct corners, so the squares are the
        filled corners over four."""
        vertices, edges = len(self.ends), len(self.edges) - self.folds
        squares = sum(map(len, self.filled.values())) // 4
        return {"folds": self.folds, "squares_added": self.squares_added,
                "cells": vertices + edges + squares, "vertex_count": vertices,
                "edge_count": edges, "square_count": squares, "budget": budget}

    def check_link(self) -> None:
        """The link check of a stabilized stage on the builder's own tables,
        with nothing frozen; ``InternalError`` on a violation.  No fold may
        be queued, and every commuting corner of every vertex's end table
        must be filled.  With the queue empty each slot holds one edge, and
        a frozen square's four corners are the four its raw square marked
        filled, so this says clean exactly when ``_link_violations`` does on
        the frozen stage."""
        if self.collisions:
            raise InternalError(f"stabilized stage has {len(self.collisions)} queued folds")
        for v, ka, kb in self._unfilled_corners(self.ends):
            raise InternalError(f"stabilized stage failed the link check: "
                                f"corner {(ka, kb)} of vertex {v} is unfilled")

    def core(self, status: str, budget: int) -> SubgroupCore:
        """The stage frozen as a core; a verified one is link-checked."""
        complex_ = self.freeze()
        if status == VERIFIED:
            report = _link_violations(complex_)
            if not report.ok:
                raise InternalError(f"stabilized complex failed the link check: {report}")
        return SubgroupCore(complex=complex_, status=status, diagnostics=self.diagnostics(budget))

    def freeze(self) -> LabeledCubeComplex:
        """The complex, with string labels, in one pass over the builder.

        Every stage is connected and folded, so link-injective, and is
        numbered canonically, whatever order the construction made its
        cells in: vertices breadth first from the basepoint, taking each
        vertex's ends in table-key order (label index, then endpoint), and
        edges by (source, target, label).  Squares are renumbered, not
        re-read: each becomes its four corners.
        """
        vfind, efind = self.vfind, self.efind
        raw = self.edges
        labels = self.graph.vertices
        base = vfind(self.basepoint)
        vmap = {base: 0}
        queue = [base]
        for v in queue:
            table = self.ends[v]
            for key in sorted(table):
                far = vfind(raw[table[key]][1 - (key & 1)])
                if far not in vmap:
                    vmap[far] = len(vmap)
                    queue.append(far)
        if len(vmap) != len(self.ends):
            raise InternalError("complex is disconnected")
        at = [(vmap[vfind(src)], vmap[vfind(dst)]) for src, dst, _ in raw]
        roots = sorted((e for e in range(len(raw)) if efind(e) == e),
                       key=lambda e: (*at[e], labels[raw[e][2]]))
        new_id = [0] * len(raw)
        for i, e in enumerate(roots):
            new_id[e] = i
        for e in range(len(raw)):
            new_id[e] = new_id[efind(e)]
        edges = tuple((i, *at[e], labels[raw[e][2]]) for i, e in enumerate(roots))
        # Each square's corners, laid out as in add_square; raw squares that
        # folding made equal become one square.
        squares = set()
        for a, b, gamma, delta, ka, kb in self.squares:
            pa, pb = ka & 1, kb & 1
            na, nb, ng, nd = new_id[a], new_id[b], new_id[gamma], new_id[delta]
            squares.add(frozenset((_corner(at[a][pa], (na, pa), (nb, pb)),
                                   _corner(at[a][pa ^ 1], (na, pa ^ 1), (ng, pb)),
                                   _corner(at[b][pb ^ 1], (nb, pb ^ 1), (nd, pa)),
                                   _corner(at[gamma][pb ^ 1], (ng, pb ^ 1), (nd, pa ^ 1)))))
        return LabeledCubeComplex(graph=self.graph, vertices=tuple(range(len(vmap))),
                                  edges=edges, squares=frozenset(squares), basepoint=0)


def build_core(graph: DefiningGraph, generators: Sequence[Word | NormalWord],
               budget: int = 100_000,
               extend: LabeledCubeComplex | None = None) -> SubgroupCore:
    """Fold-and-fill construction of a core for the subgroup the generators span.

    A round fills every unfilled commuting corner, then folds until no end
    table collides.  The cell budget is checked between rounds, so a stage
    can overshoot it by one round (over the certify catalog, ``certify``'s
    stages reach 663, 1659 and 3091 cells at budgets 256, 1024 and 2000,
    and a direct build at budget 2000 reaches 4027).  Stabilization within
    budget yields a verified local isometry; exhausting the budget yields
    an inconclusive core carrying partial diagnostics.  Either way the
    cells are numbered canonically by ``_Builder.freeze``.  A stabilized
    core is checked for foldable slots and unfilled corners; only a seed
    complex's squares are read, by ``square_ends`` as the builder takes
    them in.

    ``extend`` is a connected complex over the same graph (for a core, its
    ``complex``), which seeds the construction instead of a bare
    basepoint.
    """
    if not generators:
        raise InputError("build_core requires at least one generator word")
    _require_count("budget", budget, 1)
    words = [_indexed(word, graph) for word in generators]
    if extend is not None:
        if not isinstance(extend, LabeledCubeComplex):
            raise InputError(f"extend takes a complex, not a {type(extend).__name__}: "
                             "pass core.complex")
        if extend.graph != graph:
            raise InputError("the complex to extend must be over the same defining graph")
        extend._require_cells("invalid complex to extend")
        if not extend.is_connected():
            raise InputError("the complex to extend must be connected")
    builder = _Builder(graph, words, extend)
    return builder.core(builder.grow(budget), budget)


def _require_count(name: str, value: int, least: int) -> None:
    """Raise ``InputError`` unless ``value`` is an ``int`` (not a ``bool``)
    of at least ``least``, which is 0 or 1; the message names ``name``."""
    _require_int(name, value)
    if value < least:
        raise InputError(f"{name} must be {'positive' if least else '>= 0'}")


def _require_verified(core: SubgroupCore) -> None:
    if not isinstance(core, SubgroupCore):
        raise ContractError(f"expected a SubgroupCore, got {type(core).__name__}")
    if not core.verified:
        raise ContractError(f"core status is {core.status!r}; a verified core is required")


def membership(core: SubgroupCore, w: Word | NormalWord) -> bool:
    """Trace the normal form's index syllables, letter by letter, through
    the letter table from the basepoint; member iff the trace closes up.

    Sound on a verified core: geodesic words of subgroup elements stay inside
    the core's convex universal-cover image, so a failed or non-closing trace
    certifies non-membership.
    """
    _require_verified(core)
    graph = core.graph
    options, base = core.complex._letter_options
    v = base
    for g, e in _read_out(_pile(_indexed(w, graph), graph), graph):
        sign = 1 if e > 0 else -1
        for _ in range(abs(e)):
            for h, s, far in options[v]:
                if h == g and s == sign:
                    v = far
                    break
            else:
                return False
    return v == base


class _SpellingAutomaton:
    """The canonical-spelling automaton of a link-injective complex.

    A canonical spelling is a word that is normal as written and the least
    spelling of its commutation class in letter order.  Whether a letter
    may extend one depends only on a finite state: (vertex reached, last
    generator or -1, last sign, forbidden mask F).  F holds the generators
    a new syllable may not use, those for which a scan back over the
    trailing syllables that commute with g would meet g itself or a larger
    generator.  From a state, the letter (g, sign):

    - extends the last syllable when g is the last generator and the sign
      is the same, leaving F unchanged (the other sign would cancel, so it
      is rejected);
    - is rejected when g is in F;
    - otherwise starts a new syllable, and F becomes
      ``comm[g] & (below(g) | F)``.  (g itself needs no bit: a later
      syllable commuting with g is larger than g, so its below-set already
      holds g.)

    Normal forms of graph products form a regular language (Hermiller &
    Meier 1995); this is its automaton read through the complex.  States
    are numbered as they are reached, and each state's successors are
    computed once, in letter order, and kept in ``table``.
    """

    def __init__(self, complex_: LabeledCubeComplex):
        self.options, self.base = complex_._letter_options
        self.comm = complex_.graph.comm_masks
        self._ids: dict[tuple[int, int, int, int], int] = {}
        self.keys: list[tuple[int, int, int, int]] = []
        # The letter that reaches each state, whole and as generator and sign.
        self.letter: list[tuple[int, int]] = []
        self.gen: list[int] = []
        self.sign: list[int] = []
        self.closes: list[bool] = []  # the state's vertex is the basepoint
        self.table: list[list[int]] = []  # successors of the expanded states
        self._expanded = 0
        self.start = self._state((self.base, -1, 0, 0))

    def _state(self, key: tuple[int, int, int, int]) -> int:
        sid = self._ids.get(key)
        if sid is None:
            sid = self._ids[key] = len(self.keys)
            self.keys.append(key)
            self.letter.append((key[1], key[2]))
            self.gen.append(key[1])
            self.sign.append(key[2])
            self.closes.append(key[0] == self.base)
        return sid

    def expand(self) -> None:
        """Compute the successors of every state reached so far (states it
        reaches are numbered, but not expanded until the next call)."""
        comm, options = self.comm, self.options
        reached = len(self.keys)
        for sid in range(self._expanded, reached):
            v, last, last_sign, forbidden = self.keys[sid]
            succ = []
            for g, sign, far in options[v]:
                if g == last:
                    if sign != last_sign:
                        continue
                    key = (far, g, sign, forbidden)
                elif (forbidden >> g) & 1:
                    continue
                else:
                    key = (far, g, sign, comm[g] & (((1 << g) - 1) | forbidden))
                succ.append(self._state(key))
            self.table.append(succ)
        self._expanded = reached


def _spell_back(auto: _SpellingAutomaton, backwards: list[tuple[list[int], list[int]]],
                j: int) -> tuple[tuple[int, int], ...]:
    """The syllables of node ``j`` of the last level, read by following the
    parents back through ``backwards`` (the levels, last first).

    Adjacent letters with the same generator form one syllable: a
    canonical spelling never has two such syllables side by side.  A
    one-letter syllable is the automaton's shared letter tuple.
    """
    gen_of, sign_of, letter = auto.gen, auto.sign, auto.letter
    syls: list[tuple[int, int]] = []
    first = -1  # the state of the current syllable's last letter
    g = -1
    e = 0
    for states, parents in backwards:
        s = states[j]
        if gen_of[s] == g:
            e += sign_of[s]
        else:
            if e:
                syls.append(letter[first] if e == sign_of[first] else (g, e))
            first = s
            g = gen_of[s]
            e = sign_of[s]
        j = parents[j]
    syls.append(letter[first] if e == sign_of[first] else (g, e))
    syls.reverse()
    return tuple(syls)


def iter_loops_by_length(complex_: LabeledCubeComplex, max_len: int,
                         node_budget: int | None = None
                         ) -> Iterator[tuple[int, list[tuple[tuple[int, int], ...]]]]:
    """Yield, per letter length, the basepoint loops spelled by canonical
    normal words, as syllable tuples over generator indices.

    The walk follows ``_SpellingAutomaton`` level by level, so each element
    is produced at most once, and each level comes in letter order (parent
    order, then letter order).  A node is two ints: its state and its
    parent's index in the level before.  Syllables are spelled out only
    for nodes that close at the basepoint, by following the parents back.
    Every node counts against ``node_budget``.  On a complex verified as a
    local isometry this produces exactly the subgroup elements up to the
    length cap; on an unverified (but link-injective) complex the loops
    are still genuine subgroup members, merely not exhaustive.
    """
    auto = _SpellingAutomaton(complex_)
    table, closes = auto.table, auto.closes
    yield 0, [()]
    levels: list[tuple[list[int], list[int]]] = []  # (states, parents) per length
    level = [auto.start]
    nodes = 1
    emitted = 1
    for length in range(1, max_len + 1):
        auto.expand()
        succs = list(map(table.__getitem__, level))
        sizes = list(map(len, succs))
        size = sum(sizes)
        # The budget is checked as each node is added: a level with no
        # nodes never raises, and the partial count takes in the loops
        # closed by the nodes that still fit.
        if node_budget is not None and size and nodes + size > node_budget:
            within = islice(chain.from_iterable(succs), max(node_budget - nodes, 0))
            raise BudgetExceededError(
                f"enumeration exceeded budget {node_budget}",
                partial_count=emitted + sum(map(closes.__getitem__, within)))
        states = list(chain.from_iterable(succs))
        parents = list(chain.from_iterable(map(repeat, range(len(level)), sizes)))
        nodes += len(states)
        levels.append((states, parents))
        backwards = levels[::-1]
        loops = [_spell_back(auto, backwards, j)
                 for j in compress(count(), map(closes.__getitem__, states))]
        emitted += len(loops)
        yield length, loops
        level = states
        if not states:
            break


def iter_elements_by_length(core: SubgroupCore, max_len: int,
                            node_budget: int | None = None
                            ) -> Iterator[tuple[int, list[tuple[tuple[int, int], ...]]]]:
    """Per-length subgroup elements of a verified core, as syllable tuples
    over generator indices."""
    _require_verified(core)
    return iter_loops_by_length(core.complex, max_len, node_budget=node_budget)


def count_elements(core: SubgroupCore, max_len: int) -> int:
    """The number of subgroup elements of letter length at most ``max_len``
    (the identity included), counted without listing them.

    Counts the walks of ``iter_loops_by_length`` by dynamic programming
    over the states of the same ``_SpellingAutomaton``: per length, the
    number of walks that reach each state.
    """
    _require_verified(core)
    _require_count("max_len", max_len, 0)
    auto = _SpellingAutomaton(core.complex)
    table, closes = auto.table, auto.closes
    counts = {auto.start: 1}
    total = 1
    for _ in range(max_len):
        auto.expand()
        nxt: dict[int, int] = {}
        for s, n in counts.items():
            for t in table[s]:
                nxt[t] = nxt.get(t, 0) + n
        counts = nxt
        if not counts:
            break
        total += sum(n for t, n in counts.items() if closes[t])
    return total


def enumerate_elements(core: SubgroupCore, max_len: int,
                       budget: int | None = None) -> tuple[NormalWord, ...]:
    """All subgroup elements of letter length at most ``max_len``, each as its
    canonical normal word, sorted by length then spelling (the walk's own
    order: letter order is generator index, positive sign first).  A
    ``budget`` on the walk's nodes must be positive."""
    _require_count("max_len", max_len, 0)
    if budget is not None:
        _require_count("budget", budget, 1)
    return tuple(_spell(syls, core.graph)
                 for _, loops in iter_elements_by_length(core, max_len, node_budget=budget)
                 for syls in loops)
