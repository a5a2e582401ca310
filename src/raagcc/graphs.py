"""Defining graphs for right-angled Artin groups.

A group is presented by a finite simplicial graph: one generator per vertex,
with two generators commuting exactly when their vertices are joined by an
edge.  The declaration order of the vertices doubles as the total order on
generator labels used everywhere a canonical choice is needed (lexicographic
tie-breaking of normal forms, deterministic traversals, reports).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import InputError

_LABEL = r"[A-Za-z_][A-Za-z_0-9]*"  # a vertex label: a name that word text can spell


@dataclass(frozen=True)
class DefiningGraph:
    """A finite simplicial graph with ordered vertex labels."""

    vertices: tuple[str, ...]
    edges: frozenset[frozenset[str]]

    @classmethod
    def build(cls, vertices: Iterable[str], edges: Iterable[tuple[str, str]]) -> "DefiningGraph":
        """Validate and construct a graph from raw vertex/edge data."""
        verts = tuple(vertices)
        for v in verts:
            if not isinstance(v, str):
                raise InputError(f"vertex label {v!r} is not a string")
            if not re.fullmatch(_LABEL, v):
                raise InputError(f"vertex label {v!r} is not a name ({_LABEL})")
        if len(set(verts)) != len(verts):
            raise InputError(f"duplicate vertex labels in {verts!r}")
        vert_set = set(verts)
        edge_set: set[frozenset[str]] = set()
        for e in edges:
            pair = tuple(e)
            if len(pair) != 2:
                raise InputError(f"edge {e!r} is not a pair")
            u, w = pair
            if not (isinstance(u, str) and isinstance(w, str)):
                raise InputError(f"edge {pair!r} has an endpoint that is not a string")
            if u == w:
                raise InputError(f"self-loop at {u!r} is not simplicial")
            if u not in vert_set or w not in vert_set:
                raise InputError(f"edge ({u!r}, {w!r}) uses undeclared vertices")
            edge_set.add(frozenset((u, w)))
        return cls(vertices=verts, edges=frozenset(edge_set))

    @cached_property
    def _index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def _adjacency(self) -> dict[str, frozenset[str]]:
        adj: dict[str, set[str]] = {v: set() for v in self.vertices}
        for e in self.edges:
            u, w = tuple(e)
            adj[u].add(w)
            adj[w].add(u)
        return {v: frozenset(nbrs) for v, nbrs in adj.items()}

    @cached_property
    def comm_masks(self) -> tuple[int, ...]:
        """Per vertex index, the bitmask of the other vertices it commutes with."""
        index = self._index
        return tuple(sum(1 << index[w] for w in self._adjacency[v]) for v in self.vertices)

    @cached_property
    def _corners(self) -> _CornerTable:
        """Per bitmask of end-table keys (bit ``2 * vertex index + endpoint``),
        its commuting corners: a lazily filled memo, see ``_CornerTable``."""
        return _CornerTable(self.comm_masks)

    @cached_property
    def non_commuting(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex index, the indices of the other vertices it fails to commute with."""
        return tuple(
            tuple(j for j, w in enumerate(self.vertices) if w != v and w not in self._adjacency[v])
            for v in self.vertices)

    def has_vertex(self, label: str) -> bool:
        return label in self._index

    def require_vertex(self, label: str) -> None:
        if label not in self._index:
            raise InputError(f"unknown generator {label!r} (vertices: {', '.join(self.vertices)})")

    def index(self, label: str) -> int:
        """Position of a label in the declared vertex order."""
        self.require_vertex(label)
        return self._index[label]

    def mask(self, labels: Iterable[str]) -> int:
        """The bitmask over vertex indices of a set of labels."""
        return sum(1 << i for i in {self.index(label) for label in labels})

    def commutes(self, u: str, w: str) -> bool:
        """True when the generators commute; a generator commutes with itself."""
        if u == w:
            return True
        return w in self._adjacency[u]

    def neighbors(self, label: str) -> frozenset[str]:
        self.require_vertex(label)
        return self._adjacency[label]

    def star(self, label: str) -> frozenset[str]:
        """The label together with its neighbors."""
        return self.neighbors(label) | {label}

    def complement_diameter(self) -> int:
        """Diameter of the complement graph (BFS over ``non_commuting``);
        raises if disconnected."""
        noncomm = self.non_commuting
        diameter = 0
        for source in range(len(noncomm)):
            dist = {source: 0}
            queue = [source]
            for v in queue:
                for w in noncomm[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        queue.append(w)
            if len(dist) != len(noncomm):
                raise InputError("complement graph is disconnected; diameter undefined")
            diameter = max(diameter, dist[queue[-1]])  # breadth first: the last is the farthest
        return diameter

    def to_json_dict(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": sorted(sorted(e) for e in self.edges),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "DefiningGraph":
        if not isinstance(data, dict) or "vertices" not in data or "edges" not in data:
            raise InputError("graph JSON must be an object with 'vertices' and 'edges'")
        vertices, edges = data["vertices"], data["edges"]
        if not (is_string_list(vertices) and isinstance(edges, list)
                and all(map(is_string_list, edges))):
            raise InputError("graph JSON 'vertices' must be a list of strings and "
                             "'edges' a list of string lists")
        return cls.build(vertices, [tuple(e) for e in edges])


class _CornerTable(dict):
    """From a bitmask of end-table keys to the pairs (ka, kb) of its keys,
    ka < kb, whose labels commute, in increasing (ka, kb) order; each
    entry is made on the first read of its mask.  An entry depends only on
    the graph's commutation masks, so the table serves every builder over
    the graph."""

    def __init__(self, comm: tuple[int, ...]) -> None:
        super().__init__()
        self.comm = comm

    def __missing__(self, mask: int) -> tuple[tuple[int, int], ...]:
        comm = self.comm
        keys = [k for k in range(mask.bit_length()) if mask >> k & 1]
        corners = self[mask] = tuple((ka, kb) for i, ka in enumerate(keys) for kb in keys[i + 1:]
                                     if comm[ka >> 1] >> (kb >> 1) & 1)
        return corners


def is_string_list(data: object) -> bool:
    """Whether decoded JSON is a list of strings."""
    return isinstance(data, list) and all(isinstance(v, str) for v in data)
