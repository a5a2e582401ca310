"""The symbolic surface layer: filling families, supports, and blocks.

Filling is specified extensionally: a model carries an antichain of minimal
filling generator subsets and a subset fills exactly when it contains one of
them.  All filling checks in scope reduce to the generator-support set of a
cyclic reduction, so no curve combinatorics is needed.  The model's graph is
the coincidence graph of the subsurface collection: an edge means disjoint
supports, i.e. commuting generators.

Inside the package every support is an ``int`` bitmask over the graph's
vertex indices (bit i for the i-th declared vertex); label sets appear only
at the boundary: JSON, ``fills_subset``, ``supports``, ``FillingBlock.support``.

Filling blocks come from one sweep over generator indices that counts, per
minimal filling set, the generators the window lacks; the letter-window
property then tests each minimal block once, against its tightest window.

Admissibility of the underlying embedding is a declared flag, never
computed; certification downstream is conditional on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Sequence

from .errors import InputError, _require_int
from .graphs import DefiningGraph, is_string_list
from .words import (NormalWord, Word, _indexed, _pile, _read_out, _require_normal, _spell,
                    cyclic_core_support)


@dataclass(frozen=True)
class SurfaceModel:
    """Coincidence graph plus a monotone filling family over generator subsets."""

    graph: DefiningGraph
    minimal_filling_sets: frozenset[frozenset[str]]
    admissible: bool = True

    @classmethod
    def build(cls, graph: DefiningGraph, minimal_filling_sets: Iterable[Iterable[str]],
              admissible: bool = True) -> "SurfaceModel":
        sets = frozenset(frozenset(str(x) for x in s) for s in minimal_filling_sets)
        for s in sets:
            for label in s:
                graph.require_vertex(label)
            if len(s) < 2:
                raise InputError(
                    "singleton filling sets are invalid: supports are proper subsurfaces")
        for s in sets:
            for t in sets:
                if s != t and s <= t:
                    raise InputError("minimal filling sets must form an antichain")
        return cls(graph=graph, minimal_filling_sets=sets, admissible=bool(admissible))

    @cached_property
    def filling_masks(self) -> tuple[int, ...]:
        """The minimal filling sets as vertex-index bitmasks."""
        return tuple(sorted(map(self.graph.mask, self.minimal_filling_sets)))

    @cached_property
    def _holders(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex index, the positions in ``filling_masks`` of the
        minimal filling sets that contain it."""
        return tuple(tuple(t for t, f in enumerate(self.filling_masks) if f >> v & 1)
                     for v in range(len(self.graph.vertices)))

    def fills_mask(self, mask: int) -> bool:
        """Whether the generator subset with this vertex-index bitmask fills."""
        return any(not f & ~mask for f in self.filling_masks)

    def fills_subset(self, labels: Iterable[str]) -> bool:
        return self.fills_mask(self.graph.mask(labels))

    @cached_property
    def maximal_non_filling_sets(self) -> tuple[int, ...]:
        """The inclusion-maximal generator subsets that do not fill, as
        vertex-index bitmasks in increasing order.

        A subset fails to fill exactly when its complement meets every
        minimal filling set, so these are the complements of the minimal
        transversals of the filling family (for the one-set model, the
        vertex set minus one vertex).  Transversals are grown one filling
        set at a time and pruned to the minimal ones after each step.
        """
        transversals = {0}
        for f in self.filling_masks:
            bits = [1 << i for i in range(f.bit_length()) if f >> i & 1]
            grown = {t if t & f else t | bit for t in transversals for bit in bits}
            transversals = {t for t in grown if not any(u != t and u | t == t for u in grown)}
        everything = (1 << len(self.graph.vertices)) - 1
        return tuple(sorted(everything & ~t for t in transversals))

    def to_json_dict(self) -> dict:
        return {
            "graph": self.graph.to_json_dict(),
            "minimal_filling_sets": sorted(sorted(s) for s in self.minimal_filling_sets),
            "admissible": self.admissible,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SurfaceModel":
        if not isinstance(data, dict) or "graph" not in data or "minimal_filling_sets" not in data:
            raise InputError(
                "model JSON must be an object with 'graph', 'minimal_filling_sets', 'admissible'")
        graph = DefiningGraph.from_json_dict(data["graph"])
        sets, admissible = data["minimal_filling_sets"], data.get("admissible", True)
        if not isinstance(sets, list) or not all(map(is_string_list, sets)):
            raise InputError("model JSON 'minimal_filling_sets' must be a list of string lists")
        if not isinstance(admissible, bool):
            raise InputError(f"model JSON 'admissible' must be true or false, got {admissible!r}")
        return cls.build(graph, sets, admissible)


def supports(w: NormalWord) -> frozenset[str]:
    """The set of generator labels appearing among the syllables."""
    return frozenset(label for label, _ in w.pairs())


def fills(w: Word | NormalWord, model: SurfaceModel) -> bool:
    """Whether the element fills: the support of its cyclic reduction hits a
    minimal filling set."""
    return model.fills_mask(cyclic_core_support(_indexed(w, model.graph), model.graph))


@dataclass(frozen=True)
class SymbolicSubsurface:
    """The image of a base support under the prefix preceding a syllable."""

    prefix: NormalWord
    base: str


def subs(w: NormalWord, graph: DefiningGraph) -> tuple[SymbolicSubsurface, ...]:
    """The per-syllable subsurface family: entry i pairs the canonical form of
    the prefix before syllable i with that syllable's support."""
    syllables = _require_normal(w, graph, "subs")
    labels = graph.vertices
    return tuple(SymbolicSubsurface(
        prefix=_spell(_read_out(_pile(syllables[:i], graph), graph), graph), base=labels[g])
        for i, (g, _) in enumerate(syllables))


def subsurfaces_equal(a: SymbolicSubsurface, b: SymbolicSubsurface,
                      graph: DefiningGraph) -> bool:
    """Prefix-translates of one base support coincide exactly when the prefixes
    differ by an element of the base's star subgroup: when the piling of
    b.prefix^-1 * a.prefix holds a syllable only on the stacks of the star."""
    if a.base != b.base:
        return False
    inverse = [(g, -e) for g, e in reversed(_indexed(b.prefix, graph))]
    piles = _pile(inverse + _indexed(a.prefix, graph), graph)
    v = graph.index(a.base)
    star = graph.comm_masks[v] | 1 << v
    return not any(any(pile) for g, pile in enumerate(piles) if not star >> g & 1)


def subs_family_equal(f1: Sequence[SymbolicSubsurface], f2: Sequence[SymbolicSubsurface],
                      graph: DefiningGraph) -> bool:
    """Set equality of subsurface families under the star-coset rule."""
    def contained(fa, fb):
        return all(any(subsurfaces_equal(x, y, graph) for y in fb) for x in fa)
    return contained(f1, f2) and contained(f2, f1)


@dataclass(frozen=True)
class FillingBlock:
    """A consecutive syllable range whose supports form a filling subset."""

    word: NormalWord
    start: int  # first syllable index, inclusive
    end: int    # last syllable index, inclusive

    @property
    def support(self) -> frozenset[str]:
        return frozenset(label for label, _ in self.word.pairs()[self.start:self.end + 1])


def _minimal_blocks(gens: Sequence[int], model: SurfaceModel) -> list[tuple[int, int]]:
    """The inclusion-minimal filling ranges (start, end), both inclusive, of
    a syllable sequence given by its generator indices.

    Filling is monotone, so the end of the shortest filling range starting
    at i never decreases as i grows: one sweep with two pointers finds every
    such end, and a range is minimal exactly when the next start's shortest
    range ends later.  The window keeps a count per generator and, per
    minimal filling set, how many of its generators it lacks; it fills
    while some set lacks none, so a pointer move only updates the counts of
    the sets that hold a generator entering or leaving the window.
    """
    holders = model._holders
    lacking = [f.bit_count() for f in model.filling_masks]
    counts = [0] * len(holders)  # generator multiplicities in gens[i:j]
    full = 0  # the minimal filling sets the window lacks nothing of
    k = len(gens)
    j = 0
    blocks: list[tuple[int, int]] = []
    for i in range(k):
        while not full and j < k:
            g = gens[j]
            if not counts[g]:
                for f in holders[g]:
                    lacking[f] -= 1
                    full += not lacking[f]
            counts[g] += 1
            j += 1
        if not full:
            break
        if blocks and blocks[-1][1] == j - 1:
            blocks[-1] = (i, j - 1)  # the longer range with the same end is not minimal
        else:
            blocks.append((i, j - 1))
        g = gens[i]
        counts[g] -= 1
        if not counts[g]:
            for f in holders[g]:
                full -= not lacking[f]
                lacking[f] += 1
    return blocks


def find_filling_blocks(w: NormalWord, model: SurfaceModel) -> tuple[FillingBlock, ...]:
    """All inclusion-minimal consecutive syllable ranges whose supports fill."""
    syllables = _require_normal(w, model.graph, "find_filling_blocks")
    return tuple(FillingBlock(word=w, start=i, end=e) for i, e in
                 _minimal_blocks([g for g, _ in syllables], model))


def check_window_property(w: NormalWord, window: int, model: SurfaceModel) -> bool:
    """Every contiguous letter window of the given length contains a complete
    filling block.  Vacuously true when the word is shorter than the window,
    before the word is checked."""
    _require_window(window)
    if len(w) < window:
        return True
    return _window_holds(_require_normal(w, model.graph, "check_window_property"), window, model)


def _require_window(window: int) -> None:
    _require_int("window", window)
    if window < 1:
        raise InputError(f"window length must be >= 1, got {window}")


def _window_holds(syllables: Sequence[tuple[int, int]], window: int,
                  model: SurfaceModel) -> bool:
    """``check_window_property`` on the (generator index, exponent)
    syllables of a normal word, for a window of at least one letter.

    The minimal blocks' letter starts and ends both strictly increase, so
    the block to test for the window at letter p is the first one starting
    at or after p.  Block t is thus tested for the windows from one past
    block t-1's start to its own start, and the first of them is the
    tightest: one test per block decides the property.
    """
    offsets = [0, *accumulate(abs(e) for _, e in syllables)]
    last = offsets[-1] - window  # the start of the last window
    p = 0  # the first window start no block has been tested for
    for start, end in _minimal_blocks([g for g, _ in syllables], model):
        if p > last:
            return True
        if offsets[end + 1] > p + window:
            return False
        p = offsets[start] + 1
    return p > last


def max_exponent(w: NormalWord) -> int:
    """Largest absolute syllable exponent; 0 for the empty word."""
    return max((abs(e) for _, e in w.pairs()), default=0)
