"""Independent oracles used to pin expected values in the tests.

Everything here must stay independent of the package's normal-form
implementation: closures apply the three rewriting moves literally,
geodesic distances in the three-generator one-edge group come from a
direct free-product-of-(Z, Z^2) arithmetic, and class sizes come from
linear-extension enumeration.  Slow paths the package has replaced are
kept as differential oracles: ``oracle_loops_by_length``, the
back-scanning walk of canonical spellings that the spelling automaton
replaced, and ``oracle_certify_by_enumeration``, the ell-ball sweep that
``certify`` used before its exact check, run on that walk.
``oracle_partial_stage_witness`` is the bounded loop walk that decided
budget-exceeded stages before the chord-word check took that over, and
``oracle_chord_words`` the chord words as read before the forests kept
parent pointers.  ``oracle_forest_chords`` is the breadth-first chord
listing that the chord check ran on a frozen complex's adjacency before
its union-find forests, and ``oracle_h1_vanishes`` the elimination it fed
them to, over the whole stage.  ``oracle_h1_rank`` is H_1 of a label set's subcomplex
over GF(2), from dense rows over its edges, the reference for the
homology decision of ``certify``'s chord check.
``oracle_short_product_witness`` refutes from products of a few
generators alone, sharing no code with the core builder.
``oracle_square_edges`` reads each square's boundary row through
``square_ends``, the reference for the square rows that a stage's view
groups by their labels.
``oracle_from_dot`` parses ``to_dot``'s output back into a complex, so
that the tests can check that DOT export loses nothing; the package
itself reads stored cores only from JSON.
``oracle_letter_options`` is the table of letters
leaving each vertex as read from ``oracle_trace_maps``, the (vertex,
label) maps the package once kept, before it read the table off the
complex's integer adjacency; the oracle walks use it, so they share
nothing with the package's enumeration.
``oracle_complement_diameter`` and ``oracle_subsurfaces_equal`` are
``DefiningGraph.complement_diameter`` and ``subsurfaces_equal`` on
labels, as they ran before they read ``non_commuting`` and piled index
syllables.
``oracle_bme_normal_form`` is the ring family's B/M/E normal form
spelled in string labels, symbol by symbol, before the package spelled
index syllables; ``naive_expansion`` concatenates the generators'
spellings with no merging at all, the word both are normalized against.
``oracle_bme_pairs`` is the form's index syllables spelled symbol by
symbol from each kind's block, before the per-family symbol table.
``oracle_check_local_isometry`` is the link check on string labels and
``oracle_ends_at`` that the integer check replaced.
``oracle_canonical_form`` is the breadth-first renumbering that verified
cores were once put through after freezing; it is the reference that
``build_core``'s canonical numbering is tested against.
``oracle_pile``, ``oracle_read_out``, ``oracle_reduce_cyclically`` and
``oracle_cyclic_core_support`` are the piling kernel as it ran through one
``oracle_push`` or ``oracle_pop_bottom`` call per syllable, before each
loop pushed and popped inline.
``oracle_decompose`` is the recursive subword decomposition that the
work-stack one replaced, with its own reachability scan,
``_ordered_from_left``.  ``oracle_build_core`` is the fold/fill
builder that the end tables replaced: string labels, incidence sets
rescanned and sorted on every look-up, and a filled-corner set rebuilt
after every fold round, self-checked by ``oracle_check_local_isometry``.
It shares only ``LabeledCubeComplex`` with the package's builder.
``PairScanBuilder`` is the package's builder with the fill scan it ran
before the graph's corner table: every pair of a dirty vertex's sorted
table keys tested for commuting, and every fresh opposite vertex scanned
again on the next pass.

Filling is decided here on label sets against the model's minimal filling
sets, never on the package's bitmasks, and the ring family's span tracking
runs on the ring's own disjointness rule for ``("X", i)``/``("Y", i)``
supports, never on the graph's commutation masks.
"""

from __future__ import annotations

import importlib
import json
import random
import re
from collections import deque
from fractions import Fraction
from itertools import accumulate, combinations, product as product_of
from random import Random
from typing import Iterable, Iterator, NamedTuple, Sequence

from raagcc.complexes import (
    BUDGET_EXCEEDED,
    VERIFIED,
    Corner,
    End,
    LabeledCubeComplex,
    LinkReport,
    Square,
    SubgroupCore,
    _Builder,
    _corner,
)
from raagcc.errors import BudgetExceededError, ContractError, InputError, InternalError
from raagcc.graphs import DefiningGraph
from raagcc.surfaces import FillingBlock, SurfaceModel
from raagcc.words import (
    NormalWord,
    Word,
    concat,
    cyclic_core_support,
    cyclically_reduce,
    invert,
    is_normal,
    normal_word_from_pairs,
    normalize,
    syllable_order,
)

# The module itself: ``raagcc.family`` is also the name of the family()
# constructor that the package re-exports.
ring = importlib.import_module("raagcc.family")

Pairs = tuple[tuple[str, int], ...]


def as_pairs(letters_or_pairs) -> Pairs:
    out = []
    for g, e in letters_or_pairs:
        if e != 0:
            out.append((g, e))
    return tuple(out)


def _moves(word: Pairs, graph: DefiningGraph) -> Iterator[Pairs]:
    """All words reachable by one application of a move.

    Move (1) removes a zero-exponent syllable, move (2) merges an adjacent
    same-generator pair, move (3) swaps an adjacent commuting pair.
    """
    for i, (g, e) in enumerate(word):
        if e == 0:
            yield word[:i] + word[i + 1:]
    for i in range(len(word) - 1):
        (g1, e1), (g2, e2) = word[i], word[i + 1]
        if g1 == g2:
            yield word[:i] + ((g1, e1 + e2),) + word[i + 2:]
        elif graph.commutes(g1, g2):
            yield word[:i] + ((g2, e2), (g1, e1)) + word[i + 2:]


def move_closure(word: Pairs, graph: DefiningGraph, cap: int = 2_000_000) -> set[Pairs]:
    """Everything reachable from ``word`` by the three moves (never longer)."""
    start = as_pairs(word)
    seen = {start}
    queue = deque([start])
    while queue:
        current = queue.popleft()
        for nxt in _moves(current, graph):
            if nxt not in seen:
                if len(seen) >= cap:
                    raise RuntimeError("move closure exceeded cap")
                seen.add(nxt)
                queue.append(nxt)
    return seen


def oracle_geodesic_length(word: Pairs, graph: DefiningGraph) -> int:
    """Group-element length: minimum letter count over the move closure."""
    return min(sum(abs(e) for _, e in w) for w in move_closure(word, graph))


def oracle_min_class(word: Pairs, graph: DefiningGraph) -> set[Pairs]:
    """Minimum-syllable words in the move closure of ``word``."""
    closure = move_closure(word, graph)
    best = min(len(w) for w in closure)
    return {w for w in closure if len(w) == best}


def swap_class(normal_word: Pairs, graph: DefiningGraph) -> set[Pairs]:
    """Closure of a normal word under adjacent commuting swaps only."""
    seen = {as_pairs(normal_word)}
    queue = deque(seen)
    while queue:
        current = queue.popleft()
        for i in range(len(current) - 1):
            (g1, e1), (g2, e2) = current[i], current[i + 1]
            if g1 != g2 and graph.commutes(g1, g2):
                swapped = current[:i] + ((g2, e2), (g1, e1)) + current[i + 2:]
                if swapped not in seen:
                    seen.add(swapped)
                    queue.append(swapped)
    return seen


def swap_class_annotated(normal_word: Pairs, graph: DefiningGraph) -> set[tuple]:
    """Swap closure with syllable identities attached, for order oracles."""
    start = tuple((g, e, i) for i, (g, e) in enumerate(normal_word))
    seen = {start}
    queue = deque(seen)
    while queue:
        current = queue.popleft()
        for i in range(len(current) - 1):
            a, b = current[i], current[i + 1]
            if a[0] != b[0] and graph.commutes(a[0], b[0]):
                swapped = current[:i] + (b, a) + current[i + 2:]
                if swapped not in seen:
                    seen.add(swapped)
                    queue.append(swapped)
    return seen


def oracle_order_pairs(normal_word: Pairs, graph: DefiningGraph) -> set[tuple[int, int]]:
    """(i, j) syllable-identity pairs with i left of j in every representative."""
    members = swap_class_annotated(normal_word, graph)
    n = len(normal_word)
    pairs = set()
    for i, j in combinations(range(n), 2):
        for orient in ((i, j), (j, i)):
            if all(_identity_pos(m, orient[0]) < _identity_pos(m, orient[1]) for m in members):
                pairs.add(orient)
    return pairs


def _ordered_from_left(lead: int, mid: Sequence[int], comm: Sequence[int]) -> list[bool]:
    """For each syllable of ``mid``, whether the leading syllable precedes it.

    Dependence chains from the leading syllable stay inside the window, so
    reachability over direct dependence within ``lead . mid`` is exact: a
    syllable is reached when its generator fails to commute with (or equals)
    the generator of an already reached syllable.
    """
    reached = 1 << lead
    ordered = []
    for g in mid:
        hit = bool(reached & ~comm[g])
        if hit:
            reached |= 1 << g
        ordered.append(hit)
    return ordered


def oracle_decompose(p_gen: int, mid: list[tuple[int, int]], q_gen: int,
                     comm: Sequence[int]) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Constructive induction splitting the word between two unordered
    syllables into a part commuting with the left one followed by a part
    commuting with the right one."""
    if not mid:
        return [], []
    ordered = _ordered_from_left(p_gen, [g for g, _ in mid], comm)
    try:
        t = ordered.index(True)
    except ValueError:
        return list(mid), []
    s = mid[t]
    left_prefix = mid[:t]
    rest = mid[t + 1:]
    l2, r2 = oracle_decompose(s[0], rest, q_gen, comm)
    l3, r3 = oracle_decompose(p_gen, l2, q_gen, comm)
    return left_prefix + l3, r3 + [s] + r2


def oracle_cyclic_core(word: Pairs, graph: DefiningGraph) -> Pairs:
    """A cyclic reduction of ``word`` by literal moves.

    Reduce to a minimal-syllable word, then rotate the first syllable of every
    representative of its move-(3) class to the end and reduce again; stop
    when no rotation lowers the syllable count.
    """
    current = min(oracle_min_class(word, graph))
    while True:
        for rep in sorted(swap_class(current, graph)):
            rotated = min(oracle_min_class(rep[1:] + rep[:1], graph))
            if len(rotated) < len(current):
                current = rotated
                break
        else:
            return current


def oracle_push(piles: list[deque], g: int, e: int, noncomm: Sequence[Sequence[int]]) -> None:
    """Multiply a piling on the right by the syllable g^e.

    A syllable on top of its own stack has nothing non-commuting after it,
    so the new one merges into it (and pops the markers when they cancel);
    otherwise the syllable goes on top with a marker on each non-commuting
    stack.  Markers are interchangeable, so popping any one from the run of
    markers above a stack's last syllable is the same as popping its own.
    """
    pile = piles[g]
    if pile and pile[-1]:
        e += pile[-1]
        if e:
            pile[-1] = e
        else:
            pile.pop()
            for h in noncomm[g]:
                piles[h].pop()
        return
    pile.append(e)
    for h in noncomm[g]:
        piles[h].append(0)


def oracle_pop_bottom(piles: list[deque], g: int, noncomm: Sequence[Sequence[int]]) -> int:
    """Remove a minimal syllable of g; under its markers lie only markers."""
    for h in noncomm[g]:
        piles[h].popleft()
    return piles[g].popleft()


def oracle_pile(syllables: Iterable[tuple[int, int]], graph: DefiningGraph) -> list[deque]:
    noncomm = graph.non_commuting
    piles: list[deque] = [deque() for _ in noncomm]
    for g, e in syllables:
        oracle_push(piles, g, e, noncomm)
    return piles


def oracle_read_out(piles: list[deque], graph: DefiningGraph) -> list[tuple[int, int]]:
    """Empty the piling into its canonical normal form, as index syllables:
    repeatedly emit the least-index generator whose bottom entry is a
    syllable."""
    noncomm = graph.non_commuting
    out: list[tuple[int, int]] = []
    while True:
        for g, pile in enumerate(piles):
            if pile and pile[0]:
                break
        else:
            return out
        out.append((g, oracle_pop_bottom(piles, g, noncomm)))


def oracle_reduce_cyclically(piles: list[deque], graph: DefiningGraph) -> list[tuple[int, int]]:
    """Conjugate a piling in place down to a cyclic reduction, moving the
    least bottom syllable whose stack also ends in a distinct syllable to
    the top; returns the conjugator's syllables in order."""
    noncomm = graph.non_commuting
    conjugator: list[tuple[int, int]] = []
    while True:
        for g, pile in enumerate(piles):
            if len(pile) > 1 and pile[0] and pile[-1]:
                break
        else:
            return conjugator
        e = oracle_pop_bottom(piles, g, noncomm)
        conjugator.append((g, e))
        oracle_push(piles, g, e, noncomm)


def oracle_cyclic_core_support(syllables: Iterable[tuple[int, int]], graph: DefiningGraph) -> int:
    piles = oracle_pile(syllables, graph)
    oracle_reduce_cyclically(piles, graph)
    return sum(1 << g for g, pile in enumerate(piles) if any(pile))


def _identity_pos(member: tuple, identity: int) -> int:
    for pos, (_, _, ident) in enumerate(member):
        if ident == identity:
            return pos
    raise AssertionError("syllable identity lost")


def count_linear_extensions(n: int, pairs: Iterable[tuple[int, int]]) -> int:
    """Number of linear extensions of a strict partial order on 0..n-1."""
    preds = [set() for _ in range(n)]
    for i, j in pairs:
        preds[j].add(i)
    memo: dict[frozenset, int] = {}

    def count(remaining: frozenset) -> int:
        if not remaining:
            return 1
        if remaining in memo:
            return memo[remaining]
        total = 0
        for x in remaining:
            if not (preds[x] & remaining):
                total += count(remaining - {x})
        memo[remaining] = total
        return total

    return count(frozenset(range(n)))


# -- the three-generator one-edge group as Z * Z^2 ---------------------------
# Elements are alternating block sequences: ('a', k) with k != 0 and
# ('bc', m, k) with (m, k) != (0, 0).  Generator length of a block is |k|
# resp. |m| + |k|; lengths add over blocks.


def fp_identity() -> tuple:
    return ()


def fp_mul_letter(element: tuple, gen: str, sign: int) -> tuple:
    blocks = list(element)
    if gen == "a":
        if blocks and blocks[-1][0] == "a":
            k = blocks[-1][1] + sign
            if k == 0:
                blocks.pop()
            else:
                blocks[-1] = ("a", k)
        else:
            blocks.append(("a", sign))
    else:
        dm = sign if gen == "b" else 0
        dk = sign if gen == "c" else 0
        if blocks and blocks[-1][0] == "bc":
            m, k = blocks[-1][1] + dm, blocks[-1][2] + dk
            if m == 0 and k == 0:
                blocks.pop()
            else:
                blocks[-1] = ("bc", m, k)
        else:
            blocks.append(("bc", dm, dk))
    return tuple(blocks)


def fp_length(element: tuple) -> int:
    total = 0
    for block in element:
        if block[0] == "a":
            total += abs(block[1])
        else:
            total += abs(block[1]) + abs(block[2])
    return total


def fp_mul_word(element: tuple, pairs: Pairs) -> tuple:
    for g, e in pairs:
        sign = 1 if e > 0 else -1
        for _ in range(abs(e)):
            element = fp_mul_letter(element, g, sign)
    return element


def cayley_ball_abc(radius: int) -> dict[tuple, tuple[int, Pairs]]:
    """BFS ball of the three-generator one-edge group: element -> (distance,
    a geodesic word found by the search)."""
    start = fp_identity()
    ball: dict[tuple, tuple[int, Pairs]] = {start: (0, ())}
    frontier = [start]
    for dist in range(1, radius + 1):
        nxt = []
        for el in frontier:
            word = ball[el][1]
            for gen in ("a", "b", "c"):
                for sign in (1, -1):
                    grown = fp_mul_letter(el, gen, sign)
                    if grown not in ball:
                        ball[grown] = (dist, word + ((gen, sign),))
                        nxt.append(grown)
        frontier = nxt
    return ball


# -- enumeration helpers ------------------------------------------------------


def normal_words_upto(graph: DefiningGraph, max_letters: int) -> Iterator[Pairs]:
    """All nonempty normal words of letter length at most ``max_letters``.

    Extends words syllable by syllable, keeping exactly the words where no
    same-generator pair is separated only by commuting generators.
    """
    labels = graph.vertices

    def extend_ok(word: list[tuple[str, int]], gen: str) -> bool:
        for g, _ in reversed(word):
            if g == gen:
                return False
            if not graph.commutes(g, gen):
                return True
        return True

    def rec(word: list[tuple[str, int]], used: int) -> Iterator[Pairs]:
        for gen in labels:
            if word and not extend_ok(word, gen):
                continue
            for mag in range(1, max_letters - used + 1):
                for exp in (mag, -mag):
                    word.append((gen, exp))
                    yield tuple(word)
                    yield from rec(word, used + mag)
                    word.pop()

    yield from rec([], 0)


def brute_force_filling_ranges(word: Pairs, fills_subset) -> list[tuple[int, int]]:
    """Inclusion-minimal consecutive syllable ranges with filling support,
    by checking every range."""
    n = len(word)
    filling = []
    for i in range(n):
        for j in range(i, n):
            if fills_subset({g for g, _ in word[i:j + 1]}):
                filling.append((i, j))
    minimal = []
    for i, j in filling:
        if not any((i2, j2) != (i, j) and i <= i2 and j2 <= j for i2, j2 in filling):
            minimal.append((i, j))
    return sorted(minimal)


def randomized_reduce(word: Pairs, graph: DefiningGraph, rng: random.Random,
                      max_idle_swaps: int = 400) -> Pairs:
    """Reduce a word to normal form by applying moves in random order.

    Random swaps are interleaved with merges; when the word is reducible but
    no merge is adjacent, a mergeable pair (same generator, only commuting
    generators between) is pushed together by legal swaps, in random steps.
    """
    current = list(as_pairs(word))

    def find_mergeable() -> tuple[int, int] | None:
        for i in range(len(current)):
            g = current[i][0]
            for j in range(i + 1, len(current)):
                h = current[j][0]
                if h == g:
                    return (i, j)
                if not graph.commutes(h, g):
                    break
        return None

    idle = 0
    while True:
        merged = False
        order = list(range(len(current) - 1))
        rng.shuffle(order)
        for i in order:
            if current[i][0] == current[i + 1][0]:
                g, e = current[i][0], current[i][1] + current[i + 1][1]
                del current[i:i + 2]
                if e != 0:
                    current.insert(i, (g, e))
                merged = True
                break
        if merged:
            idle = 0
            continue
        pair = find_mergeable()
        if pair is None:
            return tuple(current)
        i, j = pair
        if idle < max_idle_swaps and rng.random() < 0.7:
            k = rng.randrange(max(1, len(current) - 1))
            if k + 1 < len(current):
                (g1, e1), (g2, e2) = current[k], current[k + 1]
                if g1 != g2 and graph.commutes(g1, g2):
                    current[k], current[k + 1] = current[k + 1], current[k]
            idle += 1
        else:
            # Steer: everything between the pair commutes with it, so the
            # right partner can legally walk left.
            for t in range(j, i + 1, -1):
                current[t - 1], current[t] = current[t], current[t - 1]
            idle = 0


# -- complexes: incidence and the reference numbering -------------------------


def oracle_ends_at(complex_: LabeledCubeComplex) -> dict[int, tuple[End, ...]]:
    """Each vertex's edge-ends (edge id, endpoint), sorted, with endpoint 0
    where the vertex is the edge's source."""
    ends: dict[int, list[End]] = {v: [] for v in complex_.vertices}
    for eid, src, dst, _ in complex_.edges:
        ends[src].append((eid, 0))
        ends[dst].append((eid, 1))
    return {v: tuple(sorted(es)) for v, es in ends.items()}


def oracle_far_vertex(complex_: LabeledCubeComplex, end: End) -> int:
    """The vertex at the other end of an edge-end's edge."""
    src, dst, _ = complex_.edge_map[end[0]]
    return dst if end[1] == 0 else src


def oracle_canonical_form(complex_: LabeledCubeComplex) -> LabeledCubeComplex:
    """Renumber cells by a breadth-first traversal from the basepoint,
    taking each vertex's ends by (label index, endpoint, edge id); edges
    are numbered by (source, target, label, old id).

    Well-defined (independent of the incoming numbering) when the complex
    is link-injective; otherwise the result is merely a stable relabeling.
    This is the numbering that ``build_core`` gives every core.
    """
    index = complex_.graph.index
    ends_at = oracle_ends_at(complex_)
    order: dict[int, int] = {complex_.basepoint: 0}
    queue = deque([complex_.basepoint])
    while queue:
        v = queue.popleft()
        for end in sorted(ends_at[v],
                          key=lambda end: (index(complex_.end_label(end)), end[1], end[0])):
            far = oracle_far_vertex(complex_, end)
            if far not in order:
                order[far] = len(order)
                queue.append(far)
    if len(order) != len(complex_.vertices):
        raise InternalError("complex is disconnected")
    new_edges = sorted((order[src], order[dst], label, eid)
                       for eid, src, dst, label in complex_.edges)
    eid_map = {old: new for new, (_, _, _, old) in enumerate(new_edges)}
    squares = frozenset(
        frozenset(_corner(order[v], (eid_map[a[0]], a[1]), (eid_map[b[0]], b[1]))
                  for v, (a, b) in sq)
        for sq in complex_.squares)
    return LabeledCubeComplex(
        graph=complex_.graph,
        vertices=tuple(range(len(order))),
        edges=tuple((new, src, dst, label)
                    for new, (src, dst, label, _) in enumerate(new_edges)),
        squares=squares,
        basepoint=0,
    )


def oracle_trace_maps(complex_: LabeledCubeComplex
                      ) -> tuple[dict[tuple[int, str], int], dict[tuple[int, str], int]]:
    """(out, in) maps (vertex, label) -> far vertex; requires link injectivity."""
    out: dict[tuple[int, str], int] = {}
    into: dict[tuple[int, str], int] = {}
    for eid, src, dst, label in complex_.edges:
        if (src, label) in out or (dst, label) in into:
            raise ContractError("complex is not link-injective; tracing is ambiguous")
        out[(src, label)] = dst
        into[(dst, label)] = src
    return out, into


def oracle_square_edges(complex_: LabeledCubeComplex) -> list[tuple[int, int, int, int, int, int]]:
    """Each square once as (a, b, gamma, delta, label index of a, of b), its
    boundary edges as positions in ``edges``, read by ``square_ends``."""
    index = complex_.graph._index
    position = {eid: i for i, (eid, _, _, _) in enumerate(complex_.edges)}
    rows = []
    for sq in complex_.squares:
        a, b, gamma, delta = complex_.square_ends(sq)
        rows.append((position[a[0]], position[b[0]], position[gamma[0]], position[delta[0]],
                     index[complex_.end_label(a)], index[complex_.end_label(b)]))
    return rows


def oracle_from_dot(text: str) -> LabeledCubeComplex:
    """Parse the output of ``to_dot``, through ``from_json_dict`` and its
    checks; any other non-blank line is an ``InputError``."""
    graph = None
    basepoint = None
    squares_raw = []
    vertices: set[int] = set()
    edges = []
    edge_re = re.compile(r"(\d+)\s*->\s*(\d+)\s*\[label=\"([^\"]+)\"\s+eid=(\d+)\];")
    node_re = re.compile(r"(\d+)\s*\[shape=(?:circle|doublecircle)\];")
    meta_re = re.compile(r"//\s*(schema|graph|basepoint|square):(.*)")
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped in ("digraph core {", "}"):
            continue
        meta = meta_re.fullmatch(stripped)
        edge = edge_re.fullmatch(stripped)
        node = node_re.fullmatch(stripped)
        try:
            if meta and meta.group(1) == "schema":
                if meta.group(2).strip() != "raagcc-dot-v1":
                    raise InputError(f"unsupported DOT schema {meta.group(2).strip()!r}")
            elif meta and meta.group(1) == "graph":
                try:
                    data = json.loads(meta.group(2).strip())
                except json.JSONDecodeError as exc:
                    raise InputError(f"invalid graph JSON: {exc}") from exc
                graph = DefiningGraph.from_json_dict(data)
            elif meta and meta.group(1) == "basepoint":
                basepoint = int(meta.group(2))
            elif meta:
                squares_raw.append(json.loads(meta.group(2)))
            elif edge:
                src, dst, label, eid = edge.groups()
                edges.append((int(eid), int(src), int(dst), label))
            elif node:
                vertices.add(int(node.group(1)))
            else:
                raise InputError(f"unrecognised line {stripped!r}")
        except (ValueError, json.JSONDecodeError) as exc:
            raise InputError(f"DOT line {lineno}: {exc}") from exc
    if graph is None or basepoint is None:
        raise InputError("DOT input is missing // graph or // basepoint metadata")
    return LabeledCubeComplex.from_json_dict({
        "graph": graph.to_json_dict(),
        "basepoint": basepoint,
        "vertices": sorted(vertices),
        "edges": [list(e) for e in sorted(edges)],
        "squares": squares_raw,
    })


def oracle_letter_options(complex_: LabeledCubeComplex
                          ) -> tuple[dict[int, list[tuple[int, int, int]]], int]:
    """Per-vertex extension letters as (generator index, sign, next vertex),
    keyed by vertex id, and the basepoint, read from ``oracle_trace_maps``
    (which raises ``ContractError`` unless the complex is link-injective)."""
    graph = complex_.graph
    out, into = oracle_trace_maps(complex_)
    options: dict[int, list[tuple[int, int, int]]] = {v: [] for v in complex_.vertices}
    for (v, label), far in out.items():
        options[v].append((graph.index(label), 1, far))
    for (v, label), far in into.items():
        options[v].append((graph.index(label), -1, far))
    # Letter order: declaration index, positive sign first (the canonical
    # letter order used for lexicographic comparisons).
    for opts in options.values():
        opts.sort(key=lambda t: (t[0], -t[1]))
    return options, complex_.basepoint


def oracle_check_local_isometry(complex_: LabeledCubeComplex) -> LinkReport:
    """The link check on string labels: ends grouped by (label,
    orientation) from ``ends_at``, every pair of ends tested with
    ``graph.commutes``, and every square read by ``square_ends``."""
    graph = complex_.graph
    foldable = []
    unfilled = []
    corner_index = complex_.corner_index
    ends_at = oracle_ends_at(complex_)
    for v in complex_.vertices:
        ends = ends_at[v]
        by_slot: dict[tuple[str, int], list[int]] = {}
        for end in ends:
            by_slot.setdefault((complex_.end_label(end), end[1]), []).append(end[0])
        for (label, orientation), eids in sorted(by_slot.items()):
            if len(eids) > 1:
                foldable.append((v, label, orientation, tuple(sorted(eids))))
        for i in range(len(ends)):
            for j in range(i + 1, len(ends)):
                u = complex_.end_label(ends[i])
                w = complex_.end_label(ends[j])
                if u != w and graph.commutes(u, w):
                    corner = _corner(v, ends[i], ends[j])
                    if corner not in corner_index:
                        unfilled.append(corner)
    malformed = []
    for sq in complex_.squares:
        try:
            complex_.square_ends(sq)
        except InputError:
            malformed.append(sq)
    return LinkReport(foldable=tuple(foldable), unfilled=tuple(sorted(unfilled)),
                      malformed=tuple(sorted(malformed, key=sorted)))


def oracle_loops_by_length(complex_: LabeledCubeComplex, max_len: int,
                           node_budget: int | None = None
                           ) -> Iterator[tuple[int, list[tuple[tuple[int, int], ...]]]]:
    """The scan walk that ``iter_loops_by_length`` ran before its spelling
    automaton: per letter length, the basepoint loops spelled by canonical
    normal words, as syllable tuples over generator indices.

    Each node carries its syllable tuple, and an extension by a new
    syllable g is kept only when scanning back over the trailing syllables
    that commute with g meets neither g nor a larger generator.  The node
    count, the budget check and its ``partial_count`` are those of the
    production walk.
    """
    options, base = oracle_letter_options(complex_)
    comm = complex_.graph.comm_masks
    states: list[tuple[tuple[tuple[int, int], ...], int]] = [((), base)]
    yield 0, [()]
    nodes = 1
    emitted = 1
    for length in range(1, max_len + 1):
        next_states: list[tuple[tuple[tuple[int, int], ...], int]] = []
        loops: list[tuple[tuple[int, int], ...]] = []
        for syls, v in states:
            k = len(syls)
            last = syls[-1] if k else None
            for g, sign, far in options[v]:
                if last is not None and last[0] == g:
                    if (last[1] > 0) != (sign > 0):
                        continue
                    new_syls = syls[:-1] + ((g, last[1] + sign),)
                else:
                    ok = True
                    mask = comm[g]
                    for j in range(k - 1, -1, -1):
                        h = syls[j][0]
                        if h == g:
                            ok = False
                            break
                        if not (mask >> h) & 1:
                            break
                        if h > g:
                            ok = False
                            break
                    if not ok:
                        continue
                    new_syls = syls + ((g, sign),)
                nodes += 1
                if node_budget is not None and nodes > node_budget:
                    raise BudgetExceededError(
                        f"enumeration exceeded budget {node_budget}",
                        partial_count=emitted)
                next_states.append((new_syls, far))
                if far == base:
                    loops.append(new_syls)
                    emitted += 1
        yield length, loops
        states = next_states
        if not states:
            break


def oracle_certify_by_enumeration(core: SubgroupCore, model: SurfaceModel, max_len: int,
                                  budget: int) -> tuple[str, Pairs | None, int] | None:
    """The ell-ball sweep over a verified core: check every member up to
    ``max_len`` in increasing length order.

    Returns ``("refuted", witness, count)`` at the first nontrivial member
    whose cyclic reduction fails to fill (count includes the identity and
    the witness), ``("certified", None, count)`` when all fill, and None
    when the enumeration budget runs out first.
    """
    labels = core.graph.vertices
    count = 0
    try:
        for length, loops in oracle_loops_by_length(core.complex, max_len, node_budget=budget):
            for syls in loops:
                count += 1
                if length == 0:
                    continue
                support = cyclic_core_support(syls, core.graph)
                if not oracle_fills_subset({v for g, v in enumerate(labels) if support >> g & 1},
                                           model):
                    return "refuted", tuple((labels[g], e) for g, e in syls), count
    except BudgetExceededError:
        return None
    return "certified", None, count


def oracle_partial_stage_witness(complex_: LabeledCubeComplex, model: SurfaceModel,
                                 node_budget: int = 100_000) -> Pairs | None:
    """The decision ``certify`` made on a budget-exceeded stage before its
    chord-word check: walk the stage's basepoint loops in increasing length
    order up to 3(V+1), for at most ``node_budget`` nodes (100k, the old
    fixed search bound), and return the first nontrivial one whose cyclic
    reduction fails to fill; None when the walk ends or runs out first.
    """
    graph = complex_.graph
    labels = graph.vertices
    try:
        for length, loops in oracle_loops_by_length(complex_, 3 * (len(complex_.vertices) + 1),
                                                    node_budget=node_budget):
            for syls in loops:
                if length == 0:
                    continue
                support = cyclic_core_support(syls, graph)
                if not oracle_fills_subset({v for g, v in enumerate(labels) if support >> g & 1},
                                           model):
                    return tuple((labels[g], e) for g, e in syls)
    except BudgetExceededError:
        return None
    return None


def oracle_chord_words(complex_: LabeledCubeComplex, allowed: int = -1
                       ) -> Iterator[tuple[tuple[int, int], ...]]:
    """The chord words ``certify`` read before its forests kept parent
    pointers: the loop word path(src)*label*path(dst)^-1 of every chord of
    a spanning forest of the edges whose label index is a bit of
    ``allowed``, as index syllables, with path(v) the forest path from its
    root to v kept as a tuple per vertex.

    Roots are the basepoint, then the other vertices in order; each tree
    grows breadth first, taking a vertex's edge-ends by label index,
    orientation and edge id, re-sorted at every vertex of every forest.
    """
    index = complex_.graph._index
    ends_at = oracle_ends_at(complex_)
    path: dict[int, tuple[tuple[int, int], ...]] = {}
    tree: set[int] = set()
    for root in (complex_.basepoint, *complex_.vertices):
        if root in path:
            continue
        path[root] = ()
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for end in sorted(ends_at[v],
                              key=lambda end: (index[complex_.end_label(end)], end[1], end[0])):
                label = complex_.end_label(end)
                if not allowed >> index[label] & 1:
                    continue
                far = oracle_far_vertex(complex_, end)
                if far not in path:
                    path[far] = path[v] + ((index[label], 1 if end[1] == 0 else -1),)
                    tree.add(end[0])
                    queue.append(far)
    for eid, src, dst, label in complex_.edges:
        if eid not in tree and allowed >> index[label] & 1:
            yield path[src] + ((index[label], 1),) + tuple((g, -e) for g, e in reversed(path[dst]))


def oracle_forest_chords(complex_: LabeledCubeComplex, allowed: int = -1) -> list[int]:
    """The chords of the breadth-first spanning forest of the edges whose
    label index is a bit of ``allowed``: their positions in ``edges``, in
    order.  Roots are the basepoint, then the other vertices in order; each
    tree grows breadth first, taking a vertex's ends in the complex's
    ``adjacency`` order: by label index, orientation and edge id."""
    ends = complex_.adjacency
    index = complex_.graph._index
    takes = [allowed >> (key >> 1) & 1 for key in range(2 * len(index))]
    reached: set[int] = set()
    tree: set[int] = set()
    for root in (complex_.basepoint, *complex_.vertices):
        if root in reached:
            continue
        reached.add(root)
        queue = [root]
        for v in queue:
            for key, eid, far in ends[v]:
                if takes[key] and far not in reached:
                    reached.add(far)
                    tree.add(eid)
                    queue.append(far)
    return [i for i, (eid, _, _, label) in enumerate(complex_.edges)
            if allowed >> index[label] & 1 and eid not in tree]


def oracle_h1_vanishes(complex_: LabeledCubeComplex, allowed: int = -1) -> bool:
    """Whether the boundaries of the squares whose two labels lie in S (the
    labels of ``allowed``), read through ``oracle_square_edges``, span the
    cycle space of the S-edges, with the forest of ``oracle_forest_chords``
    contracted: each chord is one bit, each square the XOR of its four
    edges' bits, and the rows of the whole stage are reduced until they
    reach the number of chords or run out."""
    chords = oracle_forest_chords(complex_, allowed)
    bit = [0] * len(complex_.edges)
    for i, e in enumerate(chords):
        bit[e] = 1 << i
    basis: dict[int, int] = {}  # bit length -> reduced row
    for a, b, gamma, delta, la, lb in oracle_square_edges(complex_):
        if not (allowed >> la & 1 and allowed >> lb & 1):
            continue
        row = bit[a] ^ bit[b] ^ bit[gamma] ^ bit[delta]
        while row and row.bit_length() in basis:
            row ^= basis[row.bit_length()]
        if row:
            basis[row.bit_length()] = row
    return len(basis) == len(chords)


def oracle_h1_rank(complex_: LabeledCubeComplex, allowed: int = -1) -> int:
    """The dimension of H_1(S-subcomplex; GF(2)), for S the labels whose
    index is a bit of ``allowed``: the S-edges with every vertex, and the
    squares whose boundary edges all carry labels in S.

    That is the cycle rank E - V + c, less the rank of the square
    boundaries.  Components come from a union-find of its own, each square
    is read through ``square_ends``, and each boundary is a dense row over
    all S-edges (an edge met twice cancels), reduced against pivots on its
    lowest set bit; no forest is contracted and no word is spelled.
    """
    index = complex_.graph._index
    column = {eid: j for j, eid in enumerate(
        eid for eid, _, _, label in complex_.edges if allowed >> index[label] & 1)}
    root = {v: v for v in complex_.vertices}

    def find(v: int) -> int:
        while root[v] != v:
            v = root[v]
        return v

    components = len(root)
    for eid, src, dst, _ in complex_.edges:
        if eid in column and find(src) != find(dst):
            root[find(src)] = find(dst)
            components -= 1
    pivots: dict[int, int] = {}
    for sq in complex_.squares:
        boundary = complex_.square_ends(sq)
        if not all(end[0] in column for end in boundary):
            continue
        row = 0
        for eid, _ in boundary:
            row ^= 1 << column[eid]
        while row:
            low = row & -row
            if low not in pivots:
                pivots[low] = row
                break
            row ^= pivots[low]
    return len(column) - len(complex_.vertices) + components - len(pivots)


# -- label-level graph and subsurface checks ---------------------------------


def oracle_complement_diameter(graph: DefiningGraph) -> int:
    """Diameter of the complement graph, by BFS over the labels each label
    fails to ``commute`` with; raises if disconnected."""
    comp_adj = {v: [w for w in graph.vertices if not graph.commutes(v, w)]
                for v in graph.vertices}
    diameter = 0
    for source in graph.vertices:
        dist = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for v in frontier:
                for w in comp_adj[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        if len(dist) != len(graph.vertices):
            raise InputError("complement graph is disconnected; diameter undefined")
        diameter = max(diameter, max(dist.values()))
    return diameter


def oracle_subsurfaces_equal(a, b, graph: DefiningGraph) -> bool:
    """Two symbolic subsurfaces coincide when their bases agree and the
    normal form of b.prefix^-1 * a.prefix spells only labels of the base's
    star."""
    if a.base != b.base:
        return False
    diff = normalize(concat(invert(b.prefix.as_word()), a.prefix.as_word()), graph)
    star = graph.star(a.base)
    return all(s.generator in star for s in diff.syllables)


# -- filling on label sets --------------------------------------------------


def oracle_fills_subset(labels: Iterable[str], model: SurfaceModel) -> bool:
    """A label set fills when it contains a minimal filling set."""
    label_set = set(labels)
    return any(f <= label_set for f in model.minimal_filling_sets)


def oracle_fills(w: Word | NormalWord, model: SurfaceModel) -> bool:
    """Filling of an element, on the label support of its cyclic reduction."""
    _, core = cyclically_reduce(w, model.graph)
    return oracle_fills_subset((s.generator for s in core.syllables), model)


def oracle_short_product_witness(graph: DefiningGraph, model: SurfaceModel, gens: Sequence[Word],
                                 max_len: int) -> tuple[tuple[int, int], ...] | None:
    """The first product of at most ``max_len`` generators and inverses,
    freely reduced as a word in them, that is nontrivial and whose
    ``cyclic_core_support`` does not fill, as (generator position, sign)
    letters; None when there is none.  Products come by length, and each
    length in letter order: the first generator, its inverse, the second...

    Each product is spelled by concatenating its letters' index syllables.
    Such a product is a subgroup member that fails to fill, so it refutes
    the subgroup without a core: nothing here touches the fold/fill
    builder, its stages or its chord words.
    """
    index = {v: g for g, v in enumerate(graph.vertices)}
    spelled: dict[tuple[int, int], list[tuple[int, int]]] = {}  # in letter order
    for i, w in enumerate(gens):
        syls = [(index[letter.generator], letter.sign) for letter in w.letters]
        spelled[i, 1] = syls
        spelled[i, -1] = [(g, -e) for g, e in reversed(syls)]
    for length in range(1, max_len + 1):
        for product in product_of(spelled, repeat=length):
            if any(a == (b[0], -b[1]) for a, b in zip(product, product[1:])):
                continue  # not freely reduced
            support = cyclic_core_support(
                [syl for letter in product for syl in spelled[letter]], graph)
            if support and not oracle_fills_subset(
                    {v for v, g in index.items() if support >> g & 1}, model):
                return product
    return None


# -- ring-family checks: the slow paths the package replaced -----------------


def _ring_label(kind: str, t: int, n: int) -> str:
    return f"{kind}{((t - 1) % n) + 1}"


def _oracle_symbol_pairs(symbol: tuple[str, int], n: int) -> list[tuple[str, int]]:
    """One B/M/E symbol spelled in ring labels."""
    kind, k = symbol
    if kind == "B":
        return [(_ring_label("g", t, n), k) for t in range(1, n)]
    if kind == "E":
        return [(_ring_label("f", t, n), k) for t in range(2, n + 1)]
    if kind == "M":
        return [(_ring_label("f", 1, n), k), (_ring_label("g", n, n), k)]
    if kind == "Minv":
        return [(_ring_label("g", n, n), -k), (_ring_label("f", 1, n), -k)]
    raise InternalError(f"unknown symbol {symbol!r}")


def oracle_bme_normal_form(h, fam) -> NormalWord:
    """The B/M/E normal form spelled label by label from the merged symbol
    sequence, as the package did before it spelled index syllables."""
    if isinstance(h, str):
        h = ring.parse_h_word(h, fam.N)
    symbols = ring.h_word_symbols(tuple(h))
    return normal_word_from_pairs(
        [pair for sym in symbols for pair in _oracle_symbol_pairs(sym, fam.n)])


def oracle_bme_pairs(h, fam) -> list[tuple[int, int]]:
    """The B/M/E normal form of a freely reduced h-word as (vertex index,
    exponent) syllables, each symbol spelled from its kind's block of
    (vertex index, sign) syllables as it is read, as the package did before
    its per-family symbol table."""
    blocks = fam._blocks
    return [(z, sign * k) for kind, k in ring.h_word_symbols(h) for z, sign in blocks[kind]]


def naive_expansion(h, fam) -> list[tuple[str, int]]:
    """Concatenate generator spellings without any boundary merging."""
    out: list[tuple[str, int]] = []
    for idx, sign in h:
        if not 1 <= idx <= fam.N:
            raise InputError(f"generator index {idx} out of range 1..{fam.N}")
        pairs = list(fam.generators[idx - 1].pairs())
        if sign < 0:
            pairs = [(g, -e) for g, e in reversed(pairs)]
        out.extend(pairs)
    return out



def oracle_find_filling_blocks(w: NormalWord, model: SurfaceModel) -> tuple[FillingBlock, ...]:
    """All inclusion-minimal consecutive syllable ranges whose supports fill."""
    if not is_normal(w, model.graph):
        raise ContractError(f"find_filling_blocks requires a normal word, got {w.to_text()!r}")
    n = len(w.syllables)
    gens = [s.generator for s in w.syllables]
    candidates: list[tuple[int, int]] = []
    for i in range(n):
        seen: set[str] = set()
        for j in range(i, n):
            seen.add(gens[j])
            if oracle_fills_subset(seen, model):
                candidates.append((i, j))
                break
    minimal: list[tuple[int, int]] = []
    best_end = None
    for i, j in sorted(candidates, reverse=True):
        if best_end is None or j < best_end:
            minimal.append((i, j))
            best_end = j
    minimal.reverse()
    return tuple(FillingBlock(word=w, start=i, end=j) for i, j in minimal)


def oracle_check_window_property(w: NormalWord, window: int, model: SurfaceModel) -> bool:
    """Every contiguous letter window of the given length contains a complete
    filling block.  Vacuously true when the word is shorter than the window."""
    if window < 1:
        raise InputError(f"window length must be >= 1, got {window}")
    total = w.letter_length
    if total < window:
        return True
    offsets = [0, *accumulate(abs(s.exponent) for s in w.syllables)]
    spans = [(offsets[b.start], offsets[b.end + 1])
             for b in oracle_find_filling_blocks(w, model)]
    for p in range(0, total - window + 1):
        hi = p + window
        if not any(p <= a and b <= hi for a, b in spans):
            return False
    return True


# -- the ring's tuple support rule ---------------------------------------------
# A support is ("X", i) for the torus X_i or ("Y", i) for the sphere Y_i,
# i mod n; disjointness comes from the ring geometry, not from the graph.

Support = tuple[str, int]


class TupleSpanState(NamedTuple):
    """A span state on tuple supports: supports whose span contains the
    curve, plus supports it is known to miss."""

    contained_in: frozenset[Support]
    misses: frozenset[Support]

    def is_proper(self, n: int) -> bool:
        return len(self.contained_in) < 2 * n


def support_of(label: str, n: int) -> Support:
    m = re.match(r"^([fg])(\d+)$", label)
    if m is None:
        raise InputError(f"label {label!r} is not a ring generator")
    kind = "X" if m.group(1) == "f" else "Y"
    return (kind, int(m.group(2)) % n)


def supports_disjoint(a: Support, b: Support, n: int) -> bool:
    """Ring disjointness: like kinds are disjoint when distinct; an X_i meets
    exactly Y_{i-1} and Y_i."""
    if a == b:
        return False
    if a[0] == b[0]:
        return True
    (_, i), (_, j) = (a, b) if a[0] == "X" else (b, a)
    return j % n not in ((i - 1) % n, i % n)


def oracle_span_step(state: TupleSpanState, z: Support, n: int) -> TupleSpanState:
    """The one-letter span rule on the letter's tuple support."""
    if z in state.misses:
        return state
    if all(supports_disjoint(z, w, n) for w in state.contained_in):
        return state
    return TupleSpanState(contained_in=state.contained_in | {z}, misses=frozenset())


def xbar_labels(k: int, n: int) -> frozenset[Support]:
    """Span container reached from the X-side after k steps."""
    xs = {("X", i % n) for i in range(-k + 1, k)}
    ys = {("Y", j % n) for j in range(-k + 1, k - 1)}
    return frozenset(xs | ys)


def ybar_labels(k: int, n: int) -> frozenset[Support]:
    ys = {("Y", i % n) for i in range(-k + 1, k + 1)}
    xs = {("X", j % n) for j in range(-k + 2, k + 1)}
    return frozenset(ys | xs)


def oracle_alpha_state(n: int) -> TupleSpanState:
    """The tracked curve: inside Y_0, missing X_0 and X_1."""
    return TupleSpanState(contained_in=frozenset({("Y", 0)}),
                          misses=frozenset({("X", 0), ("X", 1 % n)}))


def support_mask(supports: Iterable[Support], fam) -> int:
    """The package's vertex-index bitmask of a set of tuple supports."""
    index = {support_of(v, fam.n): i for i, v in enumerate(fam.graph.vertices)}
    return sum(1 << index[z] for z in set(supports))


def mask_supports(mask: int, fam) -> frozenset[Support]:
    """The tuple supports of the package's vertex-index bitmask."""
    return frozenset(support_of(v, fam.n) for i, v in enumerate(fam.graph.vertices)
                     if mask >> i & 1)


def mask_state(state: TupleSpanState, fam) -> "ring.SpanState":
    """The package's span state for a tuple-support state."""
    return ring.SpanState(contained_in=support_mask(state.contained_in, fam),
                          misses=support_mask(state.misses, fam))


def oracle_span_apply_h(state: TupleSpanState, h, fam) -> TupleSpanState:
    """Apply an h-word generator by generator, rightmost generator first,
    re-spelling every generator and applying the tuple rule letter by
    letter."""
    for gen in reversed(h):
        for label, _ in reversed(naive_expansion((gen,), fam)):
            state = oracle_span_step(state, support_of(label, fam.n), fam.n)
    return state


def oracle_verify_star(fam, k_max: int, start: TupleSpanState | None = None):
    """The star sweep on ``oracle_span_apply_h``, containers rebuilt per
    word, from ``start`` (the tracked curve by default)."""
    if k_max > fam.n / 2:
        raise ContractError(
            f"k_max={k_max} exceeds n/2={fam.n / 2}; containers stop being proper")
    if k_max < 0:
        raise InputError("k_max must be >= 0")
    alpha = start or oracle_alpha_state(fam.n)
    tested = 0
    violations: list[tuple[str, str]] = []
    all_proper = True
    for h in ring._h_words_upto(fam.N, k_max):
        state = oracle_span_apply_h(alpha, h, fam)
        k = max(2, len(h))
        tested += 1
        contained = (state.contained_in <= xbar_labels(k, fam.n)
                     or state.contained_in <= ybar_labels(k, fam.n))
        if not contained:
            violations.append((ring.h_word_text(h), f"span escapes both step-{k} containers"))
        if not state.is_proper(fam.n):
            all_proper = False
            violations.append((ring.h_word_text(h), "span is the whole surface"))
    return ring.StarReport(tested=tested, violations=tuple(violations), all_proper=all_proper)


def oracle_displacement_upper(h, fam) -> tuple[int, Fraction]:
    """The block displacement bound on ``oracle_span_apply_h``.  Any improper
    block span raises ``InternalError``, whatever the block's length."""
    if isinstance(h, str):
        h = ring.parse_h_word(h, fam.N)
    h = tuple(h)
    ring._require_reduced(h)
    n = fam.n
    length = len(h)
    m = (2 * length + n - 1) // n  # largest integer < |h|*2/n + 1
    if m > 0:
        base_size, extra = divmod(length, m)
        blocks = []
        pos = 0
        for t in range(m):
            size = base_size + (1 if t < extra else 0)
            blocks.append(h[pos:pos + size])
            pos += size
        alpha = oracle_alpha_state(n)
        for block in blocks:
            state = oracle_span_apply_h(alpha, block, fam)
            if not state.is_proper(n):
                raise InternalError(
                    f"block {ring.h_word_text(block)!r} produced an improper span")
    bound = Fraction(2 * m)
    formula_cap = Fraction(4 * length, n) + 2
    if bound > formula_cap:
        raise InternalError("block bound exceeded the displacement formula")
    return m, bound


def oracle_verify_order_window(fam, hs):
    """Every syllable pair at least L + 1 apart, tested with ``comparable``."""
    L = ring.constants(fam).L
    tested = 0
    violations: list[tuple[str, int, int]] = []
    for h in hs:
        if isinstance(h, str):
            h = ring.parse_h_word(h, fam.N)
        word = ring.bme_normal_form(h, fam)
        tested += 1
        order = syllable_order(word, fam.graph)
        k = len(word.syllables)
        for i in range(k):
            for j in range(i + L + 1, k):
                if not order.comparable(i, j):
                    violations.append((ring.h_word_text(h), i, j))
    return ring.OrderWindowReport(tested=tested, violations=tuple(violations))


class _OracleBuilder:
    """Mutable fold/fill state with union-find over vertices and edges."""

    def __init__(self, graph: DefiningGraph, rng: Random | None):
        self.graph = graph
        self.rng = rng
        self.vparent: dict[int, int] = {}
        self.eparent: dict[int, int] = {}
        self.edges: dict[int, tuple[int, int, str]] = {}
        self.incident: dict[int, set[int]] = {}
        self.squares: list[Square] = []
        self.filled: set[Corner] = set()
        self.next_vertex = 0
        self.next_edge = 0
        self.n_vertices = 0
        self.n_edges = 0
        self.folds = 0
        self.squares_added = 0
        self.dirty: deque[int] = deque()
        self.corner_dirty: set[int] = set()

    # -- union-find ---------------------------------------------------------

    def vfind(self, v: int) -> int:
        root = v
        while self.vparent[root] != root:
            root = self.vparent[root]
        while self.vparent[v] != root:
            self.vparent[v], v = root, self.vparent[v]
        return root

    def efind(self, e: int) -> int:
        root = e
        while self.eparent[root] != root:
            root = self.eparent[root]
        while self.eparent[e] != root:
            self.eparent[e], e = root, self.eparent[e]
        return root

    def new_vertex(self) -> int:
        v = self.next_vertex
        self.next_vertex += 1
        self.vparent[v] = v
        self.incident[v] = set()
        self.n_vertices += 1
        self.corner_dirty.add(v)
        return v

    def new_edge(self, src: int, dst: int, label: str) -> int:
        e = self.next_edge
        self.next_edge += 1
        self.eparent[e] = e
        self.edges[e] = (src, dst, label)
        self.incident[self.vfind(src)].add(e)
        self.incident[self.vfind(dst)].add(e)
        self.n_edges += 1
        self.corner_dirty.add(self.vfind(src))
        self.corner_dirty.add(self.vfind(dst))
        return e

    def union_vertices(self, a: int, b: int) -> int:
        a, b = self.vfind(a), self.vfind(b)
        if a == b:
            return a
        if len(self.incident[a]) < len(self.incident[b]):
            a, b = b, a
        self.vparent[b] = a
        self.incident[a] |= self.incident.pop(b)
        self.n_vertices -= 1
        self.dirty.append(a)
        self.corner_dirty.add(a)
        return a

    def union_edges(self, keep: int, drop: int) -> None:
        keep, drop = self.efind(keep), self.efind(drop)
        if keep == drop:
            return
        self.eparent[drop] = keep
        self.n_edges -= 1

    def live_ends(self, v: int) -> list[End]:
        """Canonical edge-ends currently incident to a canonical vertex."""
        v = self.vfind(v)
        seen: set[int] = set()
        out: list[End] = []
        stale: list[int] = []
        for raw in self.incident[v]:
            ce = self.efind(raw)
            if ce in seen:
                continue
            seen.add(ce)
            src, dst, _ = self.edges[ce]
            here = False
            if self.vfind(src) == v:
                out.append((ce, 0))
                here = True
            if self.vfind(dst) == v:
                out.append((ce, 1))
                here = True
            if not here:
                stale.append(raw)
        for raw in stale:
            self.incident[v].discard(raw)
        return sorted(out)

    def end_far(self, end: End) -> int:
        src, dst, _ = self.edges[self.efind(end[0])]
        return self.vfind(dst if end[1] == 0 else src)

    def end_label(self, end: End) -> str:
        return self.edges[self.efind(end[0])][2]

    # -- folding ------------------------------------------------------------

    def fold_all(self) -> None:
        folded = False
        while self.dirty:
            if self.rng is not None and len(self.dirty) > 1:
                idx = self.rng.randrange(len(self.dirty))
                self.dirty[0], self.dirty[idx] = self.dirty[idx], self.dirty[0]
            v = self.vfind(self.dirty.popleft())
            slots: dict[tuple[str, int], End] = {}
            refold = False
            for end in self.live_ends(v):
                key = (self.end_label(end), end[1])
                if key in slots:
                    self._fold_pair(slots[key], end)
                    refold = folded = True
                    break
                slots[key] = end
            if refold:
                self.dirty.append(v)
        if folded:
            # Folding changes canonical ids, so refresh the filled-corner set.
            self.filled = {self.canonical_corner(c) for c in self.filled}

    def _fold_pair(self, e1: End, e2: End) -> None:
        keep, drop = self.efind(e1[0]), self.efind(e2[0])
        if keep == drop:
            return
        far1 = self.end_far(e1)
        far2 = self.end_far(e2)
        self.union_edges(keep, drop)
        self.folds += 1
        self.corner_dirty.add(self.vfind(far1))
        self.corner_dirty.add(self.vfind(far2))
        if far1 != far2:
            root = self.union_vertices(far1, far2)
            self.dirty.append(root)
        else:
            self.dirty.append(far1)

    # -- square filling -----------------------------------------------------

    def canonical_corner(self, corner: Corner) -> Corner:
        v, (a, b) = corner
        return _corner(self.vfind(v), (self.efind(a[0]), a[1]), (self.efind(b[0]), b[1]))

    def fill_pass(self) -> bool:
        """Attach a square at every unfilled commuting corner of a dirty vertex."""
        commutes = self.graph.commutes
        targets: list[tuple[int, End, End]] = []
        vertex_list = sorted({self.vfind(v) for v in self.corner_dirty if self.vfind(v) in self.incident})
        self.corner_dirty.clear()
        if self.rng is not None:
            self.rng.shuffle(vertex_list)
        for v in vertex_list:
            ends = self.live_ends(v)
            for i in range(len(ends)):
                for j in range(i + 1, len(ends)):
                    u = self.end_label(ends[i])
                    w = self.end_label(ends[j])
                    if u != w and commutes(u, w):
                        corner = _corner(v, ends[i], ends[j])
                        if corner not in self.filled:
                            targets.append((v, ends[i], ends[j]))
                            self.filled.add(corner)
        for v, a, b in targets:
            self._attach_square(v, a, b)
        return bool(targets)

    def _attach_square(self, v: int, a: End, b: End) -> None:
        """Close the corner (v, a, b) with a square.

        The completing edges carry the other label with the same orientation
        relative to their vertex as the corner's edge-ends have at v.  A fresh
        opposite vertex (and both completing edges) is created unless both
        already exist and agree on the opposite vertex; any duplicates this
        creates are removed by the next fold pass.
        """
        a = (self.efind(a[0]), a[1])
        b = (self.efind(b[0]), b[1])
        label_a = self.end_label(a)
        label_b = self.end_label(b)
        far_a = self.end_far(a)  # corner of the square across edge a
        far_b = self.end_far(b)
        gamma = self._find_end(far_a, label_b, b[1])
        delta = self._find_end(far_b, label_a, a[1])
        if gamma is not None and delta is not None and self.end_far(gamma) == self.end_far(delta):
            opposite = self.end_far(gamma)
        else:
            opposite = self.new_vertex()
            eg = self.new_edge(far_a if b[1] == 0 else opposite,
                               opposite if b[1] == 0 else far_a, label_b)
            ed = self.new_edge(far_b if a[1] == 0 else opposite,
                               opposite if a[1] == 0 else far_b, label_a)
            gamma = (eg, b[1])
            delta = (ed, a[1])
            self.dirty.append(far_a)
            self.dirty.append(far_b)
        corners = frozenset({
            _corner(v, a, b),
            _corner(far_a, (a[0], 1 - a[1]), gamma),
            _corner(far_b, (b[0], 1 - b[1]), delta),
            _corner(opposite, (gamma[0], 1 - gamma[1]), (delta[0], 1 - delta[1])),
        })
        self.squares.append(corners)
        self.squares_added += 1
        for corner in corners:
            self.filled.add(self.canonical_corner(corner))
            self.corner_dirty.add(self.vfind(corner[0]))

    def _find_end(self, v: int, label: str, orientation: int) -> End | None:
        for end in self.live_ends(v):
            if end[1] == orientation and self.end_label(end) == label:
                return end
        return None

    # -- assembly -----------------------------------------------------------

    @property
    def cell_count(self) -> int:
        """The cells as the frozen complex counts them: raw squares that
        folding made equal are one square, so the squares are the filled
        corners over four."""
        return self.n_vertices + self.n_edges + len(self.filled) // 4

    def freeze(self, basepoint: int, status: str) -> LabeledCubeComplex:
        vmap = {}
        for raw in list(self.vparent):
            root = self.vfind(raw)
            if root not in vmap:
                vmap[root] = len(vmap)
        emap = {}
        edges = []
        for raw in list(self.eparent):
            root = self.efind(raw)
            if root in emap:
                continue
            emap[root] = len(emap)
            src, dst, label = self.edges[root]
            edges.append((emap[root], vmap[self.vfind(src)], vmap[self.vfind(dst)], label))
        squares = frozenset(
            frozenset(
                _corner(vmap[self.vfind(cv)],
                        (emap[self.efind(ca[0])], ca[1]),
                        (emap[self.efind(cb[0])], cb[1]))
                for cv, (ca, cb) in sq
            )
            for sq in self.squares
        )
        complex_ = LabeledCubeComplex(
            graph=self.graph,
            vertices=tuple(range(len(vmap))),
            edges=tuple(sorted(edges)),
            squares=squares,
            basepoint=vmap[self.vfind(basepoint)],
        )
        if status == VERIFIED:
            complex_ = oracle_canonical_form(complex_)
        return complex_


def oracle_build_core(graph: DefiningGraph, generators: Sequence[Word], budget: int = 100_000,
               extend: LabeledCubeComplex | None = None,
               rng: Random | None = None) -> SubgroupCore:
    """The fold-and-fill construction that ``build_core`` ran before its end
    tables: string labels, rescanned and sorted incidence sets, and a filled
    set recanonicalised after every fold round.

    Stabilization within budget yields a verified local isometry; exhausting
    the budget yields an inconclusive core carrying partial diagnostics.
    ``extend`` seeds the construction with an existing complex instead of a
    bare basepoint.  ``rng`` randomizes processing order (the result is
    independent of it; used by confluence tests).
    """
    if not generators:
        raise InputError("build_core requires at least one generator word")
    if budget <= 0:
        raise InputError("budget must be positive")
    builder = _OracleBuilder(graph, rng)
    if extend is not None:
        vmap = {v: builder.new_vertex() for v in extend.vertices}
        emap = {}
        for eid, src, dst, label in extend.edges:
            emap[eid] = builder.new_edge(vmap[src], vmap[dst], label)
        for sq in extend.squares:
            imported = frozenset(
                _corner(vmap[cv], (emap[ca[0]], ca[1]), (emap[cb[0]], cb[1]))
                for cv, (ca, cb) in sq
            )
            builder.squares.append(imported)
            builder.filled.update(imported)
        basepoint = vmap[extend.basepoint]
    else:
        basepoint = builder.new_vertex()
    for word in generators:
        letters = word.letters if isinstance(word, Word) else tuple(word)
        for gen, _ in letters:
            graph.require_vertex(gen)
        if not letters:
            continue
        current = basepoint
        for i, (gen, sign) in enumerate(letters):
            nxt = basepoint if i == len(letters) - 1 else builder.new_vertex()
            if sign > 0:
                builder.new_edge(current, nxt, gen)
            else:
                builder.new_edge(nxt, current, gen)
            current = nxt
    builder.dirty.extend(list(builder.incident.keys()))
    builder.fold_all()
    status = VERIFIED
    while True:
        if builder.cell_count > budget:
            status = BUDGET_EXCEEDED
            break
        if not builder.fill_pass():
            break
        builder.fold_all()
    complex_ = builder.freeze(basepoint, status)
    diagnostics = {
        "folds": builder.folds,
        "squares_added": builder.squares_added,
        "cells": len(complex_.vertices) + len(complex_.edges) + len(complex_.squares),
        "vertex_count": len(complex_.vertices),
        "edge_count": len(complex_.edges),
        "square_count": len(complex_.squares),
        "budget": budget,
    }
    if status == VERIFIED:
        report = oracle_check_local_isometry(complex_)
        if not report.ok:
            raise InternalError(f"stabilized complex failed the link check: {report}")
    return SubgroupCore(complex=complex_, status=status, diagnostics=diagnostics)


class PairScanBuilder(_Builder):
    """``_Builder`` with its fill scan as it ran before the graph's corner
    table: each dirty vertex's table keys sorted and every later key tested
    against each commuting key, and each fresh opposite vertex left dirty
    for the next pass to scan again."""

    def fill_pass(self) -> bool:
        comm, width = self.graph.comm_masks, self.graph._corners.width
        vertices = sorted({self.vfind(v) for v in self.dirty})
        self.dirty.clear()
        targets: list[tuple[int, int, int]] = []
        for v in vertices:
            keys = sorted(self.ends[v])
            for i, ka in enumerate(keys):
                commuting = comm[ka >> 1]
                if not commuting:
                    continue
                for kb in keys[i + 1:]:
                    bit = 1 << (ka * width + kb)
                    if commuting >> (kb >> 1) & 1 and not self.filled[v] & bit:
                        self.filled[v] |= bit
                        targets.append((v, ka, kb))
        for v, ka, kb in targets:
            self._attach_square(v, ka, kb)
        return bool(targets)

    def _attach_square(self, v: int, ka: int, kb: int) -> None:
        fresh = len(self.vparent)
        super()._attach_square(v, ka, kb)
        self.dirty.update(range(fresh, len(self.vparent)))
