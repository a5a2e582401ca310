from __future__ import annotations

import dataclasses
import itertools
import pickle
import random
import sys
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from raagcc import words
from raagcc.certify import certify
from raagcc.complexes import build_core, membership
from raagcc.errors import BudgetExceededError, ContractError, InputError
from raagcc.family import family
from raagcc.graphs import DefiningGraph
from raagcc.surfaces import (SurfaceModel, check_window_property, fills,
                             find_filling_blocks, subs)
from raagcc.words import (
    EPSILON,
    Word,
    concat,
    cyclically_reduce,
    invert,
    is_normal,
    min_class,
    normal_word_from_pairs,
    normalize,
    parse_word,
    subword_decompose,
    syllable_order,
    word_from_pairs,
)

import oracles
from conftest import GRAPH_ZOO

RING = family(4, 1).graph


def nw(pairs):
    return normal_word_from_pairs(pairs)


def random_normal_pairs(rng: random.Random, graph: DefiningGraph, syllables: int):
    """A random normal word of exactly ``syllables`` syllables, drawn one
    syllable at a time under the rule ``is_normal`` checks (the graph must
    not be complete, or the draw can run out of syllables)."""
    labels = graph.vertices
    noncomm = graph.non_commuting
    on_top = [False] * len(labels)
    pairs = []
    while len(pairs) < syllables:
        g = rng.randrange(len(labels))
        if on_top[g]:
            continue
        pairs.append((labels[g], rng.choice((1, -1, 2, -2))))
        on_top[g] = True
        for h in noncomm[g]:
            on_top[h] = False
    return pairs


def random_unordered_window(rng: random.Random, graph: DefiningGraph, length: int):
    """A random normal word of at most ``length`` syllables whose first and
    last syllables are unordered, or None when no two generators commute.

    Each drawn syllable keeps the word normal and, when the first syllable
    precedes it, commutes with the last syllable's generator; the draw stops
    at ``length - 1`` syllables or after 100 misses in a row.
    """
    comm, noncomm = graph.comm_masks, graph.non_commuting
    n = len(comm)
    ends = [(i, j) for i in range(n) for j in range(n) if i != j and comm[i] >> j & 1]
    if not ends:
        return None
    p, q = rng.choice(ends)
    window = [(p, rng.choice((1, -1)))]
    on_top = [False] * n
    on_top[p] = True
    reached = 1 << p  # generators of the syllables the first one precedes, and its own
    misses = 0
    while len(window) < length - 1 and misses < 100:
        g = rng.randrange(n)
        after_p = reached & ~comm[g]
        if on_top[g] or (after_p and not comm[q] >> g & 1):
            misses += 1
            continue
        misses = 0
        if after_p:
            reached |= 1 << g
        window.append((g, rng.choice((1, -1, 2, -2))))
        on_top[g] = True
        for h in noncomm[g]:
            on_top[h] = False

    def q_on_top() -> bool:
        for g, _ in reversed(window):
            if g == q:
                return True
            if not comm[q] >> g & 1:
                return False
        return False

    while q_on_top():  # the last syllable would merge into an earlier q
        window.pop()
    window.append((q, rng.choice((1, -1))))
    labels = graph.vertices
    return [(labels[g], e) for g, e in window]


# -- parsing and plumbing ----------------------------------------------------

def test_parse_word_tokens(abc_graph):
    w = parse_word("a b^-2 c", abc_graph)
    assert [(l.generator, l.sign) for l in w.letters] == [
        ("a", 1), ("b", -1), ("b", -1), ("c", 1)]
    assert w.to_text() == "a b^-2 c" and repr(w) == "Word('a b^-2 c')"


def test_parse_word_reads_back_normal_words():
    """``parse_word`` reads a normal word's text back to its letters, and
    both expand each syllable g^e into |e| letters g of the sign of e."""
    rng = random.Random(43)
    for graph in GRAPH_ZOO:
        for _ in range(60):
            pairs = [(rng.choice(graph.vertices), rng.choice((1, -1, 2, -3)))
                     for _ in range(rng.randrange(0, 9))]
            w = normalize(word_from_pairs(pairs), graph)
            expanded = tuple((g, 1 if e > 0 else -1) for g, e in w.pairs() for _ in range(abs(e)))
            assert parse_word(w.to_text(), graph).letters == w.letters() == expanded, w


def test_parse_word_rejects_unknown_and_zero(abc_graph):
    with pytest.raises(InputError):
        parse_word("a z", abc_graph)
    with pytest.raises(InputError):
        parse_word("a^0", abc_graph)
    with pytest.raises(InputError):
        parse_word("a^", abc_graph)


def test_concat_invert_are_free_monoid_ops(abc_graph):
    a = parse_word("a", abc_graph)
    b = parse_word("b", abc_graph)
    assert concat(a, b).to_text() == "a b"
    ab = parse_word("a b", abc_graph)
    assert invert(ab).to_text() == "b^-1 a^-1"


# -- normalize ----------------------------------------------------------------

def test_normalize_free_cancellation(abc_graph):
    assert normalize(parse_word("a a^-1", abc_graph), abc_graph) == EPSILON


def test_normalize_path_graph_example(path_graph):
    # The four-syllable word stays four syllables; the canonical member of
    # its class under declaration order a<b<c<d is "a b c d".
    result = normalize(parse_word("a c b d", path_graph), path_graph)
    assert result.syllable_length == 4
    assert result.letter_length == 4
    assert result.to_text() == "a b c d"


def test_normalize_unknown_generator(abc_graph):
    with pytest.raises(InputError):
        normalize(word_from_pairs([("z", 1)]), abc_graph)
    # is_normal names the first unknown label, before any normality test.
    for w in (normal_word_from_pairs([("a", 1), ("a", 1), ("z", 1), ("y", 1)]),
              word_from_pairs([("a", 1), ("a", 0), ("z", 1), ("y", 1)])):
        with pytest.raises(InputError, match="unknown generator 'z'"):
            is_normal(w, abc_graph)


def test_normalize_idempotent_and_canonical_is_least(abc_graph):
    rng = random.Random(7)
    labels = abc_graph.vertices
    for _ in range(200):
        pairs = [(rng.choice(labels), rng.choice((1, -1, 2, -2)))
                 for _ in range(rng.randrange(0, 7))]
        result = normalize(word_from_pairs(pairs), abc_graph)
        assert is_normal(result, abc_graph)
        assert normalize(result, abc_graph) == result
        cls = min_class(result, abc_graph)
        assert cls[0] == result  # min_class sorts by the canonical letter order


def test_geodesic_length_exhaustive_two_generators():
    """Every word of length at most 6 over both two-generator groups (free
    and abelian) normalizes to the oracle geodesic length."""
    import itertools
    for edges in ([], [("a", "b")]):
        graph = DefiningGraph.build("ab", edges)
        alphabet = [("a", 1), ("a", -1), ("b", 1), ("b", -1)]
        for n in range(0, 7):
            for combo in itertools.product(alphabet, repeat=n):
                expected = oracles.oracle_geodesic_length(combo, graph)
                got = normalize(word_from_pairs(combo), graph).letter_length
                assert got == expected, (edges, combo)


def test_geodesic_length_matches_move_closure_oracle():
    rng = random.Random(11)
    for graph in GRAPH_ZOO:
        labels = graph.vertices
        for _ in range(60):
            length = rng.randrange(0, 9)
            pairs = tuple((rng.choice(labels), rng.choice((1, -1))) for _ in range(length))
            expected = oracles.oracle_geodesic_length(pairs, graph)
            got = normalize(word_from_pairs(pairs), graph).letter_length
            assert got == expected, (graph.vertices, pairs)


# -- min_class ----------------------------------------------------------------

def test_min_class_path_graph_example(path_graph):
    words = min_class(parse_word("a c b d", path_graph), path_graph)
    texts = {w.to_text() for w in words}
    assert texts == {"a c b d", "a b c d", "b a c d", "a b d c", "b a d c"}
    assert len(words) == 5


def test_min_class_single_syllable(abc_graph):
    words = min_class(parse_word("a^3", abc_graph), abc_graph)
    assert [w.to_text() for w in words] == ["a^3"]


def test_min_class_budget(abc_graph):
    big = DefiningGraph.build(
        "abcdef", [(u, v) for i, u in enumerate("abcdef") for v in "abcdef"[i + 1:]])
    w = word_from_pairs([(g, 1) for g in "abcdef"])
    with pytest.raises(BudgetExceededError):
        min_class(w, big, max_size=10)


def test_min_class_rejects_a_nonpositive_budget(abc_graph):
    # A budget of 0 once returned a one-word class, or reported "exceeds budget 0".
    for word, size in itertools.product(("a", "b c"), (0, -1)):
        with pytest.raises(InputError, match="max_size must be positive"):
            min_class(parse_word(word, abc_graph), abc_graph, max_size=size)


def test_min_class_sizes_match_linear_extensions(abc_graph):
    checked = 0
    for pairs in oracles.normal_words_upto(abc_graph, 6):
        word = nw(pairs)
        order = syllable_order(word, abc_graph)
        expected = oracles.count_linear_extensions(len(pairs), order.pairs)
        assert len(min_class(word, abc_graph)) == expected, pairs
        checked += 1
    assert checked > 1000


# -- syllable order -------------------------------------------------------------

def test_syllable_order_path_graph_example(path_graph):
    word = nw([("a", 1), ("c", 1), ("b", 1), ("d", 1)])
    order = syllable_order(word, path_graph)
    assert order.pairs == frozenset({(0, 1), (0, 3), (2, 3)})
    assert order.generator_pairs() == frozenset({("a", "c"), ("a", "d"), ("b", "d")})


def test_syllable_order_single_syllable(abc_graph):
    assert syllable_order(nw([("a", 2)]), abc_graph).pairs == frozenset()


def test_syllable_order_requires_normal(abc_graph):
    with pytest.raises(ContractError):
        syllable_order(nw([("a", 1), ("a", 1)]), abc_graph)


def test_order_matches_every_representative_exhaustively(abc_graph):
    for graph, max_letters in [(abc_graph, 6)] + [(g, 4) for g in GRAPH_ZOO]:
        for pairs in oracles.normal_words_upto(graph, max_letters):
            got = syllable_order(nw(pairs), graph).pairs
            expected = oracles.oracle_order_pairs(pairs, graph)
            assert got == expected, (graph.vertices, pairs)


def test_out_of_range_positions_are_unordered(abc_graph, path_graph):
    words = [(path_graph, [("a", 1), ("c", 1), ("b", 1), ("d", 1)]), (abc_graph, [("a", 2)]),
             (abc_graph, [])]
    rng = random.Random(12)
    for graph in GRAPH_ZOO + [RING]:
        raw = [(rng.choice(graph.vertices), rng.choice((1, -1))) for _ in range(10)]
        words.append((graph, list(normalize(word_from_pairs(raw), graph).pairs())))
    for graph, pairs in words:
        order = syllable_order(nw(pairs), graph)
        k = len(pairs)
        for i in range(-2, k + 2):
            for j in range(-2, k + 2):
                assert order.precedes(i, j) == ((i, j) in order.pairs), (pairs, i, j)
                assert order.comparable(i, j) == (
                    (i, j) in order.pairs or (j, i) in order.pairs), (pairs, i, j)


@pytest.mark.parametrize("position", [0.9, 1.0, "0", True, False, None, (0,)])
def test_a_position_that_is_no_syllable_or_int_is_refused(path_graph, position):
    """A float, a string or a bool is not read as a position: ``int`` would
    truncate it, reading ``comparable(0.9, 1)`` as ``comparable(0, 1)``."""
    word = nw([("a", 1), ("c", 1), ("b", 1), ("d", 1)])
    order = syllable_order(word, path_graph)
    message = f"a syllable position must be a Syllable or an int, got {position!r}"
    for call in (lambda: order.comparable(position, 1), lambda: order.comparable(1, position),
                 lambda: order.precedes(position, 3), lambda: order.precedes(0, position),
                 lambda: subword_decompose(word, position, 3, path_graph),
                 lambda: subword_decompose(word, 0, position, path_graph)):
        with pytest.raises(ContractError) as info:
            call()
        assert str(info.value) == message
    with pytest.raises(ContractError):
        subword_decompose(word, 0.5, 3.9, path_graph)
    assert order.comparable(word.syllables[0], 1) and order.precedes(0, word.syllables[3])


def test_order_of_long_words_stays_within_budget():
    """A 4,096-syllable order is predecessor bitmasks, not position pairs:
    building it and testing every adjacent pair takes milliseconds and about
    a megabyte, where spelling the pairs took seconds and gigabytes."""
    word = nw(random_normal_pairs(random.Random(4096), RING, 4096))

    def run():
        order = syllable_order(word, RING)
        return order, [order.comparable(i, i + 1) for i in range(4095)]

    start = time.perf_counter()
    order, adjacent = run()
    assert time.perf_counter() - start < 2.0
    assert "pairs" not in vars(order)  # never spelled out
    assert any(adjacent) and not all(adjacent)
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 1024 * 1024


def test_subwords_of_normal_words_are_normal(abc_graph):
    for pairs in oracles.normal_words_upto(abc_graph, 5):
        for i in range(len(pairs)):
            for j in range(i + 1, len(pairs) + 1):
                assert is_normal(nw(pairs[i:j]), abc_graph)


# -- cyclic reduction -----------------------------------------------------------

def test_cyclically_reduce_conjugate(abc_graph):
    conj, core = cyclically_reduce(parse_word("a b a^-1", abc_graph), abc_graph)
    assert conj.to_text() == "a"
    assert core.to_text() == "b"


def test_cyclically_reduce_already_reduced(abc_graph):
    conj, core = cyclically_reduce(parse_word("b c a", abc_graph), abc_graph)
    assert conj == EPSILON
    assert core.to_text() == "b c a"


def test_cyclic_reduction_contract_and_minimality(abc_graph):
    rng = random.Random(3)
    labels = abc_graph.vertices
    for _ in range(120):
        pairs = [(rng.choice(labels), rng.choice((1, -1)))
                 for _ in range(rng.randrange(0, 7))]
        w = word_from_pairs(pairs)
        conj, core = cyclically_reduce(w, abc_graph)
        rebuilt = concat(concat(conj.as_word(), core.as_word()), invert(conj.as_word()))
        assert normalize(rebuilt, abc_graph) == normalize(w, abc_graph)
        # Minimality against a sweep of short conjugators.
        for cpairs in oracles.normal_words_upto(abc_graph, 3):
            cw = word_from_pairs(cpairs)
            conjugated = normalize(concat(concat(cw, w), invert(cw)), abc_graph)
            assert core.syllable_length <= conjugated.syllable_length


def test_long_words_stay_within_budget(abc_graph):
    """Piling keeps long words linear: a conjugate of length 2001 reduces to
    its one-letter core, and a 64k-letter word times its inverse normalizes
    to the identity, each well inside its time budget."""
    import time
    ba = word_from_pairs([("b", 1), ("a", 1)] * 500)
    start = time.perf_counter()
    conj, core = cyclically_reduce(concat(concat(ba, parse_word("c", abc_graph)), invert(ba)),
                                   abc_graph)
    assert time.perf_counter() - start < 2.0
    assert core.to_text() == "c"
    assert conj == normalize(ba, abc_graph)
    rng = random.Random(64)
    labels = abc_graph.vertices
    w = word_from_pairs((rng.choice(labels), rng.choice((1, -1))) for _ in range(1 << 16))
    start = time.perf_counter()
    assert normalize(concat(w, invert(w)), abc_graph) == EPSILON
    assert time.perf_counter() - start < 10.0


# -- subword decomposition -------------------------------------------------------

def test_decompose_adjacent_pair_is_empty(abc_graph):
    word = nw([("b", 1), ("c", 1)])
    left, right = subword_decompose(word, 0, 1, abc_graph)
    assert left == EPSILON and right == EPSILON


def test_decompose_worked_example(path_graph):
    word = nw([("c", 1), ("a", 1), ("b", 1)])
    left, right = subword_decompose(word, 0, 2, path_graph)
    assert left == EPSILON
    assert right.to_text() == "a"
    # Syllable objects are accepted in place of positions.
    by_syllable = subword_decompose(word, word.syllables[0], word.syllables[2], path_graph)
    assert by_syllable == (left, right)


def test_decompose_rejects_ordered_pairs(path_graph):
    word = nw([("a", 1), ("c", 1), ("b", 1), ("d", 1)])
    with pytest.raises(ContractError):
        subword_decompose(word, 0, 1, path_graph)  # a before c is forced


def _decompose_contract_holds(pairs, graph) -> bool:
    word = nw(pairs)
    order = syllable_order(word, graph)
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            if order.comparable(i, j):
                continue
            left, right = subword_decompose(word, i, j, graph)
            mid = word_from_pairs(pairs[i + 1:j])
            joined = concat(left.as_word(), right.as_word())
            if normalize(joined, graph) != normalize(mid, graph):
                return False
            if not is_normal(Word(joined.letters), graph):
                return False
            p_gen, q_gen = pairs[i][0], pairs[j][0]
            if not all(graph.commutes(s.generator, p_gen) for s in left.syllables):
                return False
            if not all(graph.commutes(s.generator, q_gen) for s in right.syllables):
                return False
    return True


def test_decompose_contract_exhaustive_small(abc_graph):
    for pairs in oracles.normal_words_upto(abc_graph, 6):
        assert _decompose_contract_holds(pairs, abc_graph), pairs


def test_decompose_contract_on_path_graph(path_graph):
    rng = random.Random(5)
    labels = path_graph.vertices
    checked = 0
    while checked < 400:
        raw = [(rng.choice(labels), rng.choice((1, -1))) for _ in range(rng.randrange(2, 9))]
        word = normalize(word_from_pairs(raw), path_graph)
        if word.syllable_length < 2:
            continue
        assert _decompose_contract_holds(word.pairs(), path_graph)
        checked += 1


def oracle_split(word, graph):
    """The recursive oracle's L and R for the window between the first and
    last syllables of ``word``, with the recursion limit raised for it."""
    index = graph._index
    window = [(index[s.generator], s.exponent) for s in word.syllables]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 2 * len(window) + 100))
    try:
        left, right = oracles.oracle_decompose(window[0][0], window[1:-1], window[-1][0],
                                               graph.comm_masks)
    finally:
        sys.setrecursionlimit(limit)
    labels = graph.vertices
    return tuple((labels[g], e) for g, e in left), tuple((labels[g], e) for g, e in right)


def test_decompose_matches_recursive_oracle():
    """L and R are spelled exactly as the recursive induction spells them,
    on long generated windows and on every unordered pair of random words."""
    rng = random.Random(10)
    checked = 0
    for graph in GRAPH_ZOO + [RING]:
        windows = []
        for _ in range(30):
            window = random_unordered_window(rng, graph, rng.randrange(2, 160))
            if window is not None:
                windows.append(window)
        for _ in range(30):
            raw = [(rng.choice(graph.vertices), rng.choice((1, -1))) for _ in range(14)]
            pairs = normalize(word_from_pairs(raw), graph).pairs()
            order = syllable_order(nw(pairs), graph)
            windows.extend(list(pairs[i:j + 1]) for i in range(len(pairs))
                           for j in range(i + 1, len(pairs)) if not order.comparable(i, j))
        for window in windows:
            word = nw(window)
            left, right = subword_decompose(word, 0, len(window) - 1, graph)
            assert (left.pairs(), right.pairs()) == oracle_split(word, graph), window
            checked += 1
    assert checked > 1000


def test_decompose_deep_chain_window():
    """``a (b a)^600 c`` with a, b commuting with c: the recursion nests 1,200
    deep here and overflowed the interpreter's default limit."""
    graph = DefiningGraph.build("abc", [("a", "c"), ("b", "c")])
    mid = [("b", 1), ("a", 1)] * 600
    word = nw([("a", 1)] + mid + [("c", 1)])
    left, right = subword_decompose(word, 0, 1201, graph)
    assert left == EPSILON
    assert right.pairs() == tuple(mid)
    assert (left.pairs(), right.pairs()) == oracle_split(word, graph)


def test_decompose_contract_on_a_5000_syllable_window():
    graph = GRAPH_ZOO[4]  # the 4-cycle: F2 x F2
    window = random_unordered_window(random.Random(5000), graph, 5200)
    assert len(window) >= 5000
    word = nw(window)
    start = time.perf_counter()
    left, right = subword_decompose(word, 0, len(window) - 1, graph)
    assert time.perf_counter() - start < 5.0
    joined = concat(left.as_word(), right.as_word())
    assert normalize(joined, graph) == normalize(word_from_pairs(window[1:-1]), graph)
    assert is_normal(joined, graph)
    (p_gen, _), (q_gen, _) = window[0], window[-1]
    assert all(graph.commutes(s.generator, p_gen) for s in left.syllables)
    assert all(graph.commutes(s.generator, q_gen) for s in right.syllables)
    assert left.syllables and right.syllables


# -- piling kernel ---------------------------------------------------------------

KERNEL_LENGTHS = (0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64, 128, 256, 512, 1024)


def random_index_word(rng: random.Random, gens: int, letters: int) -> list[tuple[int, int]]:
    """Index syllables of at least ``letters`` letters, unmerged, with
    cancelling runs: a tail of the word followed by its inverse, and a
    prefix whose inverse closes the word, so that the piling pops markers
    and cyclic reduction has a conjugator to find."""
    conj = [(rng.randrange(gens), rng.choice((1, -1, 2))) for _ in range(rng.randrange(4))]
    syls = list(conj)
    while sum(abs(e) for _, e in syls) < letters:
        if len(syls) > 1 and rng.random() < 0.15:
            syls += [(g, -e) for g, e in reversed(syls[-rng.randint(1, min(len(syls), 12)):])]
        else:
            syls.append((rng.randrange(gens), rng.choice((1, -1, 2, -3))))
    return syls + [(g, -e) for g, e in reversed(conj)]


def test_inline_piling_matches_call_per_syllable_kernel():
    """``_pile``, ``_read_out``, ``_reduce_cyclically`` and
    ``cyclic_core_support`` leave the same stacks and return the same
    syllables as the kernel that made one push or pop call per syllable."""
    rng = random.Random(24)
    cancelled = conjugated = 0
    for graph in GRAPH_ZOO + [RING]:
        for letters in KERNEL_LENGTHS:
            for _ in range(3):
                syls = random_index_word(rng, len(graph.vertices), letters)
                piles, expected = words._pile(syls, graph), oracles.oracle_pile(syls, graph)
                assert list(map(list, piles)) == list(map(list, expected)), syls
                assert words.cyclic_core_support(syls, graph) == \
                    oracles.oracle_cyclic_core_support(syls, graph)
                conj = words._reduce_cyclically(piles, graph)
                assert conj == oracles.oracle_reduce_cyclically(expected, graph)
                assert list(map(list, piles)) == list(map(list, expected))
                assert words._read_out(piles, graph) == oracles.oracle_read_out(expected, graph)
                assert not any(piles) and not any(expected)
                normal = words._read_out(words._pile(syls, graph), graph)
                assert normal == oracles.oracle_read_out(oracles.oracle_pile(syls, graph), graph)
                cancelled += len(normal) < len(syls)
                conjugated += bool(conj)
    assert cancelled > 200 and conjugated > 100, (cancelled, conjugated)


def test_built_syllables_are_plain_syllables(abc_graph):
    """The syllables ``_spell`` and ``normal_word_from_pairs`` build are
    ``Syllable``s equal to, hashing, printing, replacing and pickling like
    ones from the constructor."""
    pairs = [("b", 2), ("c", -1), ("a", 1), ("b", -3)]
    index = abc_graph._index
    for word in (nw(pairs), words._spell([(index[g], e) for g, e in pairs], abc_graph)):
        assert word.pairs() == tuple(pairs)
        for i, ((g, e), s) in enumerate(zip(pairs, word.syllables)):
            plain = words.Syllable(g, e, i)
            assert type(s) is words.Syllable
            assert (s == plain, hash(s), repr(s)) == (True, hash(plain), repr(plain))
            assert s._replace(exponent=7) == plain._replace(exponent=7)
            assert type(s._replace(position=0)) is words.Syllable
            again = pickle.loads(pickle.dumps(s))
            assert again == plain and type(again) is words.Syllable
            assert (s.generator, s.exponent, s.position) == (g, e, i)
    assert nw([]).syllables == () and words._spell([], abc_graph) == EPSILON


# -- confluence ------------------------------------------------------------------

def test_confluence_under_randomized_move_orders():
    rng = random.Random(20260809)
    for trial in range(150):
        graph = GRAPH_ZOO[rng.randrange(len(GRAPH_ZOO))]
        labels = graph.vertices
        pairs = tuple((rng.choice(labels), rng.choice((1, -1)))
                      for _ in range(rng.randrange(0, 13)))
        reduced = oracles.randomized_reduce(pairs, graph, rng)
        assert normalize(word_from_pairs(reduced), graph) == \
            normalize(word_from_pairs(pairs), graph)


# -- property-based checks --------------------------------------------------------

_zoo_index = st.integers(min_value=0, max_value=len(GRAPH_ZOO) - 1)


@st.composite
def graph_and_word(draw):
    graph = GRAPH_ZOO[draw(_zoo_index)]
    labels = graph.vertices
    n = draw(st.integers(min_value=0, max_value=10))
    pairs = [(labels[draw(st.integers(0, len(labels) - 1))],
              draw(st.sampled_from((1, -1, 2, -2)))) for _ in range(n)]
    return graph, pairs


@settings(max_examples=120, deadline=None, derandomize=True)
@given(graph_and_word())
def test_normalize_output_is_normal(gw):
    graph, pairs = gw
    result = normalize(word_from_pairs(pairs), graph)
    assert is_normal(result, graph)
    assert result.letter_length <= sum(abs(e) for _, e in pairs)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(graph_and_word())
def test_word_times_inverse_is_identity(gw):
    graph, pairs = gw
    w = word_from_pairs(pairs)
    assert normalize(concat(w, invert(w)), graph) == EPSILON


_order_graphs = GRAPH_ZOO + [RING]


@st.composite
def order_graph_and_normal_word(draw):
    graph = _order_graphs[draw(st.integers(0, len(_order_graphs) - 1))]
    labels = graph.vertices
    n = draw(st.integers(min_value=0, max_value=9))
    pairs = [(labels[draw(st.integers(0, len(labels) - 1))], draw(st.sampled_from((1, -1))))
             for _ in range(n)]
    return graph, normalize(word_from_pairs(pairs), graph)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(order_graph_and_normal_word())
def test_order_masks_match_oracle(gw):
    graph, word = gw
    order = syllable_order(word, graph)
    expected = oracles.oracle_order_pairs(word.pairs(), graph)
    assert order.pairs == expected
    k = word.syllable_length
    for i in range(k):
        for j in range(k):
            assert order.precedes(i, j) == ((i, j) in order.pairs)
    syls = word.syllables
    assert order.generator_pairs() == frozenset(
        (syls[i].generator, syls[j].generator) for i, j in expected)
    again = syllable_order(nw(word.pairs()), graph)
    assert again == order and hash(again) == hash(order)


# -- the label-to-index boundary ---------------------------------------------

def _entry_points(graph, model):
    """Every word entry point as (name, call on one word, whether it takes
    a NormalWord only)."""
    core = build_core(graph, [parse_word("b c a", graph)])
    return [
        ("normalize", lambda w: normalize(w, graph), False),
        ("is_normal", lambda w: is_normal(w, graph), False),
        ("cyclically_reduce", lambda w: cyclically_reduce(w, graph), False),
        ("min_class", lambda w: min_class(w, graph), False),
        ("membership", lambda w: membership(core, w), False),
        ("fills", lambda w: fills(w, model), False),
        ("build_core", lambda w: build_core(graph, [w]), False),
        ("certify", lambda w: certify(graph, model, [w]), False),
        ("syllable_order", lambda w: syllable_order(w, graph), True),
        ("subword_decompose", lambda w: subword_decompose(w, 0, 1, graph), True),
        ("find_filling_blocks", lambda w: find_filling_blocks(w, model), True),
        ("check_window_property", lambda w: check_window_property(w, 3, model), True),
        ("subs", lambda w: subs(w, graph), True),
    ]


def test_every_word_entry_point_shares_one_boundary(abc_graph, abc_model):
    """A Word and its NormalWord spelling give the same result wherever both
    are taken; an unknown label is an InputError naming it; a normal-only
    function names itself in the ContractError for a Word or a non-normal
    word."""
    word, spelled = parse_word("b c a", abc_graph), nw([("b", 1), ("c", 1), ("a", 1)])
    unknown = [word_from_pairs([("b", 1), ("z", 1), ("y", 1)]),
               nw([("b", 1), ("z", 1), ("y", 1)])]
    for name, call, normal_only in _entry_points(abc_graph, abc_model):
        if normal_only:
            with pytest.raises(ContractError, match=f"^{name} requires a NormalWord, got Word$"):
                call(word)
            with pytest.raises(ContractError,
                               match=f"^{name} requires a normal word, got 'b c b'$"):
                call(nw([("b", 1), ("c", 1), ("b", 1)]))
            call(spelled)
        else:
            assert call(word) == call(spelled), name
        for w in unknown[1:] if normal_only else unknown:
            with pytest.raises(InputError, match="unknown generator 'z'"):
                call(w)


def test_normal_only_functions_map_labels_once(abc_graph, abc_model, monkeypatch):
    calls = []
    original = words._syllables

    def spy(w, graph):
        calls.append(w)
        return original(w, graph)
    monkeypatch.setattr(words, "_syllables", spy)
    w = nw([("b", 1), ("c", 1), ("a", 1)])
    for call in (lambda: syllable_order(w, abc_graph),
                 lambda: subword_decompose(w, 0, 1, abc_graph),
                 lambda: find_filling_blocks(w, abc_model)):
        calls.clear()
        call()
        assert calls == [w]


# -- carried words ------------------------------------------------------------

def _outcome(call, w):
    """What a call returns, or the type and text of what it raises."""
    try:
        return "returned", call(w)
    except Exception as exc:  # the outcomes compared include every refusal
        return "raised", type(exc), str(exc)


def _word_functions(graph):
    """Every word function over ``graph``, as (name, call on one word)."""
    model = SurfaceModel.build(graph, [graph.vertices])
    a, b = graph.vertices[:2]
    core = build_core(graph, [word_from_pairs([(a, 1)]), word_from_pairs([(b, 2)])])
    return [
        ("normalize", lambda w: normalize(w, graph)),
        ("is_normal", lambda w: is_normal(w, graph)),
        ("cyclically_reduce", lambda w: cyclically_reduce(w, graph)),
        ("min_class", lambda w: min_class(w, graph)),
        ("membership", lambda w: membership(core, w)),
        ("fills", lambda w: fills(w, model)),
        ("build_core", lambda w: build_core(graph, [w], budget=500)),
        ("certify", lambda w: certify(graph, model, [w], cell_budget=500, enum_budget=20_000)),
        ("syllable_order", lambda w: syllable_order(w, graph)),
        ("subword_decompose", lambda w: subword_decompose(w, 0, 2, graph)),
        ("find_filling_blocks", lambda w: find_filling_blocks(w, model)),
        ("check_window_property", lambda w: check_window_property(w, 3, model)),
        ("subs", lambda w: subs(w, graph)),
    ]


def _carried_words(graph, rng):
    """Words ``_spell`` made over ``graph``: normal forms, cyclic cores and
    conjugators, and unchecked spellings of raw syllables, which may be
    unreduced or carry a zero exponent."""
    out = [words._spell([], graph)]
    for letters in (1, 3, 6, 9, 12):
        raw = [(rng.randrange(len(graph.vertices)), rng.choice((1, -1, 2)))
               for _ in range(letters)]
        normal = words._spell(words._read_out(words._pile(raw, graph), graph), graph)
        out += [normal, *cyclically_reduce(normal, graph), words._spell(raw, graph)]
    out.append(words._spell([(0, 1), (1, 0), (0, 1)], graph))
    return out


@pytest.mark.parametrize("graph", GRAPH_ZOO, ids=lambda g: "".join(g.vertices) + str(len(g.edges)))
def test_carried_words_match_eager_words_in_every_word_function(graph):
    """A word ``_spell`` made carries index syllables over its graph's
    labels.  Every word function gives it the result (or the refusal) it
    gives the same word built eagerly by ``normal_word_from_pairs``, both
    over its own graph and over an equal-edged graph whose labels come in
    another order, where the carried syllables may not be read."""
    other = DefiningGraph.build(graph.vertices[::-1], [tuple(e) for e in graph.edges])
    over = [(graph, _word_functions(graph)), (other, _word_functions(other))]
    for carried in _carried_words(graph, random.Random(len(graph.edges))):
        eager = nw(carried.pairs())
        for g, functions in over:
            for name, call in functions:
                assert _outcome(call, carried) == _outcome(call, eager), \
                    (name, g.vertices, carried.pairs())
        assert "_carried" in vars(carried) and "_carried" not in vars(eager)


def test_a_carried_word_over_other_labels_names_the_first_unknown_one(abc_graph):
    carried = words._spell([(0, 1), (3, 1), (2, 1)], GRAPH_ZOO[3])
    for call in (lambda: normalize(carried, abc_graph), lambda: is_normal(carried, abc_graph),
                 lambda: syllable_order(carried, abc_graph)):
        with pytest.raises(InputError, match="unknown generator 'd'"):
            call()


def test_carried_and_eager_words_are_one_value(abc_graph):
    """Equality, hashing, ``repr``, every reading, a pickle round trip and
    ``dataclasses.replace`` do not tell a carried word from an eager one."""
    for text in ("", "a", "b c a^2 b^-1 c", "a^-3 b c^2 a"):
        carried = normalize(parse_word(text, abc_graph), abc_graph)
        eager = nw(carried.pairs())
        readings = [lambda w: (w.pairs(), w.to_text(), w.letters(), w.as_word()),
                    lambda w: (w.letter_length, w.syllable_length, len(w), repr(w))]
        for read in readings:
            assert read(carried) == read(eager)
        assert "syllables" not in vars(carried)  # nothing above spelled it
        unspelled = pickle.loads(pickle.dumps(carried))
        assert "syllables" not in vars(unspelled) and unspelled.pairs() == eager.pairs()
        assert carried == eager and eager == carried and hash(carried) == hash(eager)
        assert unspelled == eager and hash(unspelled) == hash(eager)
        for w in (carried, eager):
            for again in (pickle.loads(pickle.dumps(w)), dataclasses.replace(w),
                          dataclasses.replace(w, syllables=eager.syllables)):
                assert again == carried and hash(again) == hash(eager)
                assert again.syllables == eager.syllables and repr(again) == repr(eager)
        assert carried.syllables == eager.syllables
        assert all(type(s) is words.Syllable for s in carried.syllables)
        assert dataclasses.astuple(carried) == dataclasses.astuple(eager)
    with pytest.raises(dataclasses.FrozenInstanceError):
        carried.syllables = ()
