from __future__ import annotations

import random
from itertools import combinations

import pytest

from raagcc.errors import InputError
from raagcc.graphs import DefiningGraph
from raagcc.surfaces import (
    SurfaceModel,
    check_window_property,
    fills,
    find_filling_blocks,
    max_exponent,
    subs,
    subs_family_equal,
    subsurfaces_equal,
    supports,
)
from raagcc.words import (
    EPSILON,
    concat,
    invert,
    min_class,
    normal_word_from_pairs,
    normalize,
    parse_word,
    syllable_order,
    word_from_pairs,
)

import oracles


def nw(pairs):
    return normal_word_from_pairs(pairs)


# -- model validation ---------------------------------------------------------

def test_model_rejects_singletons(abc_graph):
    with pytest.raises(InputError):
        SurfaceModel.build(abc_graph, [["a"]])


def test_model_rejects_non_antichain(abc_graph):
    with pytest.raises(InputError):
        SurfaceModel.build(abc_graph, [["a", "b"], ["a", "b", "c"]])


def test_model_rejects_unknown_labels(abc_graph):
    with pytest.raises(InputError):
        SurfaceModel.build(abc_graph, [["a", "z"]])


def test_model_json_round_trip(abc_model):
    again = SurfaceModel.from_json_dict(abc_model.to_json_dict())
    assert again == abc_model


def test_fills_subset_is_monotone(abc_model):
    assert abc_model.fills_subset({"a", "b", "c"})
    assert not abc_model.fills_subset({"a", "b"})
    assert not abc_model.fills_subset(set())


def test_maximal_non_filling_sets_of_one_set_model(abc_model):
    # Bitmasks over the vertex order a, b, c: {b, c}, {a, c}, {a, b}.
    assert abc_model.maximal_non_filling_sets == (0b011, 0b101, 0b110)


def test_maximal_non_filling_sets_match_brute_force():
    """Against the inclusion-maximal subsets that fill_subset rejects, for
    random antichains over six generators."""
    graph = DefiningGraph.build("abcdef", [])
    subsets = [frozenset(c) for k in range(7) for c in combinations(graph.vertices, k)]
    rng = random.Random(71)
    for _ in range(40):
        chosen = {frozenset(rng.sample(graph.vertices, rng.randint(2, 4)))
                  for _ in range(rng.randint(0, 5))}
        model = SurfaceModel.build(graph, [s for s in chosen if not any(t < s for t in chosen)])
        non_filling = [s for s in subsets if not model.fills_subset(s)]
        expected = {s for s in non_filling if not any(s < t for t in non_filling)}
        assert len(model.maximal_non_filling_sets) == len(expected)
        assert {frozenset(v for i, v in enumerate(graph.vertices) if mask >> i & 1)
                for mask in model.maximal_non_filling_sets} == expected


# -- supports -------------------------------------------------------------------

def test_supports_examples(abc_graph):
    assert supports(normalize(parse_word("b c a", abc_graph), abc_graph)) == {"a", "b", "c"}
    assert supports(EPSILON) == frozenset()


def test_supports_invariant_across_class(abc_graph):
    for pairs in oracles.normal_words_upto(abc_graph, 5):
        members = min_class(nw(pairs), abc_graph)
        expected = supports(members[0])
        assert all(supports(m) == expected for m in members)


# -- fills ----------------------------------------------------------------------

def test_fills_examples(abc_graph, abc_model):
    assert fills(parse_word("b c a", abc_graph), abc_model)
    assert not fills(parse_word("a", abc_graph), abc_model)
    assert not fills(EPSILON, abc_model)
    # A conjugate of a non-filling element is still non-filling.
    assert not fills(parse_word("b a b^-1", abc_graph), abc_model)


def test_fills_is_conjugation_invariant(abc_graph, abc_model):
    rng = random.Random(13)
    labels = abc_graph.vertices
    for _ in range(150):
        h = word_from_pairs([(rng.choice(labels), rng.choice((1, -1)))
                             for _ in range(rng.randrange(0, 6))])
        g = word_from_pairs([(rng.choice(labels), rng.choice((1, -1)))
                             for _ in range(rng.randrange(0, 6))])
        conjugated = concat(concat(g, h), invert(g))
        assert fills(h, abc_model) == fills(conjugated, abc_model)


def test_fills_reduces_to_support_hitting(abc_graph):
    # The monotone-family test agrees with brute-force minimal-set hitting,
    # exhaustively over all subsets of a 12-generator alphabet.
    import itertools
    rng = random.Random(29)
    labels = [f"v{i}" for i in range(12)]
    graph = DefiningGraph.build(labels, [("v0", "v1"), ("v2", "v3")])
    sets = set()
    while len(sets) < 4:
        size = rng.randrange(2, 6)
        cand = frozenset(rng.sample(labels, size))
        if not any(s <= cand or cand <= s for s in sets):
            sets.add(cand)
    model = SurfaceModel.build(graph, [sorted(s) for s in sets])
    for r in range(13):
        for subset in itertools.combinations(labels, r):
            subset = set(subset)
            expected = any(s <= subset for s in sets)
            assert model.fills_subset(subset) == expected


# -- symbolic subsurfaces ---------------------------------------------------------

def test_subs_single_generator(abc_graph):
    family = subs(nw([("a", 1)]), abc_graph)
    assert len(family) == 1
    assert family[0].prefix == EPSILON and family[0].base == "a"


def test_subs_families_agree_across_commutation(abc_graph):
    w1 = normalize(parse_word("a b c a", abc_graph), abc_graph)
    f1 = subs(nw([("a", 1), ("b", 1), ("c", 1), ("a", 1)]), abc_graph)
    f2 = subs(nw([("a", 1), ("c", 1), ("b", 1), ("a", 1)]), abc_graph)
    assert subs_family_equal(f1, f2, abc_graph)
    prefixes = [(s.prefix.to_text(), s.base) for s in f1]
    assert prefixes == [("", "a"), ("a", "b"), ("a b", "c"), ("a b c", "a")]
    assert normalize(w1, abc_graph).pairs() == tuple((g, 1) for g in "abca")


def test_subs_family_representative_independent(abc_graph):
    for pairs in oracles.normal_words_upto(abc_graph, 5):
        members = min_class(nw(pairs), abc_graph)
        base = subs(members[0], abc_graph)
        for other in members[1:]:
            assert subs_family_equal(base, subs(other, abc_graph), abc_graph)


def test_subs_family_entries_distinct(abc_graph):
    for pairs in oracles.normal_words_upto(abc_graph, 6):
        family = subs(nw(pairs), abc_graph)
        assert len(family) == len(pairs)
        for i in range(len(family)):
            for j in range(i + 1, len(family)):
                assert not subsurfaces_equal(family[i], family[j], abc_graph), pairs


def test_subsurface_equality_uses_star(abc_graph):
    a = subs(nw([("a", 1), ("b", 1)]), abc_graph)[1]      # prefix a, base b
    b_entry = subs(nw([("a", 1), ("c", 1), ("b", 1)]), abc_graph)[2]  # prefix a c, base b
    assert subsurfaces_equal(a, b_entry, abc_graph)  # c lies in star(b)


# -- filling blocks ---------------------------------------------------------------

def test_single_block_spanning_whole_word(abc_graph, abc_model):
    word = nw([("b", 1), ("c", 1), ("a", 1)])
    blocks = find_filling_blocks(word, abc_model)
    assert [(b.start, b.end) for b in blocks] == [(0, 2)]
    assert blocks[0].support == {"a", "b", "c"}


def test_blocks_match_brute_force(abc_graph, abc_model):
    rng = random.Random(17)
    labels = abc_graph.vertices
    for _ in range(200):
        raw = [(rng.choice(labels), rng.choice((1, -1)))
               for _ in range(rng.randrange(0, 21))]
        word = normalize(word_from_pairs(raw), abc_graph)
        got = [(b.start, b.end) for b in find_filling_blocks(word, abc_model)]
        expected = oracles.brute_force_filling_ranges(word.pairs(), abc_model.fills_subset)
        assert got == expected


def test_blocks_sorted_and_incomparable(abc_graph, abc_model):
    rng = random.Random(23)
    labels = abc_graph.vertices
    for _ in range(100):
        raw = [(rng.choice(labels), rng.choice((1, -1)))
               for _ in range(rng.randrange(0, 16))]
        word = normalize(word_from_pairs(raw), abc_graph)
        blocks = find_filling_blocks(word, abc_model)
        ranges = [(b.start, b.end) for b in blocks]
        assert ranges == sorted(ranges)
        for i in range(len(ranges)):
            for j in range(len(ranges)):
                if i != j:
                    ri, rj = ranges[i], ranges[j]
                    assert not (ri[0] <= rj[0] and rj[1] <= ri[1])


def _assert_blocks_obstruct_commutation(pairs, graph, model):
    word = nw(pairs)
    blocks = find_filling_blocks(word, model)
    if not blocks:
        return False
    order = syllable_order(word, graph)
    for block in blocks:
        for n in range(len(pairs)):
            assert any(order.comparable(n, m) or n == m
                       for m in range(block.start, block.end + 1)), (pairs, block)
    return True


def test_block_commutation_instances(abc_graph, abc_model):
    """Every syllable of a normal word is order-comparable to some syllable of
    each filling block it contains: exhaustive to length 7, seeded sample of
    longer words up to length 10."""
    checked = 0
    for pairs in oracles.normal_words_upto(abc_graph, 7):
        if _assert_blocks_obstruct_commutation(pairs, abc_graph, abc_model):
            checked += 1
    assert checked > 100
    rng = random.Random(83)
    labels = abc_graph.vertices
    sampled = 0
    while sampled < 2000:
        raw = [(rng.choice(labels), rng.choice((1, -1)))
               for _ in range(rng.randrange(8, 13))]
        word = normalize(word_from_pairs(raw), abc_graph)
        if not 8 <= word.letter_length <= 10:
            continue
        if _assert_blocks_obstruct_commutation(word.pairs(), abc_graph, abc_model):
            sampled += 1


# -- windows ----------------------------------------------------------------------

def test_window_property_vacuous_when_short(abc_graph, abc_model):
    word = nw([("a", 1), ("b", 1)])
    assert check_window_property(word, 10, abc_model)


def test_window_property_counterexample(abc_graph, abc_model):
    # A long non-filling stretch in the middle breaks the window property.
    word = normalize(parse_word("b c a b^8 c^8 a b c", abc_graph), abc_graph)
    assert not check_window_property(word, 6, abc_model)
    assert check_window_property(word, word.letter_length, abc_model)


def test_window_rejects_bad_window(abc_graph, abc_model):
    with pytest.raises(InputError):
        check_window_property(EPSILON, 0, abc_model)


def test_max_exponent(abc_graph):
    assert max_exponent(nw([("a", 3), ("b", 1)])) == 3
    assert max_exponent(nw([("a", -4)])) == 4
    assert max_exponent(EPSILON) == 0
