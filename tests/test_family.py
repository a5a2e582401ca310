from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from raagcc.errors import ContractError, InputError
from raagcc.family import (
    FamilyConstants,
    alpha_state,
    bme_normal_form,
    constants,
    displacement_upper,
    family,
    free_reduce,
    h_word_symbols,
    h_word_text,
    parse_h_word,
    span_apply,
    span_apply_h,
    translation_length_bound,
    verify_order_window,
    verify_star,
    window_constant_check,
    _containers,
    _h_words_upto,
)
from raagcc.surfaces import fills, find_filling_blocks, max_exponent
from raagcc.words import is_normal, normalize, word_from_pairs

from oracles import (
    TupleSpanState,
    mask_state,
    mask_supports,
    naive_expansion,
    support_mask,
    xbar_labels,
    ybar_labels,
)


# -- family construction -----------------------------------------------------------

def test_family_validates_parameters():
    with pytest.raises(InputError):
        family(1, 1)
    with pytest.raises(InputError):
        family(3, 0)


def test_generator_spelling_n3():
    fam = family(3, 1)
    assert fam.generators[0].to_text() == "g1 g2 f1 g3 f2 f3"


def test_generator_uses_all_labels_and_fills():
    for n in (2, 3, 5):
        fam = family(n, 2)
        for w in fam.generators:
            assert {s.generator for s in w.syllables} == set(fam.graph.vertices)
            assert fills(w, fam.model)


def test_generator_max_exponent_is_index():
    fam = family(4, 3)
    for i in (1, 2, 3):
        assert max_exponent(fam.generators[i - 1]) == i


def test_complement_graph_is_alternating_cycle():
    for n in (2, 3, 6):
        fam = family(n, 1)
        labels = fam.graph.vertices
        comp = {frozenset((u, w)) for i, u in enumerate(labels) for w in labels[i + 1:]
                if not fam.graph.commutes(u, w)}
        assert len(comp) == 2 * n
        degree = {v: 0 for v in fam.graph.vertices}
        for e in comp:
            u, w = tuple(e)
            assert u[0] != w[0]  # alternates between f and g labels
            degree[u] += 1
            degree[w] += 1
        assert all(d == 2 for d in degree.values())
        assert fam.graph.complement_diameter() == n


def test_model_fills_only_with_every_label():
    fam = family(3, 1)
    labels = set(fam.graph.vertices)
    assert fam.model.fills_subset(labels)
    for missing in labels:
        assert not fam.model.fills_subset(labels - {missing})


# -- B/M/E normal forms --------------------------------------------------------------

def test_symbol_merge_rules():
    assert h_word_symbols(parse_h_word("w1 w2^-1", 2)) == [
        ("B", 1), ("M", 1), ("E", -1), ("Minv", 2), ("B", -2)]
    assert h_word_symbols(parse_h_word("w1^-1 w2", 2)) == [
        ("E", -1), ("Minv", 1), ("B", 1), ("M", 2), ("E", 2)]
    assert h_word_symbols(parse_h_word("w1 w2", 2)) == [
        ("B", 1), ("M", 1), ("E", 1), ("B", 2), ("M", 2), ("E", 2)]


def test_bme_requires_reduced_words():
    fam = family(3, 2)
    with pytest.raises(ContractError):
        bme_normal_form(((1, 1), (1, -1)), fam)
    assert free_reduce([(1, 1), (1, -1)]) == ()


def test_bme_single_generator_and_normality():
    for n in (3, 4, 5):
        fam = family(n, 2)
        for i in (1, 2):
            w = bme_normal_form(((i, 1),), fam)
            assert w == fam.generators[i - 1]
            assert is_normal(w, fam.graph)


def test_bme_matches_normalize_of_naive_expansion():
    for n in (3, 4):
        fam = family(n, 2)
        for h in _h_words_upto(2, 3):
            if not h:
                continue
            bme = bme_normal_form(h, fam)
            assert is_normal(bme, fam.graph), h
            naive = normalize(word_from_pairs(naive_expansion(h, fam)), fam.graph)
            assert normalize(bme, fam.graph) == naive, h
            assert bme.letter_length == naive.letter_length


def test_h_word_parsing_round_trip():
    h = parse_h_word("w1 w2^-2 w1^3", 2)
    assert h == ((1, 1), (2, -1), (2, -1), (1, 1), (1, 1), (1, 1))
    assert h_word_text(h) == "w1 w2^-2 w1^3"
    with pytest.raises(InputError):
        parse_h_word("w3", 2)
    with pytest.raises(InputError):
        parse_h_word("x1", 2)
    # Every freely reduced h-word of length at most 4 over N = 3 reads back.
    letters = [(i, sign) for i in (1, 2, 3) for sign in (1, -1)]
    reduced = [h for length in range(5) for h in itertools.product(letters, repeat=length)
               if all(y != (x[0], -x[1]) for x, y in zip(h, h[1:]))]
    assert len(reduced) == 1 + 6 + 6 * 5 + 6 * 25 + 6 * 125
    for h in reduced:
        assert parse_h_word(h_word_text(h), 3) == h, h


# -- constants -----------------------------------------------------------------------

def test_constants_values():
    assert constants(family(3, 2)) == FamilyConstants(b=26, d=3, L=78, ell_prime=651, ell=655)
    assert constants(family(2, 1)) == FamilyConstants(b=10, d=2, L=20, ell_prime=91, ell=93)


def test_complement_diameter_equals_ring_size():
    for n in range(2, 11):
        assert constants(family(n, 1)).d == n


# -- span states ----------------------------------------------------------------------
# Span states are bitmasks over the family graph; the helpers from oracles.py
# read and write them as the paper's X_i / Y_i supports.

def test_alpha_state(abc_graph):
    fam = family(6, 1)
    state = alpha_state(fam)
    assert mask_supports(state.contained_in, fam) == {("Y", 0)}
    assert mask_supports(state.misses, fam) == {("X", 0), ("X", 1)}


def test_span_apply_is_noop_for_contained_support():
    fam = family(6, 1)
    state = span_apply_h(alpha_state(fam), ((1, 1),), fam)
    assert span_apply(state, "g1", fam) == state  # Y1 already contained


def test_first_generator_span():
    fam = family(6, 2)
    state = span_apply_h(alpha_state(fam), ((1, 1),), fam)
    assert mask_supports(state.contained_in, fam) <= {("Y", 0), ("X", 1), ("Y", 1)}


def test_b_block_growth_from_x_container():
    # Applying the level-1 g-block to a curve spanned by the step-2 X-side
    # container adds exactly the two fringe Y-supports.
    fam = family(6, 1)
    state = _force_state(xbar_labels(2, 6), fam)
    grown = state
    for t in range(5, 0, -1):  # the word g1 ... g5, rightmost letter first
        grown = span_apply(grown, "g" + str(t), fam)
    added = mask_supports(grown.contained_in & ~state.contained_in, fam)
    assert added == {("Y", 4), ("Y", 1)}  # Y_-2 and Y_1


def _force_state(labels, fam):
    return mask_state(TupleSpanState(contained_in=frozenset(labels), misses=frozenset()), fam)


def test_six_base_case_containments():
    fam = family(6, 1)
    alpha = alpha_state(fam)
    w = ((1, 1),)
    v = ((1, -1),)
    cases = [
        (v, {("X", 0), ("Y", 0)}),
        (w, {("Y", 0), ("X", 1), ("Y", 1)}),
        (w + v, {("Y", 5), ("X", 0), ("Y", 0), ("X", 1), ("Y", 1)}),
        (v + w, {("X", 0), ("Y", 0), ("X", 1), ("Y", 1), ("X", 2)}),
        (w + w, {("Y", 5), ("X", 0), ("Y", 0), ("X", 1), ("Y", 1), ("X", 2), ("Y", 2)}),
        (v + v, {("X", 5), ("Y", 5), ("X", 0), ("Y", 0), ("X", 1)}),
    ]
    for h, container in cases:
        state = span_apply_h(alpha, h, fam)
        assert mask_supports(state.contained_in, fam) <= container, h
        assert state.is_proper(fam.n)


def test_container_label_sets():
    # Proper up to half the ring, full at the whole ring; the package's
    # container masks are the same supports.
    for n in (6, 8):
        for k in range(2, n // 2 + 1):
            assert len(xbar_labels(k, n)) == 4 * k - 3 < 2 * n
            assert len(ybar_labels(k, n)) == 4 * k - 1 < 2 * n
    assert len(xbar_labels(6, 6)) == 12
    assert len(ybar_labels(6, 6)) == 12
    for n in range(2, 11):
        fam = family(n, 1)
        for k in range(2, n + 1):
            assert _containers(k, fam) == (support_mask(xbar_labels(k, n), fam),
                                           support_mask(ybar_labels(k, n), fam)), (n, k)


def test_verify_star_exhaustive():
    fam = family(6, 2)
    report = verify_star(fam, 3)
    assert report.ok
    assert report.violations == ()
    assert report.all_proper
    assert report.tested == 1 + 4 + 12 + 36


def test_verify_star_counts_every_reduced_word():
    for n in range(2, 13):
        for N in range(1, 5):
            fam = family(n, N)
            for k in range(n // 2 + 1):
                expected = 1 + 2 * N * sum((2 * N - 1) ** (l - 1) for l in range(1, k + 1))
                assert verify_star(fam, k).tested == expected, (n, N, k)
    # Far past a word-by-word sweep: 7,686,401 h-words, 511 sign patterns.
    report = verify_star(family(16, 4), 8)
    assert report.ok and report.tested == 7_686_401


def test_verify_star_rejects_large_k():
    fam = family(6, 2)
    with pytest.raises(ContractError):
        verify_star(fam, 4)


# -- displacement bounds -----------------------------------------------------------------

def test_displacement_upper_values():
    fam = family(6, 2)
    assert displacement_upper(((1, 1),) * 3, fam) == (1, Fraction(2))
    assert displacement_upper(((1, 1),) * 7, fam) == (3, Fraction(6))
    assert displacement_upper((), fam) == (0, Fraction(0))


def test_displacement_upper_respects_formula():
    fam = family(6, 2)
    rng = random.Random(41)
    for length in range(0, 13):
        for _ in range(10):
            h = []
            while len(h) < length:
                cand = (rng.randrange(1, 3), rng.choice((1, -1)))
                if h and h[-1][0] == cand[0] and h[-1][1] == -cand[1]:
                    continue
                h.append(cand)
            m, bound = displacement_upper(tuple(h), fam)
            assert bound == 2 * m
            assert bound <= Fraction(4 * length, fam.n) + 2


def test_displacement_upper_rejects_long_blocks_for_odd_n():
    # m = ceil(2|h|/n) leaves a block of n//2 + 1 generators when n is odd.
    with pytest.raises(ContractError, match="longer than n//2 = 1 for n = 3"):
        displacement_upper("w1 w2 w1", family(3, 2))
    assert displacement_upper("w1 w2^-1 w1", family(3, 2)) == (2, Fraction(4))
    assert displacement_upper("w1 w2 w1", family(4, 2)) == (2, Fraction(4))


def test_translation_length_bound():
    fam = family(6, 1)
    assert translation_length_bound(fam, 1) == Fraction(2, 3)
    assert translation_length_bound(fam, 1) == Fraction(4, fam.n)


# -- windows and order -----------------------------------------------------------------

def test_b_window_property_small_words():
    for n in (3, 4):
        for N in (1, 2):
            fam = family(n, N)
            b = constants(fam).b
            assert window_constant_check(fam, _h_words_upto(N, 3), b)


def test_ell_window_property_small_words():
    fam = family(3, 1)
    ell = constants(fam).ell
    assert window_constant_check(fam, _h_words_upto(1, 3), ell)
    # Non-vacuous instance: a power long enough to carry several windows.
    assert window_constant_check(fam, [((1, 1),) * 30], ell)


def test_single_minimal_block_in_generator():
    fam = family(3, 1)
    w1 = fam.generators[0]
    blocks = find_filling_blocks(w1, fam.model)
    assert [(b.start, b.end) for b in blocks] == [(0, len(w1.syllables) - 1)]


def test_order_window_no_violations():
    fam = family(3, 1)
    report = verify_order_window(fam, ["w1^4", "w1^14", "w1^-9"])
    assert report.ok and report.tested == 3
    # Mixed sample with several generators.
    fam2 = family(3, 2)
    rng = random.Random(57)
    sample = []
    for _ in range(12):
        h = []
        while len(h) < rng.randrange(1, 5):
            cand = (rng.randrange(1, 3), rng.choice((1, -1)))
            if h and h[-1][0] == cand[0] and h[-1][1] == -cand[1]:
                continue
            h.append(cand)
        sample.append(tuple(h))
    assert verify_order_window(fam2, sample).ok


def test_span_monotone_and_misses_conservative():
    fam = family(5, 1)
    rng = random.Random(71)
    labels = fam.graph.vertices
    state = alpha_state(fam)
    for _ in range(200):
        nxt = span_apply(state, rng.choice(labels), fam)
        assert mask_supports(state.contained_in, fam) <= mask_supports(nxt.contained_in, fam)
        assert mask_supports(nxt.misses, fam) <= mask_supports(state.misses, fam)
        state = nxt
