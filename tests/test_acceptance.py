"""Acceptance suite: one test per criterion, each timed against its budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion with its measured runtime.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from raagcc.certify import CERTIFIED, REFUTED, certify
from raagcc.complexes import (
    VERIFIED,
    build_core,
    check_local_isometry,
    enumerate_elements,
    iter_loops_by_length,
    membership,
)
from raagcc.family import (
    FamilyConstants,
    _h_words_upto,
    bme_normal_form,
    constants,
    displacement_upper,
    family,
    span_apply_h,
    alpha_state,
    translation_length_bound,
    verify_star,
    window_constant_check,
)
from raagcc.graphs import DefiningGraph
from raagcc.words import (
    EPSILON,
    Word,
    concat,
    invert,
    is_normal,
    min_class,
    normal_word_from_pairs,
    normalize,
    parse_word,
    syllable_order,
    word_from_pairs,
)

import oracles


class Stopwatch:
    def __init__(self, number: int, limit: float):
        self.number = number
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"ACCEPTANCE {self.number:02d}: PASS ({elapsed:.2f}s < {self.limit:.0f}s)")
            assert elapsed < self.limit, f"criterion {self.number} exceeded {self.limit}s"
        else:
            print(f"ACCEPTANCE {self.number:02d}: FAIL after {elapsed:.2f}s")
        return False


@pytest.fixture(scope="module")
def two_generator_core(abc_graph):
    gens = [parse_word("b c a", abc_graph), parse_word("b a b c", abc_graph)]
    return build_core(abc_graph, gens, budget=20_000)


def test_01_normal_form_example():
    """Four-syllable class has exactly 5 members and 3 ordered pairs."""
    with Stopwatch(1, 1.0):
        graph = DefiningGraph.build("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
        words = min_class(parse_word("a c b d", graph), graph)
        assert len(words) == 5
        assert {w.to_text() for w in words} == {
            "a c b d", "a b c d", "b a c d", "a b d c", "b a d c"}
        given = normal_word_from_pairs([("a", 1), ("c", 1), ("b", 1), ("d", 1)])
        order = syllable_order(given, graph)
        assert order.pairs == frozenset({(0, 1), (0, 3), (2, 3)})
        assert order.generator_pairs() == frozenset(
            {("a", "c"), ("a", "d"), ("b", "d")})


def test_02_geodesity_oracle(abc_graph):
    """Normalized letter length equals BFS Cayley distance on the radius-8
    ball (196417 elements; direct free-product arithmetic as the oracle)."""
    with Stopwatch(2, 30.0):
        ball = oracles.cayley_ball_abc(8)
        assert len(ball) > 30_000
        mismatches = 0
        for dist, word in ball.values():
            if normalize(word_from_pairs(word), abc_graph).letter_length != dist:
                mismatches += 1
        assert mismatches == 0
        assert len(ball) == 196_417


def test_03_subword_decomposition_exhaustive(abc_graph):
    """The L/R decomposition contract holds for every normal word of length
    at most 8 and every unordered syllable pair."""
    with Stopwatch(3, 60.0):
        commutes = abc_graph.commutes
        from raagcc.words import subword_decompose
        words = 0
        pairs_checked = 0
        for pairs in oracles.normal_words_upto(abc_graph, 8):
            words += 1
            word = normal_word_from_pairs(pairs)
            order = syllable_order(word, abc_graph)
            n = len(pairs)
            for i in range(n):
                for j in range(i + 1, n):
                    if order.comparable(i, j):
                        continue
                    pairs_checked += 1
                    left, right = subword_decompose(word, i, j, abc_graph)
                    mid = word_from_pairs(pairs[i + 1:j])
                    joined = concat(left.as_word(), right.as_word())
                    assert normalize(joined, abc_graph) == normalize(mid, abc_graph)
                    assert is_normal(Word(joined.letters), abc_graph)
                    assert all(commutes(s.generator, pairs[i][0]) for s in left.syllables)
                    assert all(commutes(s.generator, pairs[j][0]) for s in right.syllables)
        assert words == 330_512
        assert pairs_checked > 100_000


def test_04_two_generator_certification(abc_graph, abc_model, two_generator_core):
    """The worked two-generator subgroup: stable core, clean link report,
    correct membership, certified."""
    with Stopwatch(4, 10.0):
        core = two_generator_core
        assert core.status == VERIFIED
        assert check_local_isometry(core.complex).ok
        assert not membership(core, parse_word("b^2 c^2 a^2", abc_graph))
        cert = certify(abc_graph, abc_model,
                       [parse_word("b c a", abc_graph), parse_word("b a b c", abc_graph)])
        assert cert.verdict == CERTIFIED
        squares = core.diagnostics["square_count"]
        print(f"  [diagnostic] square count = {squares} (expected 4, non-blocking)")


def test_05_augmented_subgroup_refuted(abc_graph, abc_model):
    """Adding a^2 b c produces a subgroup containing the non-filling element
    a; certification refutes with that support."""
    with Stopwatch(5, 10.0):
        gens = [parse_word(t, abc_graph) for t in ("a b c", "c a b", "a^2 b c")]
        cert = certify(abc_graph, abc_model, gens)
        assert cert.verdict == REFUTED
        assert cert.witness_support == {"a"}
        # Membership of the word a, independently: direct cancellation of
        # a^2 b c against (a b c)^-1 leaves exactly a.
        identity = normalize(
            concat(parse_word("a^2 b c", abc_graph), invert(parse_word("a b c", abc_graph))),
            abc_graph)
        assert identity.to_text() == "a"
        # And the construction itself traces a as a basepoint loop.
        found_a = False
        for length, loops in iter_loops_by_length(cert.core.complex, 1):
            for syls in loops:
                if syls == ((abc_graph.index("a"), 1),):
                    found_a = True
        assert found_a


def test_06_enumeration_oracle(abc_graph, two_generator_core):
    """Core enumeration at length 6 equals brute-force geodesic filtering."""
    with Stopwatch(6, 60.0):
        core = two_generator_core
        expected = {EPSILON.pairs()}
        for pairs in oracles.normal_words_upto(abc_graph, 6):
            word = normal_word_from_pairs(pairs)
            if membership(core, word):
                expected.add(normalize(word, abc_graph).pairs())
        got = {w.pairs() for w in enumerate_elements(core, 6)}
        assert got == expected


def test_07_ring_family_expansion():
    """The first ring generator's block spelling is the canonical normal form
    of its raw expansion."""
    with Stopwatch(7, 1.0):
        for n in (3, 4, 5):
            fam = family(n, 1)
            bme = bme_normal_form("w1", fam)
            expected = ([(f"g{t}", 1) for t in range(1, n)]
                        + [("f1", 1), (f"g{n}", 1)]
                        + [(f"f{t}", 1) for t in range(2, n + 1)])
            assert bme.pairs() == tuple(expected)
            naive = normalize(word_from_pairs(oracles.naive_expansion(((1, 1),), fam)),
                              fam.graph)
            assert naive.pairs() == bme.pairs()
            assert is_normal(bme, fam.graph)


def test_08_ring_family_constants():
    """Window constants are exact; the complement diameter equals the ring size."""
    with Stopwatch(8, 1.0):
        assert constants(family(3, 2)) == FamilyConstants(
            b=26, d=3, L=78, ell_prime=651, ell=655)
        for n in range(2, 11):
            assert constants(family(n, 1)).d == n


def test_09_filling_block_window():
    """Every length-b letter window of every short product's block normal form
    contains a filling block."""
    with Stopwatch(9, 120.0):
        for n in (3, 4):
            for N in (1, 2):
                fam = family(n, N)
                b = 3 * N * n + 4 * N
                assert window_constant_check(fam, _h_words_upto(N, 3), b)


def test_10_span_containment_and_displacement():
    """Span containment for all products of length 3, and the block
    displacement bound in exact rationals up to length 12."""
    with Stopwatch(10, 120.0):
        fam = family(6, 2)
        report = verify_star(fam, 3)
        assert report.violations == ()
        assert report.all_proper
        for h in _h_words_upto(2, 3):
            if h:
                m, bound = displacement_upper(h, fam)
                assert (m, bound) == (1, Fraction(2))
        rng = random.Random(20260809)
        g = fam.n + 1
        for length in range(0, 13):
            for _ in range(12):
                h = []
                while len(h) < length:
                    cand = (rng.randrange(1, 3), rng.choice((1, -1)))
                    if h and h[-1][0] == cand[0] and h[-1][1] == -cand[1]:
                        continue
                    h.append(cand)
                m, bound = displacement_upper(tuple(h), fam)
                assert bound == Fraction(2 * m)
                assert bound <= Fraction(4 * length, g - 1) + 2


def test_11_small_translation_length():
    """Powers of the first generator up to n/2 keep the curve in a proper
    span, certifying stable translation length at most 4/(g-1) = 2/3."""
    with Stopwatch(11, 5.0):
        fam = family(6, 1)
        for p in (1, 2, 3):
            state = span_apply_h(alpha_state(fam), ((1, 1),) * p, fam)
            assert state.is_proper(fam.n)
        bound = translation_length_bound(fam, 1)
        assert bound == Fraction(2, 3)
        assert bound == Fraction(4, (fam.n + 1) - 1)


def test_12_confluence():
    """1000 seeded random words, randomized move orders, identical canonical
    forms."""
    with Stopwatch(12, 30.0):
        rng = random.Random(0xC0C0)
        graphs = []
        for _ in range(12):
            size = rng.randrange(2, 7)
            labels = "abcdef"[:size]
            edges = [(u, w) for i, u in enumerate(labels) for w in labels[i + 1:]
                     if rng.random() < 0.4]
            graphs.append(DefiningGraph.build(labels, edges))
        mismatches = 0
        for trial in range(1000):
            graph = graphs[rng.randrange(len(graphs))]
            labels = graph.vertices
            pairs = tuple((rng.choice(labels), rng.choice((1, -1)))
                          for _ in range(rng.randrange(0, 13)))
            reduced = oracles.randomized_reduce(pairs, graph, rng)
            if normalize(word_from_pairs(reduced), graph) != \
                    normalize(word_from_pairs(pairs), graph):
                mismatches += 1
        assert mismatches == 0
