"""The ring-family checks and the filling-block sweeps against the slow
paths they replaced (kept in ``oracles.py``): the package's bitmask paths
against label sets and the ring's tuple support rule, and its index
syllables against the string-label spelling.  The ring-sweep mix of outputs
is also pinned by hash."""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_left
from itertools import combinations

import pytest

from raagcc.errors import ContractError, InputError, InternalError
from raagcc.family import (
    FamilyConstants,
    displacement_upper,
    family,
    span_apply_h,
    verify_order_window,
    verify_star,
    window_constant_check,
)
from raagcc.graphs import DefiningGraph
from raagcc.surfaces import SurfaceModel, check_window_property, fills, find_filling_blocks
from raagcc.words import normal_word_from_pairs, normalize, word_from_pairs

from conftest import GRAPH_ZOO
from oracles import (
    TupleSpanState,
    mask_state,
    oracle_bme_normal_form,
    oracle_bme_pairs,
    oracle_check_window_property,
    oracle_displacement_upper,
    oracle_find_filling_blocks,
    oracle_fills,
    oracle_fills_subset,
    oracle_span_apply_h,
    oracle_verify_order_window,
    oracle_verify_star,
    ring,
    support_of,
    supports_disjoint,
)


def _random_h(rng: random.Random, N: int, length: int) -> tuple[tuple[int, int], ...]:
    h: list[tuple[int, int]] = []
    while len(h) < length:
        cand = (rng.randrange(1, N + 1), rng.choice((1, -1)))
        if h and h[-1][0] == cand[0] and h[-1][1] == -cand[1]:
            continue
        h.append(cand)
    return tuple(h)


def _random_antichain_model(graph, rng: random.Random) -> SurfaceModel:
    vertices = list(graph.vertices)
    sets = {frozenset(rng.sample(vertices, rng.randint(2, len(vertices))))
            for _ in range(rng.randint(1, 4))}
    return SurfaceModel.build(graph, [s for s in sets if not any(t < s for t in sets)])


def _random_normal_word(graph, rng: random.Random):
    pairs = [(rng.choice(graph.vertices), rng.choice((-3, -2, -1, 1, 2, 3)))
             for _ in range(rng.randint(0, 24))]
    return normalize(word_from_pairs(pairs), graph)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ContractError, InputError, InternalError) as exc:
        return type(exc), str(exc)


# -- filling blocks and the letter window ------------------------------------------


def test_blocks_and_windows_match_quadratic_sweep():
    rng = random.Random(5)
    outcomes = set()
    for graph in GRAPH_ZOO:
        for _ in range(30):
            model = _random_antichain_model(graph, rng)
            w = _random_normal_word(graph, rng)
            blocks = [(b.start, b.end) for b in find_filling_blocks(w, model)]
            assert blocks == [(b.start, b.end) for b in oracle_find_filling_blocks(w, model)]
            for window in range(1, 41):
                got = check_window_property(w, window, model)
                assert got == oracle_check_window_property(w, window, model), (
                    w, model.minimal_filling_sets, window)
                if w.letter_length >= window:
                    outcomes.add(got)
    assert outcomes == {True, False}


def _free_vertex_model(graph, rng: random.Random) -> SurfaceModel:
    """An antichain of 3 to 5 minimal filling sets over all but one vertex,
    so that the last vertex is in no set."""
    vertices = list(graph.vertices[:-1])
    sets: set[frozenset[str]] = set()
    size = rng.randint(3, 5)
    while len(sets) < size:
        s = frozenset(rng.sample(vertices, rng.randint(2, len(vertices) - 1)))
        if not any(t <= s for t in sets):
            sets = {t for t in sets if not s <= t} | {s}
    return SurfaceModel.build(graph, sets)


def test_blocks_and_windows_match_quadratic_sweep_on_long_words():
    """The sweep reorders a set's generators by latest occurrence, which
    only long words exercise: B/M/E forms of 8-24 generators, at windows
    around b, and words of up to 80 syllables over random antichains of at
    least 3 sets that leave one vertex out."""
    rng = random.Random(31)
    outcomes = set()
    for n, N in ((4, 1), (6, 2), (10, 3)):
        fam = family(n, N)
        b = ring.constants(fam).b
        for length in (8, 16, 24):
            w = ring.bme_normal_form(_random_h(rng, N, length), fam)
            assert find_filling_blocks(w, fam.model) == oracle_find_filling_blocks(w, fam.model)
            for window in (2 * n, 3 * n, b - 1, b, b + 1):
                got = check_window_property(w, window, fam.model)
                assert got == oracle_check_window_property(w, window, fam.model), (
                    n, N, length, window)
                outcomes.add(got)
    assert outcomes == {True, False}
    lengths, holding = [], set()
    for _ in range(40):
        graph = DefiningGraph.build("abcdef", [e for e in combinations("abcdef", 2)
                                               if rng.random() < 0.3])
        model = _free_vertex_model(graph, rng)
        pairs = [(rng.choice(graph.vertices), rng.choice((-2, -1, 1, 2)))
                 for _ in range(rng.randint(50, 80))]
        w = normalize(word_from_pairs(pairs), graph)
        lengths.append(len(w.syllables))
        blocks = find_filling_blocks(w, model)
        assert blocks == oracle_find_filling_blocks(w, model), (w, model.minimal_filling_sets)
        for window in range(1, 41):
            got = check_window_property(w, window, model)
            assert got == oracle_check_window_property(w, window, model), (
                w, model.minimal_filling_sets, window)
            holding.add(got)
    assert max(lengths) >= 60 and holding == {True, False}


def test_fills_and_filling_sets_match_label_sets():
    """``fills``, ``fills_mask`` and the maximal non-filling masks against
    the minimal filling sets taken as label sets."""
    rng = random.Random(7)
    outcomes = set()
    for graph in GRAPH_ZOO:
        for _ in range(30):
            model = _random_antichain_model(graph, rng)
            w = _random_normal_word(graph, rng)
            got = fills(w, model)
            assert got == oracle_fills(w, model), (w, model.minimal_filling_sets)
            outcomes.add(got)
            labels = {v: 1 << i for i, v in enumerate(graph.vertices)}
            for _ in range(8):
                subset = set(rng.sample(graph.vertices, rng.randint(0, len(labels))))
                expected = oracle_fills_subset(subset, model)
                assert model.fills_mask(sum(labels[v] for v in subset)) == expected
                assert model.fills_subset(subset) == expected
            for mask in model.maximal_non_filling_sets:
                chosen = {v for v, bit in labels.items() if mask & bit}
                assert not oracle_fills_subset(chosen, model)
                assert all(oracle_fills_subset(chosen | {v}, model) for v in labels
                           if v not in chosen)
    assert outcomes == {True, False}


def test_ring_windows_match_quadratic_sweep():
    rng = random.Random(9)
    outcomes = set()
    for n, N in ((3, 1), (4, 2), (5, 3)):
        fam = family(n, N)
        for _ in range(8):
            w = ring.bme_normal_form(_random_h(rng, N, rng.randint(1, 6)), fam)
            assert find_filling_blocks(w, fam.model) == oracle_find_filling_blocks(w, fam.model)
            for window in range(1, 3 * n * N + 4 * N + 1):
                got = check_window_property(w, window, fam.model)
                assert got == oracle_check_window_property(w, window, fam.model)
                if w.letter_length >= window:
                    outcomes.add(got)
    assert outcomes == {True, False}


def test_window_constant_check_matches_quadratic_sweep():
    rng = random.Random(13)
    for n, N in ((4, 1), (6, 2)):
        fam = family(n, N)
        hs = [_random_h(rng, N, rng.randint(1, 8)) for _ in range(10)]
        b = ring.constants(fam).b
        for window in (None, 1, 2 * n, 3 * n, b):
            expected = all(oracle_check_window_property(
                ring.bme_normal_form(h, fam), window or b, fam.model) for h in hs)
            assert window_constant_check(fam, hs, window) is expected


def test_check_window_property_guard_order(abc_model):
    unmerged = normal_word_from_pairs([("b", 1), ("c", 1), ("b", 1), ("a", 1)])
    for window in (0, -2):
        with pytest.raises(InputError, match="window length must be >= 1"):
            check_window_property(unmerged, window, abc_model)
    # Shorter than the window: true before the word is looked at.
    assert check_window_property(unmerged, 5, abc_model) is True
    assert check_window_property(normal_word_from_pairs([("z", 2)]), 3, abc_model) is True
    with pytest.raises(ContractError, match="requires a normal word, got 'b c b a'"):
        check_window_property(unmerged, 4, abc_model)
    with pytest.raises(InputError, match="unknown generator 'z'"):
        check_window_property(normal_word_from_pairs([("z", 2)]), 2, abc_model)


def test_window_constant_check_guard_order(monkeypatch):
    fam = family(4, 2)
    # The window is checked per form, so no form means no check.
    assert window_constant_check(fam, [], 0) is True
    assert window_constant_check(fam, iter(()), -1) is True
    with pytest.raises(InputError, match="window length must be >= 1, got 0"):
        window_constant_check(fam, ["w1"], 0)
    # Each form is parsed and expanded before its window is checked.
    with pytest.raises(InputError, match="generator index 3 out of range"):
        window_constant_check(fam, ["w3"], 0)
    with pytest.raises(ContractError, match="not freely reduced"):
        window_constant_check(fam, [((1, 1), (1, -1))], 0)
    hs = ["w1 w2^-1", "w2^3 w1"]
    for window in (1, 8, 16, None):
        assert window_constant_check(fam, hs, window) is window_constant_check(
            fam, [ring.parse_h_word(h, 2) for h in hs], window)
    # Normality is checked on the index syllables, after the length test.
    monkeypatch.setattr(ring, "_bme_pairs", lambda h, fam: [(0, 1), (0, 1)])
    assert window_constant_check(fam, ["w1"], 3) is True
    with pytest.raises(ContractError, match="requires a normal word, got 'g1 g1'"):
        window_constant_check(fam, ["w1"], 2)


def test_window_normality_errors_name_their_caller(abc_model, monkeypatch):
    unmerged = normal_word_from_pairs([("b", 1), ("c", 1), ("b", 1), ("a", 1)])
    with pytest.raises(ContractError, match="^check_window_property requires a normal word"):
        check_window_property(unmerged, 4, abc_model)
    monkeypatch.setattr(ring, "_bme_pairs", lambda h, fam: [(0, 1), (0, 1)])
    with pytest.raises(ContractError, match="^window_constant_check requires a normal word"):
        window_constant_check(family(4, 2), ["w1"], 2)


# -- B/M/E normal forms ------------------------------------------------------------


def test_bme_normal_form_matches_label_spelling():
    rng = random.Random(29)
    for n in range(2, 11):
        for N in range(1, 5):
            fam = family(n, N)
            for _ in range(6):
                h = _random_h(rng, N, rng.randint(0, 40))
                expected = oracle_bme_normal_form(h, fam)
                assert ring.bme_normal_form(h, fam) == expected, (n, N, h)
                text = ring.h_word_text(h)
                assert ring.bme_normal_form(text, fam) == oracle_bme_normal_form(text, fam)


def test_symbol_table_matches_blockwise_spelling():
    """The per-family symbol table against each symbol spelled from its
    kind's block, on every freely reduced h-word of at most 4 generators.
    Those words hold every symbol the table spells, unmerged subscripts +-N
    and merged ones +-(N - 1) among them, so a missing key fails here."""
    for n, N in ((3, 1), (4, 2), (5, 3)):
        fam = family(n, N)
        held = set()
        for h in ring._h_words_upto(N, 4):
            assert ring._bme_pairs(h, fam) == oracle_bme_pairs(h, fam), (n, N, h)
            held.update(ring.h_word_symbols(h))
        assert held == set(fam._symbol_syllables), (n, N)
        for kind in "BE":
            assert {(kind, N), (kind, -N)} <= held
            if N > 1:
                assert {(kind, N - 1), (kind, 1 - N)} <= held


# -- pinned ring-sweep outputs ------------------------------------------------------
# The sha256 of the four ring checks' outputs (and the B/M/E texts) on seeded
# h-words of 8/16/24 generators over the ring-sweep families.  A change that
# alters these outputs on purpose updates this value and says why.
RING_SHA256 = "d2903e978599a10e65401c225256f8a5b640d727a9d505f62403ed15808be541"


def test_ring_outputs_are_pinned():
    rng = random.Random(2024)
    digest = hashlib.sha256()
    for n, N in ((4, 1), (6, 2), (8, 2), (10, 2), (10, 3)):
        fam = family(n, N)
        digest.update(repr(verify_star(fam, min(3, n // 2))).encode())
        hs = [_random_h(rng, N, length) for length in (8, 16, 24) for _ in range(2)]
        digest.update(repr(verify_order_window(fam, hs)).encode())
        b = ring.constants(fam).b
        for h in hs:
            digest.update(ring.bme_normal_form(h, fam).to_text().encode())
            # The property is monotone in the window: pin the least one that holds.
            least = bisect_left(range(1, b + 1), True,
                                key=lambda window: window_constant_check(fam, [h], window))
            digest.update(repr((window_constant_check(fam, [h]), least)).encode())
            digest.update(repr(displacement_upper(h, fam)).encode())
    assert digest.hexdigest() == RING_SHA256


# -- span fold: star sweep, displacement bound -------------------------------------


def test_commutation_is_ring_disjointness():
    """Distinct ring generators commute exactly when their supports are
    disjoint by the ring geometry."""
    for n in range(2, 13):
        fam = family(n, 1)
        for u in fam.graph.vertices:
            for v in fam.graph.vertices:
                if u != v:
                    assert fam.graph.commutes(u, v) == supports_disjoint(
                        support_of(u, n), support_of(v, n), n), (n, u, v)


@pytest.mark.parametrize("n", range(2, 11))
def test_verify_star_matches_letter_fold(n):
    for N in range(1, 5):
        fam = family(n, N)
        for k in range(0, n // 2 + 1):
            assert verify_star(fam, k) == oracle_verify_star(fam, k), (n, N, k)


def test_verify_star_violations_match_letter_fold(monkeypatch):
    # Starting from wider curves makes spans escape the containers and fill
    # the surface, so both kinds of violation and their order are compared.
    starts = [
        TupleSpanState(contained_in=frozenset({("Y", 0), ("X", 0)}), misses=frozenset()),
        TupleSpanState(contained_in=frozenset({("X", 2), ("Y", 3)}),
                       misses=frozenset({("X", 0)})),
        TupleSpanState(contained_in=frozenset({("Y", 0), ("Y", 2)}), misses=frozenset()),
    ]
    kinds = set()
    for n, N in [(n, 2) for n in range(2, 11)] + [(5, 1), (2, 3)]:
        fam = family(n, N)
        for start in starts:
            start = TupleSpanState(*(frozenset((kind, i % n) for kind, i in part)
                                     for part in start))
            monkeypatch.setattr(ring, "alpha_state",
                                lambda fam, start=start: mask_state(start, fam))
            for k in range(0, min(n // 2, 3) + 1):
                report = verify_star(fam, k)
                assert report == oracle_verify_star(fam, k, start), (n, N, start, k)
                kinds.update(v[1] for v in report.violations)
    assert "span is the whole surface" in kinds
    assert any(kind.startswith("span escapes") for kind in kinds)


def test_verify_star_skips_sign_patterns_without_words(monkeypatch):
    """With N = 1 no word changes sign.  From a wider curve the mixed
    patterns (1, -1) and (-1, 1) escape both step-2 containers, but no word
    has them, so the sweep never reaches their states: it looks up one
    transition per pattern that has words, and only w1^2 and w1^-2 can be
    reported."""
    fam = family(4, 1)
    start = TupleSpanState(contained_in=frozenset({("Y", 0), ("X", 0)}), misses=frozenset())
    alpha = mask_state(start, fam)
    memo = ring._Transitions(fam)
    xbar, ybar = ring._containers(2, fam)
    for first, second in ((1, -1), (-1, 1)):
        span = memo[memo[alpha, second], first].contained_in
        assert span & ~xbar and span & ~ybar
    monkeypatch.setattr(ring, "alpha_state", lambda fam: alpha)
    looked_up = []

    class Spy(ring._Transitions):
        def __getitem__(self, key):
            looked_up.append(key)
            return super().__getitem__(key)

    monkeypatch.setattr(ring, "_Transitions", Spy)
    report = verify_star(fam, 2)
    assert report == oracle_verify_star(fam, 2, start)
    assert report.tested == 5
    assert {h for h, _ in report.violations} <= {"w1^2", "w1^-2"}
    assert looked_up == [(alpha, 1), (alpha, -1), (memo[alpha, 1], 1), (memo[alpha, -1], -1)]


def test_span_apply_h_matches_letter_fold():
    rng = random.Random(17)
    for n, N in ((3, 2), (5, 2), (8, 3)):
        fam = family(n, N)
        labels = [("X", i) for i in range(n)] + [("Y", i) for i in range(n)]
        for _ in range(40):
            state = TupleSpanState(
                contained_in=frozenset(rng.sample(labels, rng.randint(1, 3))),
                misses=frozenset(rng.sample(labels, rng.randint(0, 3))))
            h = _random_h(rng, N, rng.randint(0, 2 * n))
            assert span_apply_h(mask_state(state, fam), h, fam) == mask_state(
                oracle_span_apply_h(state, h, fam), fam)


def test_displacement_upper_matches_letter_fold():
    rng = random.Random(19)
    outcomes = {"bound": 0, "too long": 0}
    for n in range(2, 11):
        for N in (1, 2, 3):
            fam = family(n, N)
            for length in range(0, 2 * n + 3):
                for _ in range(3):
                    h = _random_h(rng, N, length)
                    got = _outcome(displacement_upper, h, fam)
                    expected = _outcome(oracle_displacement_upper, h, fam)
                    if expected[0] is InternalError:
                        # Only blocks longer than n//2 (odd n) leave the span
                        # improper; those now raise a contract error.
                        assert n % 2 == 1
                        assert got[0] is ContractError and "longer than n//2" in got[1]
                        outcomes["too long"] += 1
                    else:
                        assert got == expected
                        outcomes["bound"] += 1
    assert all(outcomes.values())


def test_bad_generator_index_in_tuple_h_words():
    """Every entry point that takes a tuple h-word refuses a generator index
    outside 1..N with the error that parsing its text gives, and a sign other
    than 1 or -1, before it spells or folds anything."""
    fam = family(4, 2)
    alpha = ring.alpha_state(fam)
    entry_points = {
        "bme_normal_form": lambda h: ring.bme_normal_form(h, fam),
        "verify_order_window": lambda h: verify_order_window(fam, [h]),
        "window_constant_check": lambda h: window_constant_check(fam, [h]),
        "displacement_upper": lambda h: displacement_upper(h, fam),
        "span_apply_h": lambda h: span_apply_h(alpha, h, fam),
    }
    for idx in (5, 3, 0, -1):
        message = f"generator index {idx} out of range 1..2"
        if idx > 0:
            assert _outcome(ring.parse_h_word, f"w1 w{idx}", 2) == (InputError, message)
        for name, call in entry_points.items():
            for h in (((idx, 1),), ((1, 1), (idx, -1), (2, 1))):
                assert _outcome(call, h) == (InputError, message), (name, h)
    for sign in (2, 0, -2):
        message = f"generator sign {sign} is not 1 or -1"
        for name, call in entry_points.items():
            for h in (((1, sign),), ((1, 1), (2, sign), (2, 1))):
                assert _outcome(call, h) == (InputError, message), (name, h)


def test_displacement_upper_input_errors_match_letter_fold():
    fam = family(4, 2)
    for h in (((1, 1), (1, -1)), ((3, 1),), ((1, 1), (5, -1), (2, 1)), "w1 w3", "w1^0"):
        got = _outcome(displacement_upper, h, fam)
        assert got == _outcome(oracle_displacement_upper, h, fam)
        assert got[0] in (ContractError, InputError)


# -- order window ------------------------------------------------------------------


def test_order_window_violations_match_pair_scan(monkeypatch):
    rng = random.Random(23)
    found = 0
    for n, N in ((2, 1), (3, 2), (4, 2), (6, 3)):
        fam = family(n, N)
        hs = [_random_h(rng, N, rng.randint(0, 6)) for _ in range(6)] + ["w1 w1", "w1^-3"]
        assert verify_order_window(fam, hs) == oracle_verify_order_window(fam, hs)
        c = ring.constants(fam)
        for L in (0, 1, 2, 3, 5, 8, 13):
            small = FamilyConstants(b=c.b, d=c.d, L=L, ell_prime=c.ell_prime, ell=c.ell)
            monkeypatch.setattr(ring, "constants", lambda fam, small=small: small)
            report = verify_order_window(fam, hs)
            assert report == oracle_verify_order_window(fam, hs), (n, N, L)
            found += len(report.violations)
            monkeypatch.undo()
    assert found


def test_order_window_skips_only_forms_without_distant_pairs(monkeypatch):
    """A form of at most L + 1 syllables has no two syllables more than L
    apart, so its syllable order is never built.  Over family (4, 1) the
    first and last of the 8 syllables of w1^-1 are unordered, so at L = 6
    that form, of exactly L + 2 syllables, has a violation."""
    fam = family(4, 1)
    hs = ["", "w1", "w1^-1", "w1^2", "w1^-3"]
    sizes = [len(ring.bme_normal_form(h, fam).syllables) for h in hs]
    assert sizes == [0, 8, 8, 16, 24]
    built = []
    masks = ring._predecessor_masks
    monkeypatch.setattr(ring, "_predecessor_masks", lambda zs, graph: (
        built.append(len(zs)), masks(zs, graph))[1])
    c = ring.constants(fam)
    for L in (5, 6, 7, 15):
        small = FamilyConstants(b=c.b, d=c.d, L=L, ell_prime=c.ell_prime, ell=c.ell)
        monkeypatch.setattr(ring, "constants", lambda fam, small=small: small)
        built.clear()
        report = verify_order_window(fam, hs)
        assert report == oracle_verify_order_window(fam, hs), L
        assert built == [size for size in sizes if size > L + 1], L
        assert (L <= 6) == (("w1^-1", 0, 7) in report.violations), L
