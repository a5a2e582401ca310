from __future__ import annotations

import itertools
import random

import pytest

from raagcc.errors import BudgetExceededError, ContractError, InputError
from raagcc.graphs import DefiningGraph
from raagcc.complexes import (
    BUDGET_EXCEEDED,
    VERIFIED,
    LabeledCubeComplex,
    SubgroupCore,
    build_core,
    check_local_isometry,
    enumerate_elements,
    membership,
    salvetti,
)
from raagcc.words import (
    EPSILON,
    concat,
    invert,
    normal_word_from_pairs,
    normalize,
    parse_word,
    word_from_pairs,
)

import oracles


@pytest.fixture(scope="module")
def ex2_core(abc_graph) -> SubgroupCore:
    gens = [parse_word("b c a", abc_graph), parse_word("b a b c", abc_graph)]
    return build_core(abc_graph, gens, budget=10_000)


# -- salvetti -------------------------------------------------------------------

def test_salvetti_edgeless():
    graph = DefiningGraph.build("pqr", [])
    s = salvetti(graph)
    assert len(s.vertices) == 1 and len(s.edges) == 3 and len(s.squares) == 0
    assert check_local_isometry(s).ok


def test_salvetti_one_edge(abc_graph):
    s = salvetti(abc_graph)
    assert (len(s.vertices), len(s.edges), len(s.squares)) == (1, 3, 1)
    assert check_local_isometry(s).ok


def test_salvetti_triangle():
    graph = DefiningGraph.build("xyz", [("x", "y"), ("y", "z"), ("x", "z")])
    s = salvetti(graph)
    assert (len(s.vertices), len(s.edges), len(s.squares)) == (1, 3, 3)
    assert check_local_isometry(s).ok


def test_salvetti_membership_accepts_everything(abc_graph):
    core = SubgroupCore(complex=salvetti(abc_graph), status=VERIFIED)
    rng = random.Random(31)
    labels = abc_graph.vertices
    for _ in range(100):
        w = word_from_pairs([(rng.choice(labels), rng.choice((1, -1)))
                             for _ in range(rng.randrange(0, 8))])
        assert membership(core, w)


# -- link checking -----------------------------------------------------------------

def test_foldable_pair_detected(abc_graph):
    # Two outgoing b-edges at the basepoint: the link is not injective.
    complex_ = LabeledCubeComplex(
        graph=abc_graph,
        vertices=(0, 1, 2),
        edges=((0, 0, 1, "b"), (1, 0, 2, "b")),
        squares=frozenset(),
        basepoint=0,
    )
    report = check_local_isometry(complex_)
    assert report.foldable == ((0, "b", 0, (0, 1)),)


def test_unfilled_corner_detected(abc_graph):
    # Commuting b and c edges at a vertex with no square.
    complex_ = LabeledCubeComplex(
        graph=abc_graph,
        vertices=(0, 1, 2),
        edges=((0, 0, 1, "b"), (1, 0, 2, "c")),
        squares=frozenset(),
        basepoint=0,
    )
    report = check_local_isometry(complex_)
    assert report.foldable == ()
    assert len(report.unfilled) == 1 and report.unfilled[0][0] == 0


# -- the two-generator worked example ------------------------------------------------

def test_example_core_is_verified(ex2_core):
    assert ex2_core.status == VERIFIED
    assert check_local_isometry(ex2_core.complex).ok
    # Four squares, as in the worked construction (diagnostic, not semantic).
    assert ex2_core.diagnostics["square_count"] == 4


def test_example_core_membership(abc_graph, ex2_core):
    assert not membership(ex2_core, parse_word("b^2 c^2 a^2", abc_graph))
    assert membership(ex2_core, EPSILON)
    u = parse_word("b c a", abc_graph)
    v = parse_word("b a b c", abc_graph)
    symbols = [u, invert(u), v, invert(v)]
    for k in (1, 2, 3):
        for combo in itertools.product(symbols, repeat=k):
            word = combo[0]
            for part in combo[1:]:
                word = concat(word, part)
            assert membership(ex2_core, word)


def test_example_core_intermediate_link_failure(ex2_core):
    """Dropping the square that fills the basepoint corner reproduces the
    intermediate stage: the link at the basepoint stops being full."""
    cx = ex2_core.complex
    found = False
    for square in cx.squares:
        reduced = LabeledCubeComplex(
            graph=cx.graph, vertices=cx.vertices, edges=cx.edges,
            squares=cx.squares - {square}, basepoint=cx.basepoint)
        report = check_local_isometry(reduced)
        at_base = [c for c in report.unfilled if c[0] == cx.basepoint]
        if len(at_base) == 1 and not report.foldable:
            found = True
    assert found


def test_extension_with_new_generator(abc_graph, ex2_core):
    extended = build_core(abc_graph, [parse_word("b^2 c^2 a^2", abc_graph)],
                          budget=20_000, extend=ex2_core.complex)
    assert extended.status == VERIFIED
    assert membership(extended, parse_word("b^2 c^2 a^2", abc_graph))
    for text in ("b c a", "b a b c"):
        assert membership(extended, parse_word(text, abc_graph))
    print(f"  [diagnostic] extension folds={extended.diagnostics['folds']} "
          f"squares_added={extended.diagnostics['squares_added']} (non-blocking)")
    # The scratch build of the second worked generating set also stabilizes.
    gens = [parse_word(t, abc_graph) for t in ("a b c", "c b a", "a^2 b^2 c^2")]
    scratch = build_core(abc_graph, gens, budget=20_000)
    assert scratch.status == VERIFIED


def test_empty_generator_word_is_noop(abc_graph):
    gens = [Wd for Wd in (parse_word("", abc_graph), parse_word("b c a", abc_graph))]
    core = build_core(abc_graph, gens, budget=1_000)
    assert core.status == VERIFIED
    assert membership(core, parse_word("b c a", abc_graph))


def test_build_core_input_errors(abc_graph):
    with pytest.raises(InputError):
        build_core(abc_graph, [], budget=100)
    with pytest.raises(InputError):
        build_core(abc_graph, [parse_word("a", abc_graph)], budget=0)


def test_full_generator_set_gives_salvetti(abc_graph):
    gens = [parse_word(t, abc_graph) for t in ("a", "b", "c")]
    core = build_core(abc_graph, gens, budget=1_000)
    assert core.status == VERIFIED
    assert core.complex == salvetti(abc_graph).canonical_form()


def test_budget_exhaustion_is_inconclusive(abc_graph):
    gens = [parse_word(t, abc_graph) for t in ("a b c", "c a b", "a^2 b c")]
    core = build_core(abc_graph, gens, budget=60)
    assert core.status == BUDGET_EXCEEDED
    with pytest.raises(ContractError):
        membership(core, parse_word("a", abc_graph))
    with pytest.raises(ContractError):
        enumerate_elements(core, 3)


# -- folding confluence ----------------------------------------------------------------

def test_fold_fill_confluence(abc_graph):
    gens = [parse_word("b c a", abc_graph), parse_word("b a b c", abc_graph)]
    reference = build_core(abc_graph, gens, budget=10_000).complex
    for seed in range(8):
        other = build_core(abc_graph, gens, budget=10_000,
                           rng=random.Random(seed)).complex
        assert other == reference
    permuted = build_core(abc_graph, list(reversed(gens)), budget=10_000).complex
    assert permuted == reference


def test_confluence_on_random_small_inputs():
    rng = random.Random(99)
    from conftest import GRAPH_ZOO
    for trial in range(15):
        graph = GRAPH_ZOO[rng.randrange(len(GRAPH_ZOO))]
        labels = graph.vertices
        gens = []
        for _ in range(rng.randrange(1, 3)):
            pairs = [(rng.choice(labels), rng.choice((1, -1)))
                     for _ in range(rng.randrange(1, 5))]
            gens.append(word_from_pairs(pairs))
        reference = build_core(graph, gens, budget=3_000)
        if reference.status != VERIFIED or len(reference.complex.vertices) > 50:
            continue
        for seed in (1, 2):
            again = build_core(graph, gens, budget=3_000, rng=random.Random(seed))
            assert again.complex == reference.complex


# -- enumeration --------------------------------------------------------------------

def test_enumerate_zero_length(ex2_core):
    assert enumerate_elements(ex2_core, 0) == (EPSILON,)


def test_enumerate_contains_generators_and_inverses(abc_graph, ex2_core):
    words = {w.to_text() for w in enumerate_elements(ex2_core, 3)}
    assert normalize(parse_word("b c a", abc_graph), abc_graph).to_text() in words
    assert normalize(invert(parse_word("b c a", abc_graph)), abc_graph).to_text() in words


def test_enumerate_whole_group_on_commuting_square():
    """Enumerating the one-vertex complex of a 4-cycle graph lists every
    group element exactly once, in spite of the rich commutation."""
    cyc = DefiningGraph.build("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    core = SubgroupCore(complex=salvetti(cyc).canonical_form(), status=VERIFIED)
    for max_len in (3, 4):
        got = [w.pairs() for w in enumerate_elements(core, max_len)]
        assert len(got) == len(set(got))
        expected = {EPSILON.pairs()}
        for pairs in oracles.normal_words_upto(cyc, max_len):
            expected.add(normalize(normal_word_from_pairs(pairs), cyc).pairs())
        assert set(got) == expected


def test_enumerate_matches_membership_filter(abc_graph, ex2_core):
    for max_len in (4, 5):
        expected = {EPSILON.pairs()}
        for pairs in oracles.normal_words_upto(abc_graph, max_len):
            word = normal_word_from_pairs(pairs)
            if membership(ex2_core, word):
                expected.add(normalize(word, abc_graph).pairs())
        got = {w.pairs() for w in enumerate_elements(ex2_core, max_len)}
        assert got == expected


def test_enumerate_is_length_then_lex_sorted(abc_graph, ex2_core):
    words = enumerate_elements(ex2_core, 6)
    def key(w):
        return (w.letter_length,
                tuple((abc_graph.index(l.generator), 0 if l.sign > 0 else 1)
                      for l in w.letters()))
    keys = [key(w) for w in words]
    assert keys == sorted(keys)


def test_enumerate_members_pass_membership(ex2_core):
    for w in enumerate_elements(ex2_core, 6):
        assert membership(ex2_core, w)


def test_enumerate_budget(ex2_core):
    with pytest.raises(BudgetExceededError):
        enumerate_elements(ex2_core, 20, budget=50)


def test_trace_rejection_matches_enumeration(abc_graph, ex2_core):
    """1000 random geodesic words: the membership trace agrees with the
    enumerated language at every length."""
    rng = random.Random(211)
    labels = abc_graph.vertices
    language = {w.pairs() for w in enumerate_elements(ex2_core, 6)}
    for _ in range(1000):
        pairs = [(rng.choice(labels), rng.choice((1, -1)))
                 for _ in range(rng.randrange(0, 7))]
        candidate = normalize(word_from_pairs(pairs), abc_graph)
        if candidate.letter_length > 6:
            continue
        assert membership(ex2_core, candidate) == (candidate.pairs() in language)


def test_new_generator_strictly_enlarges_language(abc_graph, ex2_core):
    """Appending a trace-rejected word to the generators and rebuilding
    strictly enlarges the enumerated language (sampled; rebuilds that do not
    stabilize in budget are skipped)."""
    rng = random.Random(117)
    labels = abc_graph.vertices
    base_gens = [parse_word("b c a", abc_graph), parse_word("b a b c", abc_graph)]
    base_language = {w.pairs() for w in enumerate_elements(ex2_core, 6)}
    tried = 0
    enlarged_count = 0
    while tried < 20:
        pairs = [(rng.choice(labels), rng.choice((1, -1)))
                 for _ in range(rng.randrange(1, 6))]
        candidate = normalize(word_from_pairs(pairs), abc_graph)
        if candidate == EPSILON or membership(ex2_core, candidate):
            continue
        tried += 1
        rebuilt = build_core(abc_graph, base_gens + [candidate.as_word()], budget=4_000)
        if rebuilt.status != VERIFIED:
            continue
        enlarged = {w.pairs() for w in enumerate_elements(rebuilt, 6)}
        assert base_language < enlarged, candidate.to_text()
        enlarged_count += 1
    assert enlarged_count >= 10


# -- serialization --------------------------------------------------------------------

def test_core_json_round_trip(ex2_core):
    data = ex2_core.complex.to_json_dict()
    again = LabeledCubeComplex.from_json_dict(data)
    assert again.canonical_form() == ex2_core.complex


def test_core_dot_round_trip(ex2_core):
    text = ex2_core.complex.to_dot()
    again = LabeledCubeComplex.from_dot(text)
    assert again.canonical_form() == ex2_core.complex


def test_dot_rejects_unrecognised_lines(ex2_core):
    lines = ex2_core.complex.to_dot().splitlines()
    for stray in ("  stray;", "  // comment: x", "  0 -> 1 [label=a];", "  7 [color=red];"):
        with pytest.raises(InputError, match="unrecognised line"):
            LabeledCubeComplex.from_dot("\n".join(lines[:-1] + [stray, lines[-1]]) + "\n")
    with pytest.raises(InputError, match="schema"):
        LabeledCubeComplex.from_dot("\n".join(lines).replace("raagcc-dot-v1", "raagcc-dot-v9"))


def test_dot_of_edgeless_salvetti():
    graph = DefiningGraph.build("pq", [])
    text = salvetti(graph).to_dot()
    arrows = [line for line in text.splitlines() if "->" in line]
    assert len(arrows) == 2
    assert all("0 -> 0" in line for line in arrows)
