from __future__ import annotations

import dataclasses
import itertools
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from raagcc.certify import extract_generators
from raagcc.errors import BudgetExceededError, ContractError, InputError, InternalError
from raagcc.family import family
from raagcc.graphs import DefiningGraph
from raagcc.complexes import (
    BUDGET_EXCEEDED,
    VERIFIED,
    LabeledCubeComplex,
    SubgroupCore,
    _Builder,
    _SpellingAutomaton,
    _corner,
    _link_violations,
    build_core,
    check_local_isometry,
    count_elements,
    enumerate_elements,
    iter_loops_by_length,
    membership,
    salvetti,
)
from raagcc.words import (
    EPSILON,
    _indexed,
    concat,
    invert,
    min_class,
    normal_word_from_pairs,
    normalize,
    parse_word,
    word_from_pairs,
)

import oracles
from conftest import GRAPH_ZOO, ShuffledBuilder, build_shuffled, catalog_sample


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
    assert core.complex == oracles.oracle_canonical_form(salvetti(abc_graph))


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
        other = build_shuffled(abc_graph, gens, 10_000, random.Random(seed)).complex
        assert other == reference
    # The shuffle does reorder: here a fill pass attaches its squares in a
    # new order, and on the refuted augmentation a fold pops an entry other
    # than the last.
    builder = ShuffledBuilder(abc_graph, gens, random.Random(3))
    assert builder.grow(10_000) == VERIFIED and builder.reordered >= 1
    augmented = [parse_word(t, abc_graph) for t in ("a b c", "c a b", "a^2 b c")]
    assert ShuffledBuilder(abc_graph, augmented, random.Random(3)).collisions.moved >= 1
    permuted = build_core(abc_graph, list(reversed(gens)), budget=10_000).complex
    assert permuted == reference


def test_confluence_on_random_small_inputs():
    rng = random.Random(99)
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
            again = build_shuffled(graph, gens, 3_000, random.Random(seed))
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
    core = SubgroupCore(complex=oracles.oracle_canonical_form(salvetti(cyc)), status=VERIFIED)
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


def test_enumerate_needs_no_sort_on_worked_cores(abc_graph):
    """The walk already yields each length in letter order (generator
    index, positive sign first), so the unsorted output equals the output
    sorted by the per-letter key."""
    def key(w):
        return (w.letter_length,
                tuple(item for s in w.syllables
                      for item in [(abc_graph.index(s.generator),
                                    0 if s.exponent > 0 else 1)] * abs(s.exponent)))

    for texts in (("b c a", "b a b c"), ("b c a", "b a b c", "b^2 c^2 a^2")):
        core = build_core(abc_graph, [parse_word(t, abc_graph) for t in texts])
        assert core.verified
        words = enumerate_elements(core, 14)
        assert list(words) == sorted(words, key=key)
        assert len(words) > 150


def test_enumerate_members_pass_membership(ex2_core):
    for w in enumerate_elements(ex2_core, 6):
        assert membership(ex2_core, w)


def test_enumerate_budget(ex2_core):
    with pytest.raises(BudgetExceededError):
        enumerate_elements(ex2_core, 20, budget=50)


def test_enumerate_rejects_a_nonpositive_budget(ex2_core):
    # A budget of 0 was once a budget stop, with partial count 1.
    for budget in (0, -3):
        with pytest.raises(InputError, match="budget must be positive"):
            enumerate_elements(ex2_core, 2, budget=budget)


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


def test_tracing_on_unordered_labels_and_sparse_vertex_ids():
    """``membership``, ``enumerate_elements`` and ``min_class`` on a graph
    declared out of alphabetical order, and on the same core stored with
    vertex ids 10v + 7, pinned to the answers of the (vertex, label) trace
    maps they replaced; ``count_elements`` and ``extract_generators`` give
    the two numberings the same answers.  The letter table is keyed by
    vertex id, whatever the ids are."""
    graph = DefiningGraph.build("dbca", [("d", "b"), ("b", "c"), ("c", "a")])
    core = build_core(graph, [parse_word("a d^-1 c", graph), parse_word("b a b", graph)])
    assert (core.status, len(core.complex.vertices)) == (VERIFIED, 12)
    data = core.complex.to_json_dict()
    data["vertices"] = [10 * v + 7 for v in data["vertices"]]
    data["basepoint"] = 10 * data["basepoint"] + 7
    data["edges"] = [[eid, 10 * src + 7, 10 * dst + 7, label]
                     for eid, src, dst, label in data["edges"]]
    data["squares"] = [[[10 * v + 7, a, b] for v, a, b in sq] for sq in data["squares"]]
    sparse = SubgroupCore(LabeledCubeComplex.from_json_dict(data), VERIFIED)
    assert check_local_isometry(sparse.complex).ok
    words = ["a d^-1 c", "b a b", "c^-1 d a^-1", "a d^-1 c b a b", "b a b a d^-1 c",
             "a d^-1 c a d^-1 c", "b a^2 b", "a", "d^-1 c a",
             "b a b c^-1 d a^-1 b^-1 a^-1 b^-1"]
    members = [True, True, True, True, True, True, False, False, False, True]
    elements = [
        "", "b a b", "b^-1 a^-1 b^-1", "c^-1 d a^-1", "a d^-1 c", "b c^-1 a d b a^-1",
        "b a b^2 a b", "b a b a d^-1 c", "b^-1 c^-1 a^-1 d b^-1 a^-1",
        "b^-1 a^-1 b^-2 a^-1 b^-1", "b^-1 a^-1 b^-1 a d^-1 c", "c^-1 d c^-1 a^-1 d a^-1",
        "c^-1 d a^-1 b a b", "c^-1 d a^-1 b^-1 a^-1 b^-1", "a d^-1 b c a b",
        "a d^-1 b^-1 c a^-1 b^-1", "a d^-1 c a d^-1 c"]
    for c in (core, sparse):
        assert [membership(c, parse_word(w, graph)) for w in words] == members
        assert [w.to_text() for w in enumerate_elements(c, 6)] == elements
    assert count_elements(sparse, 9) == count_elements(core, 9) == len(enumerate_elements(core, 9))
    assert extract_generators(sparse) == extract_generators(core) != ()
    classes = {
        "a d b c a b": ["a d b c a b", "a d b a b c", "a d b a c b", "a d c b a b",
                        "a b d c a b", "a b d a b c", "a b d a c b"],
        "c^2 a b^-1 d": ["c^2 a d b^-1", "c^2 a b^-1 d", "a b^-1 c^2 d", "a c^2 d b^-1",
                         "a c^2 b^-1 d"],
        "b a d c": ["b a d c"],
    }
    for text, expected in classes.items():
        assert [w.to_text() for w in min_class(parse_word(text, graph), graph)] == expected


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


# -- the loop walk against the scan walk it replaced -----------------------------

def _walk(walk, complex_: LabeledCubeComplex, max_len: int, budget: int | None):
    """Every level a walk yields, and the partial count if it ran out of budget."""
    levels = []
    try:
        for length, loops in walk(complex_, max_len, node_budget=budget):
            levels.append((length, loops))
    except BudgetExceededError as exc:
        return levels, exc.partial_count
    return levels, None


def _nodes_through_levels(complex_: LabeledCubeComplex, max_len: int) -> list[int]:
    """Walk nodes (the root included) through each length, counted over the
    spelling automaton; the callers confirm every level end on the oracle."""
    auto = _SpellingAutomaton(complex_)
    counts = {auto.start: 1}
    through = [1]
    for _ in range(max_len):
        auto.expand()
        nxt: dict[int, int] = {}
        for state, n in counts.items():
            for succ in auto.table[state]:
                nxt[succ] = nxt.get(succ, 0) + n
        counts = nxt
        through.append(through[-1] + sum(nxt.values()))
    return through


NON_STABILISING = ("b d c^-1 a", "d a c^-1 b")  # over the 4-cycle graph


def _walk_cores():
    """Partial and verified cores of seeded subgroups of every zoo graph, and
    of the non-stabilising 4-cycle subgroup, at the stage budgets ``certify``
    uses."""
    rng = random.Random(4)
    problems = []
    for graph in GRAPH_ZOO:
        labels = graph.vertices
        for _ in range(4):
            problems.append((graph, [
                word_from_pairs([(rng.choice(labels), rng.choice((1, -1)))
                                 for _ in range(rng.randint(3, 6))])
                for _ in range(2)]))
    cycle4 = GRAPH_ZOO[4]
    problems.append((cycle4, [parse_word(t, cycle4) for t in NON_STABILISING]))
    for graph, gens in problems:
        for budget in (256, 1_024, 2_000):
            core = build_core(graph, gens, budget=budget)
            yield core
            if core.verified:
                break


def test_loop_walk_matches_scan_oracle():
    """Level by level, the automaton walk yields what the scan walk yields,
    and runs out of budget at the same node with the same partial count,
    for budgets that end mid-level and budgets that end at a level's end."""
    statuses = {VERIFIED: 0, BUDGET_EXCEEDED: 0}
    level_ends = mid_levels = 0
    for core in _walk_cores():
        statuses[core.status] += 1
        complex_ = core.complex
        max_len = 3 * (len(complex_.vertices) + 1)
        through = _nodes_through_levels(complex_, min(max_len, 40))
        budgets = [None] if through[-1] <= 3_000 else []
        grown = [n for n in range(1, len(through) - 1)
                 if 20 <= through[n] <= 3_000 and through[n + 1] > through[n]]
        if grown:
            n = grown[-1]
            end, mid = through[n], (through[n] + through[n + 1]) // 2
            # The oracle confirms the level end: it yields level n, then
            # runs out in level n + 1.
            levels, partial_count = _walk(oracles.oracle_loops_by_length, complex_, max_len, end)
            assert len(levels) == n + 1 and partial_count is not None
            budgets += [end, end - 1, mid]
            level_ends += 1
            mid_levels += mid > end
        for budget in budgets:
            expected = _walk(oracles.oracle_loops_by_length, complex_, max_len, budget)
            assert _walk(iter_loops_by_length, complex_, max_len, budget) == expected, \
                (complex_.graph, budget)
    assert statuses[VERIFIED] >= 10 and statuses[BUDGET_EXCEEDED] >= 10, statuses
    assert level_ends >= 20 and mid_levels >= 20, (level_ends, mid_levels)


def test_node_budget_boundary_at_level_ends(abc_graph, ex2_core):
    """A budget equal to the node count through level n yields level n and
    raises in level n + 1; one node less raises in level n.  The partial
    count matches the scan walk's each time."""
    cycle4 = GRAPH_ZOO[4]
    partial = build_core(cycle4, [parse_word(t, cycle4) for t in NON_STABILISING], budget=256)
    assert partial.status == BUDGET_EXCEEDED
    for complex_ in (ex2_core.complex, partial.complex):
        through = _nodes_through_levels(complex_, 12)
        for n in range(2, 11):
            assert through[n + 1] > through[n]
            for budget, last_level in ((through[n], n), (through[n] - 1, n - 1)):
                got, partial_count = _walk(iter_loops_by_length, complex_, 12, budget)
                assert [length for length, _ in got] == list(range(last_level + 1))
                assert partial_count is not None
                assert (got, partial_count) == _walk(oracles.oracle_loops_by_length,
                                                     complex_, 12, budget)
    # Budgets below the root's own node, with and without a first level.
    bare = LabeledCubeComplex(graph=abc_graph, vertices=(0,), edges=(),
                              squares=frozenset(), basepoint=0)
    for complex_, budget in itertools.product((ex2_core.complex, bare), (-1, 0, 1)):
        assert _walk(iter_loops_by_length, complex_, 3, budget) == \
            _walk(oracles.oracle_loops_by_length, complex_, 3, budget)


# -- serialization --------------------------------------------------------------------

def test_core_json_round_trip(ex2_core):
    data = ex2_core.complex.to_json_dict()
    again = LabeledCubeComplex.from_json_dict(data)
    assert oracles.oracle_canonical_form(again) == ex2_core.complex


def test_stored_square_naming_unknown_cells_is_input_error(ex2_core):
    """A stored square corner whose end names an unknown edge, whose vertex
    is undeclared, or whose end has an endpoint other than 0 or 1 is
    refused by ``square_ends`` as the core loads."""
    data = ex2_core.complex.to_json_dict()
    square, *others = data["squares"]
    unknown_edge = max(eid for eid, _, _, _ in data["edges"]) + 1
    unknown_vertex = max(data["vertices"]) + 1

    def load(i, corner):
        forged = square[:i] + [corner] + square[i + 1:]
        return LabeledCubeComplex.from_json_dict({**data, "squares": others + [forged]})

    for i, (v, a, b) in enumerate(square):
        with pytest.raises(InputError, match=f"unknown edge {unknown_edge}$"):
            load(i, [v, [unknown_edge, a[1]], b])
        with pytest.raises(InputError, match=f"corner at {unknown_vertex} has an edge-end "
                                             "at another vertex"):
            load(i, [unknown_vertex, a, b])
        with pytest.raises(InputError, match="endpoint other than 0 or 1"):
            load(i, [v, a, [b[0], 5]])
        for endpoint in (-3, -2, -1, 2, 3):
            with pytest.raises(InputError, match="^invalid core: "):
                load(i, [v, [a[0], endpoint], b])
    assert LabeledCubeComplex.from_json_dict(data) == ex2_core.complex


def test_stored_square_endpoint_out_of_range_is_named(ex2_core):
    """An endpoint other than 0 or 1 on either end of any corner is refused
    as such, never read as an index into the edge's (source, target, label)
    tuple and refused later for another reason."""
    data = ex2_core.complex.to_json_dict()
    square, *others = data["squares"]
    for i, (v, a, b) in enumerate(square):
        for endpoint in (-3, -2, -1, 2, 3):
            for corner in ([v, [a[0], endpoint], b], [v, a, [b[0], endpoint]]):
                forged = square[:i] + [corner] + square[i + 1:]
                with pytest.raises(InputError, match="^invalid core: a square corner has an "
                                                     "endpoint other than 0 or 1$"):
                    LabeledCubeComplex.from_json_dict({**data, "squares": others + [forged]})


def test_core_dot_round_trip(ex2_core):
    text = ex2_core.complex.to_dot()
    again = oracles.oracle_from_dot(text)
    assert oracles.oracle_canonical_form(again) == ex2_core.complex


def test_dot_rejects_unrecognised_lines(ex2_core):
    lines = ex2_core.complex.to_dot().splitlines()
    for stray in ("  stray;", "  // comment: x", "  0 -> 1 [label=a];", "  7 [color=red];"):
        with pytest.raises(InputError, match="unrecognised line"):
            oracles.oracle_from_dot("\n".join(lines[:-1] + [stray, lines[-1]]) + "\n")
    with pytest.raises(InputError, match="schema"):
        oracles.oracle_from_dot("\n".join(lines).replace("raagcc-dot-v1", "raagcc-dot-v9"))


def test_dot_of_edgeless_salvetti():
    graph = DefiningGraph.build("pq", [])
    text = salvetti(graph).to_dot()
    arrows = [line for line in text.splitlines() if "->" in line]
    assert len(arrows) == 2
    assert all("0 -> 0" in line for line in arrows)


# -- canonical form under renumbering ----------------------------------------------


def _verified_cores() -> list[LabeledCubeComplex]:
    """Verified cores of seeded random subgroups over the graph zoo, the
    worked cores, and the ring family's core for n = 3."""
    rng = random.Random(131)
    cores = []
    for graph in GRAPH_ZOO:
        for _ in range(6):
            gens = [word_from_pairs([(rng.choice(graph.vertices), rng.choice((1, -1)))
                                     for _ in range(rng.randrange(2, 7))])
                    for _ in range(rng.randrange(1, 4))]
            cores.append(build_core(graph, gens, budget=400))
    abc = DefiningGraph.build("abc", [("b", "c")])
    worked = [parse_word(t, abc) for t in ("b c a", "b a b c")]
    cores.append(build_core(abc, worked, budget=10_000))
    cores.append(build_core(abc, worked + [parse_word("b^2 c^2 a^2", abc)], budget=10_000))
    fam = family(3, 1)
    cores.append(build_core(fam.graph, [w.as_word() for w in fam.generators], budget=3_000))
    return [core.complex for core in cores if core.status == VERIFIED]


VERIFIED_CORES = _verified_cores()


@st.composite
def renumbered_core(draw):
    """A verified core and a copy with fresh vertex and edge ids, listed in
    a shuffled order."""
    complex_ = draw(st.sampled_from(VERIFIED_CORES))
    ids = st.integers(0, 10 ** 6)
    vmap = dict(zip(complex_.vertices, draw(st.lists(
        ids, min_size=len(complex_.vertices), max_size=len(complex_.vertices), unique=True))))
    emap = dict(zip((e[0] for e in complex_.edges), draw(st.lists(
        ids, min_size=len(complex_.edges), max_size=len(complex_.edges), unique=True))))
    edges = [(emap[eid], vmap[src], vmap[dst], label)
             for eid, src, dst, label in complex_.edges]
    squares = frozenset(
        frozenset(_corner(vmap[v], (emap[a[0]], a[1]), (emap[b[0]], b[1])) for v, (a, b) in sq)
        for sq in complex_.squares)
    renumbered = LabeledCubeComplex(
        graph=complex_.graph, vertices=tuple(draw(st.permutations(list(vmap.values())))),
        edges=tuple(draw(st.permutations(edges))), squares=squares,
        basepoint=vmap[complex_.basepoint])
    return complex_, renumbered


def test_verified_core_sample_is_varied():
    assert len(VERIFIED_CORES) >= 20
    assert max(len(c.vertices) for c in VERIFIED_CORES) >= 15
    assert sum(1 for c in VERIFIED_CORES if c.squares) >= 5


@settings(max_examples=150, deadline=None, derandomize=True)
@given(renumbered_core())
def test_canonical_form_ignores_numbering(pair):
    """Verified-core reports are byte-identical because the canonical form
    does not depend on how the cells were numbered."""
    complex_, renumbered = pair
    canonical = oracles.oracle_canonical_form(renumbered)
    assert canonical == oracles.oracle_canonical_form(complex_) == complex_
    assert canonical.to_json_dict() == complex_.to_json_dict()


# -- the incremental builder against the rebuilding oracle --------------------------

def _differential_problems() -> list[tuple[DefiningGraph, list, tuple[int, ...]]]:
    """Problems and their stage budgets: seeded subgroups over the graph zoo
    and the ring family's generators for (3,1), (3,2) and (4,1), at small
    stages, and a seeded sample of the certify catalog, three problems per
    graph and stored verdict, normalized as ``certify`` builds them, at the
    stages ``certify`` uses."""
    rng = random.Random(17)
    problems = []
    for graph in GRAPH_ZOO:
        labels = graph.vertices
        for _ in range(5):
            problems.append((graph, [
                word_from_pairs([(rng.choice(labels), rng.choice((1, -1)))
                                 for _ in range(rng.randint(2, 7))])
                for _ in range(rng.randint(1, 3))], (32, 256)))
    for n, N in ((3, 1), (3, 2), (4, 1)):
        fam = family(n, N)
        problems.append((fam.graph, [w.as_word() for w in fam.generators], (32, 256, 2_000)))
    for graph, gens in catalog_sample(rng):
        problems.append((graph, gens, (256, 1_024, 2_000)))
    return problems


def test_builder_matches_rebuilding_oracle():
    """Every stage, grown on one builder as ``certify`` grows it, is the
    same core as a fresh build at its budget, cell for cell and counter
    for counter; it matches the oracle builder in status and every
    diagnostic, and equals the canonical form of the oracle's complex;
    and on partial stages a randomized processing order changes
    neither."""
    partial = 0
    for graph, gens, stages in _differential_problems():
        # Before any fill round, too.
        before_filling = oracles.oracle_build_core(graph, gens, budget=1).complex
        assert build_core(graph, gens, budget=1).complex \
            == oracles.oracle_canonical_form(before_filling)
        builder = _Builder(graph, [_indexed(w, graph) for w in gens])
        for budget in stages:
            core = builder.core(builder.grow(budget), budget)
            fresh = build_core(graph, gens, budget=budget)
            assert core == fresh and core.diagnostics == fresh.diagnostics, (graph, gens, budget)
            expected = oracles.oracle_build_core(graph, gens, budget=budget)
            assert (core.status, core.diagnostics) == (expected.status, expected.diagnostics), \
                (graph, gens, budget)
            assert core.complex == oracles.oracle_canonical_form(expected.complex)
            if core.verified:
                break
            partial += 1
            shuffled = build_shuffled(graph, gens, budget, random.Random(budget))
            assert shuffled == core and shuffled.diagnostics == core.diagnostics
    assert partial >= 40


def test_verified_freeze_is_canonical():
    """Every stage, verified or budget-exceeded, is frozen straight into
    canonical form: it equals its own ``oracle_canonical_form``, and builds
    in randomized processing orders equal it as complexes.  A verified
    core also equals the rebuilding oracle's core, which is renumbered by
    ``oracle_canonical_form`` after freezing."""
    frozen = {VERIFIED: 0, BUDGET_EXCEEDED: 0}
    for graph, gens, stages in _differential_problems():
        for budget in stages:
            core = build_core(graph, gens, budget=budget)
            frozen[core.status] += 1
            assert core.complex == oracles.oracle_canonical_form(core.complex), (graph, gens)
            for seed in (1, 2):
                assert build_shuffled(graph, gens, budget, random.Random(seed)).complex \
                    == core.complex, (graph, gens, budget, seed)
            if core.verified:
                assert core.complex == oracles.oracle_build_core(graph, gens, budget=budget).complex
                break
    assert frozen[VERIFIED] >= 30 and frozen[BUDGET_EXCEEDED] >= 40, frozen


# -- the corner table and the builder-side link check -------------------------------

def _corner_pairs(graph: DefiningGraph, mask: int) -> list[tuple[int, int]]:
    """The commuting corners of a key bitmask, by brute force over every
    pair of its keys, compared on labels."""
    keys = [k for k in range(2 * len(graph.vertices)) if mask >> k & 1]
    labels = graph.vertices
    return [(ka, kb) for ka, kb in itertools.combinations(keys, 2)
            if labels[ka >> 1] != labels[kb >> 1]
            and graph.commutes(labels[ka >> 1], labels[kb >> 1])]


def test_corner_table_matches_the_pair_list():
    """``graph._corners[mask]`` lists the commuting key pairs of ``mask`` in
    increasing order, on random masks over the zoo and family (6, 2)'s
    graph, and each entry is made once and kept."""
    rng = random.Random(41)
    for graph in GRAPH_ZOO + [family(6, 2).graph]:
        width = 2 * len(graph.vertices)
        for mask in [0, (1 << width) - 1] + [rng.getrandbits(width) for _ in range(200)]:
            corners = graph._corners[mask]
            assert list(corners) == _corner_pairs(graph, mask), (graph, mask)
            assert graph._corners[mask] is corners


def _scan_problems(catalog_stages):
    """Each catalog-stage problem at ``certify``'s stage budgets, and the
    ring family (3, 1), (4, 1) and (5, 2) at its stage budgets up to a
    cell budget of 80,000, as (graph, index words, budgets)."""
    for graph, _, gens, stages in catalog_stages:
        budgets = [core.diagnostics["budget"] for core, _ in stages]
        yield graph, [_indexed(w, graph) for w in gens], budgets
    for n, N in ((3, 1), (4, 1), (5, 2)):
        fam = family(n, N)
        yield fam.graph, [_indexed(w, fam.graph) for w in fam.generators], \
            [256, 1_024, 4_096, 16_384, 80_000]


def test_fill_scan_matches_the_pair_scan_oracle(catalog_stages):
    """The corner-table scan, which skips fresh opposite vertices, makes the
    same rounds as the pair scan it replaced, grown in lockstep through
    ``certify``'s stages: the same raw squares, raw edges, folds and
    squares added after every round, and the same status at every stage."""
    verified = 0
    for graph, words, budgets in _scan_problems(catalog_stages):
        new, old = _Builder(graph, words), oracles.PairScanBuilder(graph, words)
        for budget in budgets:
            while len(new.ends) + len(new.edges) - new.folds + len(new.squares) <= budget:
                grew = new.fill_pass()
                assert old.fill_pass() == grew
                if not grew:
                    break
                new.fold_all()
                old.fold_all()
                assert (new.squares, new.edges, new.folds, new.squares_added) == \
                    (old.squares, old.edges, old.folds, old.squares_added), (graph, budget)
            status = new.grow(budget)
            assert old.grow(budget) == status
            if status == VERIFIED:
                verified += 1
                break
    assert verified >= 10, verified


def _link_check_stages(catalog_stages):
    """Builders grown to every catalog stage, verified or budget-exceeded,
    and to the ring family's stages for (3, 1), (4, 1) and (5, 2), each
    with its status."""
    for graph, words, budgets in _scan_problems(catalog_stages):
        for budget in budgets:
            builder = _Builder(graph, words)
            status = builder.grow(budget)
            yield builder, status
            if status == VERIFIED:
                break


def _builder_says_clean(builder: _Builder) -> bool:
    try:
        builder.check_link()
    except InternalError:
        return False
    return True


def test_builder_link_check_matches_the_frozen_check(catalog_stages):
    """``_Builder.check_link`` says clean exactly when ``_link_violations``
    does on the stage frozen, on every catalog stage and ring-family stage:
    every verified one is clean, and the budget-exceeded ones that leave a
    corner unfilled are caught on both sides."""
    seen = Counter()
    for builder, status in _link_check_stages(catalog_stages):
        clean = _link_violations(builder.freeze()).ok
        assert _builder_says_clean(builder) == clean, status
        assert clean or status == BUDGET_EXCEEDED
        seen[status, clean] += 1
    assert min(seen[VERIFIED, True], seen[BUDGET_EXCEEDED, False]) >= 10, seen


def test_builder_link_check_raises_on_a_queued_fold_or_an_unfilled_corner(abc_graph):
    """A stabilized builder with a fold still queued, or with a filled
    corner taken away, fails the builder-side link check."""
    words = [_indexed(parse_word(t, abc_graph), abc_graph) for t in ("b c a", "b a b c")]
    builder = _Builder(abc_graph, words)
    assert builder.grow(10_000) == VERIFIED
    builder.check_link()
    builder.collisions.append((0, 1))
    with pytest.raises(InternalError, match="1 queued folds"):
        builder.check_link()
    builder.collisions.clear()
    v, corners = next((v, corners) for v, corners in builder.filled.items() if corners)
    corners.discard(min(corners))
    with pytest.raises(InternalError, match=f"failed the link check: corner .* of vertex {v} "):
        builder.check_link()


def test_link_check_rejects_malformed_squares(abc_graph):
    """A complex made in Python, not read from a file, with a one-corner
    "square" over its only unfilled corner used to pass the link check;
    the check now reads every square's boundary."""
    gens = [parse_word("b c a", abc_graph), parse_word("b a b c", abc_graph)]
    stage = build_core(abc_graph, gens, budget=12).complex
    report = check_local_isometry(stage)
    (corner,) = report.unfilled
    forged = dataclasses.replace(stage, squares=stage.squares | {frozenset({corner})})
    forged_report = check_local_isometry(forged)
    assert not forged_report.ok
    assert forged_report.malformed == (frozenset({corner}),)
    assert not forged_report.unfilled and not forged_report.foldable
    assert check_local_isometry(build_core(abc_graph, gens).complex).malformed == ()


def test_resuming_rules(abc_graph):
    """``build_core`` resumes no core: ``extend`` takes a complex, and a
    ``SubgroupCore``, partial or verified, is an input error that says to
    pass its complex.  Unchecked, it raises a bare ``AttributeError``."""
    gens = [parse_word(t, abc_graph) for t in ("a b c", "c a b", "a^2 b c")]
    partial = build_core(abc_graph, gens, budget=60)
    verified = build_core(abc_graph, gens[:1], budget=1_000)
    assert partial.status == BUDGET_EXCEEDED and verified.verified
    for core in (partial, verified):
        with pytest.raises(InputError, match=r"pass core\.complex"):
            build_core(abc_graph, gens, budget=1_000, extend=core)
    assert build_core(abc_graph, gens[:1], extend=verified.complex) == verified


def test_extend_requires_the_same_graph_and_sound_squares(abc_graph):
    """Extending a core over another graph is an input error, and so is a
    malformed square.  Unchecked, extending over xyz crashes on the label b,
    and over abc with only a-b commuting the core keeps a b-c square and
    verifies."""
    core = build_core(abc_graph, [parse_word("b c a", abc_graph)], budget=1_000).complex
    assert core.squares
    for graph in (DefiningGraph.build("xyz", [("y", "z")]),
                  DefiningGraph.build("abc", [("a", "b")])):
        with pytest.raises(InputError, match="same defining graph"):
            build_core(graph, [parse_word(graph.vertices[0], graph)], extend=core)
    corner = min(next(iter(core.squares)))
    forged = dataclasses.replace(core, squares=core.squares | {frozenset({corner})})
    with pytest.raises(InputError, match="four corners"):
        build_core(abc_graph, [parse_word("a", abc_graph)], extend=forged)



def test_extend_requires_a_connected_seed(abc_graph):
    """A seed complex with a component away from the basepoint is an input
    error at any budget.  Unchecked, a verified build of it fails its own
    connectivity check as an internal error, and a budget-1 build returns a
    disconnected partial stage, on which ``certify``'s soundness argument
    does not hold."""
    seed = LabeledCubeComplex(graph=abc_graph, vertices=(0, 1), edges=((0, 1, 1, "c"),),
                              squares=frozenset(), basepoint=0)
    assert not seed.is_connected()
    for budget in (100_000, 1):
        with pytest.raises(InputError, match="must be connected"):
            build_core(abc_graph, [parse_word("b c a", abc_graph)], budget=budget, extend=seed)
    joined = dataclasses.replace(seed, edges=seed.edges + ((1, 0, 1, "a"),))
    assert build_core(abc_graph, [parse_word("b c a", abc_graph)], extend=joined).verified


def test_a_complex_with_no_vertices_is_not_connected(abc_graph):
    """A complex with no vertices, so no basepoint among them, is not
    connected: ``is_connected`` answers without reading the basepoint."""
    empty = LabeledCubeComplex(graph=abc_graph, vertices=(), edges=(), squares=frozenset(),
                               basepoint=0)
    assert not empty.is_connected()


def test_extend_rejects_undeclared_cells(abc_graph):
    """A seed whose basepoint or edge endpoint is not one of its vertices,
    or whose edge carries a label outside the graph, is an input error, as
    in a stored core.  Unchecked, each raises a bare ``KeyError``."""
    gens = [parse_word("b c a", abc_graph)]
    seeds = {
        "basepoint is not a vertex": LabeledCubeComplex(
            graph=abc_graph, vertices=(0,), edges=(), squares=frozenset(), basepoint=5),
        "edge 0 has undeclared endpoints": LabeledCubeComplex(
            graph=abc_graph, vertices=(0,), edges=((0, 0, 7, "a"),), squares=frozenset(),
            basepoint=0),
        "unknown generator 'x'": LabeledCubeComplex(
            graph=abc_graph, vertices=(0,), edges=((0, 0, 0, "x"),), squares=frozenset(),
            basepoint=0),
    }
    for message, seed in seeds.items():
        with pytest.raises(InputError, match=message):
            build_core(abc_graph, gens, extend=seed)

# -- JSON and DOT round-trips ------------------------------------------------------


def _partial_stages() -> list[LabeledCubeComplex]:
    """Link-injective partial stages: seeded subgroups over the graph zoo at
    budgets they overrun, the worked subgroups' early stages, and the
    non-stabilising 4-cycle subgroup at the first ``certify`` stage."""
    rng = random.Random(313)
    cores = []
    for graph in GRAPH_ZOO:
        for _ in range(4):
            gens = [word_from_pairs([(rng.choice(graph.vertices), rng.choice((1, -1)))
                                     for _ in range(rng.randrange(2, 7))])
                    for _ in range(rng.randrange(1, 4))]
            cores += [build_core(graph, gens, budget=budget) for budget in (12, 40)]
    abc = GRAPH_ZOO[1]
    for texts in (("b c a", "b a b c"), ("a b c", "c a b", "a^2 b c")):
        cores += [build_core(abc, [parse_word(t, abc) for t in texts], budget=budget)
                  for budget in (12, 30)]
    cycle4 = GRAPH_ZOO[4]
    cores.append(build_core(cycle4, [parse_word(t, cycle4) for t in NON_STABILISING], budget=256))
    return [core.complex for core in cores if core.status == BUDGET_EXCEEDED]


STORED_CORES = VERIFIED_CORES + _partial_stages()


def test_stored_core_sample_is_varied():
    reports = [check_local_isometry(c) for c in STORED_CORES]
    assert not any(report.foldable for report in reports)
    partial = [c for c, report in zip(STORED_CORES, reports) if report.unfilled]
    assert len(partial) >= 20
    assert sum(1 for c in partial if c.squares) >= 10


@st.composite
def stored_core(draw):
    """A stored core with fresh vertex and edge ids, listed in id order as
    the DOT reader lists them."""
    complex_ = draw(st.sampled_from(STORED_CORES))
    ids = st.integers(0, 10 ** 6)
    vmap = dict(zip(complex_.vertices, draw(st.lists(
        ids, min_size=len(complex_.vertices), max_size=len(complex_.vertices), unique=True))))
    emap = dict(zip((e[0] for e in complex_.edges), draw(st.lists(
        ids, min_size=len(complex_.edges), max_size=len(complex_.edges), unique=True))))
    squares = frozenset(
        frozenset(_corner(vmap[v], (emap[a[0]], a[1]), (emap[b[0]], b[1])) for v, (a, b) in sq)
        for sq in complex_.squares)
    return LabeledCubeComplex(
        graph=complex_.graph, vertices=tuple(sorted(vmap.values())),
        edges=tuple(sorted((emap[eid], vmap[src], vmap[dst], label)
                           for eid, src, dst, label in complex_.edges)),
        squares=squares, basepoint=vmap[complex_.basepoint])


@settings(max_examples=120, deadline=None, derandomize=True)
@given(stored_core())
def test_json_and_dot_round_trips(complex_):
    """Every genuine core and partial stage survives both file formats
    unchanged, so the square check rejects none of them."""
    text = json.dumps(complex_.to_json_dict())
    assert LabeledCubeComplex.from_json_dict(json.loads(text)) == complex_
    assert oracles.oracle_from_dot(complex_.to_dot()) == complex_


# -- one integer adjacency per complex ----------------------------------------------


def _renumbered(complex_: LabeledCubeComplex) -> LabeledCubeComplex:
    """The complex with vertex ids reversed and spread out, and edge ids
    shifted, so that vertex positions and ids differ."""
    top = 3 * max(complex_.vertices)
    vmap = {v: 7 + top - 3 * v for v in complex_.vertices}
    squares = frozenset(
        frozenset(_corner(vmap[v], (a[0] + 5, a[1]), (b[0] + 5, b[1])) for v, (a, b) in sq)
        for sq in complex_.squares)
    return LabeledCubeComplex(
        graph=complex_.graph, vertices=tuple(sorted(vmap.values())),
        edges=tuple((eid + 5, vmap[src], vmap[dst], label)
                    for eid, src, dst, label in complex_.edges),
        squares=squares, basepoint=vmap[complex_.basepoint])


def _every_stage(catalog_stages) -> list[LabeledCubeComplex]:
    """Every catalog stage, partial and verified, every stored core, and a
    renumbered copy of a few of each."""
    complexes = [core.complex for *_, stages in catalog_stages for core, _ in stages]
    complexes += STORED_CORES
    return complexes + [_renumbered(c) for c in complexes[::7]]


def _forged_complexes(abc_graph) -> list[LabeledCubeComplex]:
    """Complexes made in Python that fail the link check: a foldable pair,
    an unfilled corner, the worked core without each of its squares, a
    partial stage with a one-corner square, and a vertex with clashes in
    two slots whose label order differs from the declaration order."""
    forged = [
        LabeledCubeComplex(graph=abc_graph, vertices=(0, 1, 2),
                           edges=((0, 0, 1, "b"), (1, 0, 2, "b")),
                           squares=frozenset(), basepoint=0),
        LabeledCubeComplex(graph=abc_graph, vertices=(0, 1, 2),
                           edges=((0, 0, 1, "b"), (1, 0, 2, "c")),
                           squares=frozenset(), basepoint=0),
    ]
    gens = [parse_word("b c a", abc_graph), parse_word("b a b c", abc_graph)]
    worked = build_core(abc_graph, gens, budget=10_000).complex
    forged += [dataclasses.replace(worked, squares=worked.squares - {sq})
               for sq in worked.squares]
    stage = build_core(abc_graph, gens, budget=12).complex
    (corner,) = check_local_isometry(stage).unfilled
    forged.append(dataclasses.replace(stage, squares=stage.squares | {frozenset({corner})}))
    bac = DefiningGraph.build("bac", [("a", "c"), ("b", "c")])
    forged.append(LabeledCubeComplex(
        graph=bac, vertices=(0, 1, 2, 3),
        edges=((0, 0, 1, "b"), (1, 0, 2, "b"), (2, 1, 0, "a"), (3, 3, 0, "a"),
               (4, 0, 3, "c"), (5, 2, 2, "c"), (6, 3, 3, "a")),
        squares=frozenset(), basepoint=0))
    return forged


def test_letter_options_match_oracle(catalog_stages):
    """The letter table read off the integer adjacency equals the one read
    from ``oracle_trace_maps``, on every partial and verified stage and
    stored core; a complex that is not link-injective is refused by both."""
    counted = {True: 0, False: 0}
    for complex_ in _every_stage(catalog_stages):
        assert complex_._letter_options == oracles.oracle_letter_options(complex_)
        counted[not check_local_isometry(complex_).unfilled] += 1
    assert counted[True] >= 50 and counted[False] >= 50, counted
    abc = GRAPH_ZOO[1]
    for edges in (((0, 0, 1, "b"), (1, 0, 2, "b")),    # two b-edges leave 0
                  ((0, 1, 0, "a"), (1, 2, 0, "a"))):   # two a-edges enter 0
        clash = LabeledCubeComplex(graph=abc, vertices=(0, 1, 2), edges=edges,
                                   squares=frozenset(), basepoint=0)
        for table in (lambda c: c._letter_options, oracles.oracle_letter_options):
            with pytest.raises(ContractError, match="not link-injective"):
                table(clash)


def test_integer_link_check_matches_string_check(catalog_stages, abc_graph):
    """``build_core``'s self-check and ``check_local_isometry`` give the
    foldable slots and unfilled corners of the string-label check, in its
    order, on every stage, stored core and forged complex; the public
    check also reports the same malformed squares."""
    forged = _forged_complexes(abc_graph)
    failing = 0
    for complex_ in _every_stage(catalog_stages) + forged:
        expected = oracles.oracle_check_local_isometry(complex_)
        assert check_local_isometry(complex_) == expected
        assert _link_violations(complex_) == dataclasses.replace(expected, malformed=())
        failing += not expected.ok
    assert failing >= 60
    clashes = check_local_isometry(forged[-1]).foldable
    assert clashes == ((0, "a", 1, (2, 3)), (0, "b", 0, (0, 1)), (3, "a", 0, (3, 6)))
