from __future__ import annotations

import gc
import importlib
import json
import random
import weakref
from collections import Counter
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import assume, given, settings, strategies as st

from raagcc.certify import (
    CERTIFIED,
    INCONCLUSIVE,
    REFUTED,
    _StageView,
    _chord_words,
    _forest_chords,
    _h1_vanishes,
    _nonfilling_chord_set,
    certify,
    displacement_lower_bound,
    extract_generators,
)
from raagcc.complexes import (
    BUDGET_EXCEEDED,
    VERIFIED,
    LabeledCubeComplex,
    LinkReport,
    SubgroupCore,
    _Builder,
    _SpellingAutomaton,
    build_core,
    check_local_isometry,
    count_elements,
    enumerate_elements,
    iter_loops_by_length,
    membership,
    salvetti,
)
from raagcc.errors import BudgetExceededError, ContractError, InputError, InternalError
from raagcc.family import family
from raagcc.graphs import DefiningGraph
from raagcc.surfaces import SurfaceModel, max_exponent
from raagcc.words import _indexed, _pile, concat, invert, normalize, parse_word, word_from_pairs

import oracles
from conftest import CATALOG, CATALOG_GRAPHS, GRAPH_ZOO, catalog_sample

CATALOG_BUDGETS = {"cell_budget": 2_000, "enum_budget": 50_000}


@pytest.fixture(scope="module")
def ex2_cert(abc_graph, abc_model):
    gens = [parse_word("b c a", abc_graph), parse_word("b a b c", abc_graph)]
    return certify(abc_graph, abc_model, gens)


def test_two_generator_subgroup_certifies(ex2_cert):
    assert ex2_cert.verdict == CERTIFIED
    assert ex2_cert.core_status == VERIFIED
    assert ex2_cert.ell == 3 * (ex2_cert.core_vertex_count + 1)
    assert ex2_cert.witness is None
    assert ex2_cert.element_count is None  # a certified verdict walks nothing
    assert count_elements(ex2_cert.core, ex2_cert.ell) > 1


def test_single_non_filling_generator_refutes(abc_graph, abc_model):
    cert = certify(abc_graph, abc_model, [parse_word("a", abc_graph)])
    assert cert.verdict == REFUTED
    assert cert.witness.to_text() == "a"
    assert cert.witness_support == {"a"}
    # Here the core is verified, so the witness demonstrably passes
    # membership while failing the filling test.
    assert cert.core_status == VERIFIED
    assert membership(cert.core, cert.witness)
    assert cert.bound_coefficients() is None  # a bound is certified only


def test_augmented_subgroup_refutes_with_conjugate_witness(abc_graph, abc_model):
    gens = [parse_word(t, abc_graph) for t in ("a b c", "c a b", "a^2 b c")]
    cert = certify(abc_graph, abc_model, gens)
    assert cert.verdict == REFUTED
    assert cert.witness_support == {"a"}
    # The witness is a genuine member: here the word a itself, obtained by
    # direct cancellation from the generators.
    identity_check = normalize(
        concat(parse_word("a^2 b c", abc_graph), invert(parse_word("a b c", abc_graph))),
        abc_graph)
    assert identity_check.to_text() == "a"


def test_refutation_witness_fails_fills(abc_graph, abc_model, ex2_cert):
    from raagcc.surfaces import fills
    gens = [parse_word(t, abc_graph) for t in ("a b c", "c a b", "a^2 b c")]
    cert = certify(abc_graph, abc_model, gens)
    assert not fills(cert.witness, abc_model)


def test_certify_requires_admissibility(abc_graph):
    model = SurfaceModel.build(abc_graph, [["a", "b", "c"]], admissible=False)
    with pytest.raises(ContractError):
        certify(abc_graph, model, [parse_word("a", abc_graph)])


def test_certify_validates_inputs(abc_graph, abc_model):
    other = DefiningGraph.build("xy", [])
    with pytest.raises(InputError):
        certify(other, abc_model, [parse_word("a", abc_graph)])
    with pytest.raises(InputError):
        certify(abc_graph, abc_model, [])
    # A zero budget once stopped the witness walk and came back inconclusive,
    # blaming the cell budget.
    gens = [parse_word(t, abc_graph) for t in ("a b c", "c a b", "a^2 b c")]
    for budget in (0, -1):
        with pytest.raises(InputError, match="enum_budget must be positive"):
            certify(abc_graph, abc_model, gens, enum_budget=budget)
    # A non-positive cell budget once came back as a refutation with the
    # stage [[-5, 10]].
    for budget in (0, -5):
        with pytest.raises(InputError, match="cell_budget must be positive"):
            certify(abc_graph, abc_model, gens, cell_budget=budget)
    # A budget that is no int: cell_budget=True once came back inconclusive,
    # "core construction exceeded cell budget True" with the stage
    # [[true, 11]], and a string raised a bare TypeError.
    for name in ("cell_budget", "enum_budget"):
        for value in (True, 2.5, "300"):
            with pytest.raises(InputError) as info:
                certify(abc_graph, abc_model, gens, **{name: value})
            assert str(info.value) == f"{name} must be an int, not {value!r}"
    assert certify(abc_graph, abc_model, gens, enum_budget=1).verdict == INCONCLUSIVE


def test_certify_inconclusive_on_tiny_budget(abc_graph, abc_model):
    # A full-generator subgroup needs the whole one-vertex complex; with a
    # cell budget too small even for the wedge, certification cannot finish.
    gens = [parse_word("b c a", abc_graph), parse_word("b a b c", abc_graph)]
    cert = certify(abc_graph, abc_model, gens, cell_budget=10)
    assert cert.verdict == INCONCLUSIVE
    assert cert.reason is not None


def test_certified_members_have_small_exponents(abc_graph, ex2_cert):
    """In a certified run every enumerated member keeps syllable exponents
    below a third of the window length."""
    core = ex2_cert.core
    bound = ex2_cert.ell / 3
    count = 0
    for w in enumerate_elements(core, ex2_cert.ell):
        assert max_exponent(w) < bound
        count += 1
    assert count == count_elements(core, ex2_cert.ell)


def test_verdict_stable_under_redundant_generator(abc_graph, abc_model):
    gens = [parse_word("b c a", abc_graph), parse_word("b a b c", abc_graph)]
    redundant = concat(gens[0], gens[1])  # already a member
    cert = certify(abc_graph, abc_model, gens + [redundant])
    assert cert.verdict == CERTIFIED
    gens4 = [parse_word(t, abc_graph) for t in ("a b c", "c a b", "a^2 b c")]
    cert4 = certify(abc_graph, abc_model, gens4 + [concat(gens4[0], gens4[1])])
    assert cert4.verdict == REFUTED


# -- generator extraction ----------------------------------------------------------

def test_extract_generators_of_salvetti(abc_graph):
    core = SubgroupCore(complex=oracles.oracle_canonical_form(salvetti(abc_graph)),
                        status=VERIFIED)
    extracted = extract_generators(core)
    assert {w.to_text() for w in extracted} == {"a", "b", "c"}


def test_extract_generators_of_example_core(abc_graph, ex2_cert):
    core = ex2_cert.core
    extracted = extract_generators(core)
    assert len(extracted) == 2
    bound = 2 * len(core.complex.vertices) + 1
    assert all(w.letter_length <= bound for w in extracted)
    rebuilt = build_core(abc_graph, [w.as_word() for w in extracted], budget=20_000)
    assert rebuilt.status == VERIFIED
    assert {w.pairs() for w in enumerate_elements(rebuilt, 8)} == \
        {w.pairs() for w in enumerate_elements(core, 8)}


def test_extract_generators_rank_for_free_graphs():
    graph = DefiningGraph.build("pq", [])
    gens = [parse_word(t, graph) for t in ("p q", "q p")]
    core = build_core(graph, gens, budget=1_000)
    assert core.status == VERIFIED
    cx = core.complex
    rank = len(cx.edges) - (len(cx.vertices) - 1)
    assert len(extract_generators(core)) == rank == 2


def test_certify_extracted_generators_reproduces_verdict(abc_graph, abc_model, ex2_cert):
    extracted = extract_generators(ex2_cert.core)
    again = certify(abc_graph, abc_model, [w.as_word() for w in extracted])
    assert again.verdict == CERTIFIED
    assert again.ell == ex2_cert.ell


# -- displacement bound ------------------------------------------------------------

def test_displacement_lower_bound_values(abc_graph, ex2_cert):
    ell = ex2_cert.ell
    assert displacement_lower_bound(ex2_cert, parse_word("", abc_graph)) == Fraction(-2)
    member = parse_word("b c a", abc_graph)
    assert displacement_lower_bound(ex2_cert, member) == Fraction(3, 6 * ell) - 2
    with pytest.raises(ContractError):
        displacement_lower_bound(ex2_cert, parse_word("a", abc_graph))
    # A member of length exactly 12*ell has bound exactly zero.
    power = parse_word("b c a", abc_graph)
    word = power
    for _ in range(4 * ell - 1):
        word = concat(word, power)
    assert normalize(word, abc_graph).letter_length == 12 * ell
    assert displacement_lower_bound(ex2_cert, word) == Fraction(0)


def test_displacement_bound_is_the_paper_formula(ex2_cert):
    """On the worked certificate and on certified catalog certificates,
    every member h up to length 6 gets d >= |h|/(6 ell) - 2, spelled here
    as it was before ``bound_coefficients`` owned it, and the report's
    formula reads the same."""
    certs = [ex2_cert]
    for graph, gens in catalog_sample(random.Random(29)):
        cert = certify(graph, SurfaceModel.build(graph, [graph.vertices]), gens,
                       **CATALOG_BUDGETS)
        if cert.verdict == CERTIFIED:
            certs.append(cert)
    assert len(certs) >= 10
    for cert in certs:
        assert cert.to_json_dict()["bound"]["formula"] == f"d >= |h|/{6 * cert.ell} - 2"
        for h in enumerate_elements(cert.core, 6):
            assert displacement_lower_bound(cert, h) == Fraction(h.letter_length, 6 * cert.ell) - 2


def test_support_kernel_matches_rotation_oracle():
    """The certifier's per-element support (piled once, reduced in place) and
    ``cyclically_reduce`` agree with a cyclic reduction by literal moves."""
    from raagcc.words import cyclic_core_support, cyclically_reduce, word_from_pairs
    rng = random.Random(67)
    for graph in GRAPH_ZOO:
        labels = graph.vertices
        for _ in range(100):
            pairs = tuple((rng.choice(labels), rng.choice((1, -1)))
                          for _ in range(rng.randrange(0, 10)))
            expected = oracles.oracle_cyclic_core(pairs, graph)
            indexed = [(graph.index(g), e) for g, e in pairs]
            support = cyclic_core_support(indexed, graph)
            assert support == sum(1 << labels.index(g) for g in {g for g, _ in expected}), pairs
            _, core = cyclically_reduce(word_from_pairs(pairs), graph)
            assert core.syllable_length == len(expected), pairs
            assert core.letter_length == sum(abs(e) for _, e in expected), pairs


def test_displacement_bound_monotone_in_length(abc_graph, ex2_cert):
    members = enumerate_elements(ex2_cert.core, 8)
    values = [(w.letter_length, displacement_lower_bound(ex2_cert, w)) for w in members]
    values.sort()
    for (l1, b1), (l2, b2) in zip(values, values[1:]):
        if l1 < l2:
            assert b1 < b2


def test_displacement_requires_certified(abc_graph, abc_model):
    cert = certify(abc_graph, abc_model, [parse_word("a", abc_graph)])
    with pytest.raises(ContractError):
        displacement_lower_bound(cert, parse_word("a", abc_graph))


# -- the exact check against the ell-ball sweep --------------------------------------

ORACLE_BUDGET = 60_000
WORKED_EXAMPLES = (("b c a", "b a b c"), ("b c a", "b a b c", "b^2 c^2 a^2"),
                   ("a b c", "c a b", "a^2 b c"))


def _random_model(graph: DefiningGraph, rng) -> SurfaceModel:
    """A random antichain of filling sets of size at least two."""
    chosen = {frozenset(rng.sample(graph.vertices, rng.randint(2, len(graph.vertices))))
              for _ in range(rng.randint(1, 3))}
    return SurfaceModel.build(graph, [s for s in chosen if not any(t < s for t in chosen)])


def _random_generator(graph: DefiningGraph, rng) -> list[tuple[str, int]]:
    """A short random word, or (more often) every generator once plus up to
    two more, shuffled, which tends to fill."""
    if rng.random() < 0.3:
        letters = [rng.choice(graph.vertices) for _ in range(rng.randint(1, 4))]
    else:
        letters = list(graph.vertices) + rng.choices(graph.vertices, k=rng.randint(0, 2))
        rng.shuffle(letters)
    return [(g, rng.choice((1, -1))) for g in letters]


def _differential_problems():
    rng = random.Random(20261018)
    for graph in GRAPH_ZOO:
        models = (SurfaceModel.build(graph, [graph.vertices]), _random_model(graph, rng))
        for _ in range(20):
            gens = [word_from_pairs(_random_generator(graph, rng))
                    for _ in range(rng.randint(2, 3))]
            for model in models:
                yield graph, model, gens
    abc = GRAPH_ZOO[1]
    for texts in WORKED_EXAMPLES:
        yield abc, SurfaceModel.build(abc, [abc.vertices]), [parse_word(t, abc) for t in texts]
    fam = family(3, 1)
    yield fam.graph, fam.model, [w.as_word() for w in fam.generators]


@pytest.fixture(scope="module")
def differential_certificates():
    return [(model, certify(graph, model, gens, cell_budget=2_000, enum_budget=ORACLE_BUDGET))
            for graph, model, gens in _differential_problems()]


def test_exact_check_matches_enumeration_oracle(differential_certificates):
    """Wherever the ell-ball sweep decides, ``certify`` gives its verdict
    and witness, and its element count: the walk's for a refutation, the
    public ``count_elements`` for a certified verdict.  Where the sweep runs
    out of budget, ``certify`` never refutes."""
    decided = {CERTIFIED: 0, REFUTED: 0}
    for model, cert in differential_certificates:
        if cert.core_status != VERIFIED:
            continue
        oracle = oracles.oracle_certify_by_enumeration(cert.core, model, cert.ell, ORACLE_BUDGET)
        if oracle is None:
            assert cert.verdict in (CERTIFIED, INCONCLUSIVE), cert.generators
            continue
        verdict, witness, count = oracle
        count_got = (count_elements(cert.core, cert.ell) if cert.verdict == CERTIFIED
                     else cert.element_count)
        got = (cert.verdict, cert.witness and cert.witness.pairs(), count_got)
        assert got == (verdict, witness, count), cert.generators
        decided[verdict] += 1
    assert decided[CERTIFIED] >= 10 and decided[REFUTED] >= 10, decided


def test_count_elements_matches_enumeration(abc_graph, differential_certificates):
    """The counting DP agrees with listing the elements, up to ell where the
    listing is small and up to a shorter length elsewhere, and on the
    trivial subgroup, whose walks all end at length 1."""
    cores = {cert.generators: cert.core for _, cert in differential_certificates
             if cert.core_status == VERIFIED}
    assert len(cores) >= 20
    for core in cores.values():
        length = 3 * (len(core.complex.vertices) + 1)
        while length > 0 and count_elements(core, length) > 2_000:
            length -= 1
        assert count_elements(core, length) == len(enumerate_elements(core, length))
    trivial = build_core(abc_graph, [parse_word("a a^-1", abc_graph)])
    assert count_elements(trivial, 30) == len(enumerate_elements(trivial, 30)) == 1


def test_certified_verdict_does_not_depend_on_enum_budget(abc_graph, abc_model, ex2_cert):
    cert = certify(abc_graph, abc_model,
                   [parse_word("b c a", abc_graph), parse_word("b a b c", abc_graph)],
                   enum_budget=1)
    assert cert.to_json_dict() == ex2_cert.to_json_dict()
    assert count_elements(cert.core, cert.ell) == 53_745


def test_a_certified_verdict_enumerates_nothing(abc_graph, abc_model, monkeypatch):
    """A certified verdict is the chord check's alone: with the spelling
    automaton that every walk and count starts from made to raise, the
    worked example and the certified problems of a catalog sample still
    certify, with no element count."""
    problems = [(abc_graph, abc_model, [parse_word("b c a", abc_graph),
                                        parse_word("b a b c", abc_graph)])]
    for graph, gens in catalog_sample(random.Random(29)):
        model = SurfaceModel.build(graph, [graph.vertices])
        if certify(graph, model, gens, **CATALOG_BUDGETS).verdict == CERTIFIED:
            problems.append((graph, model, gens))
    assert len(problems) == 17, len(problems)

    def refuse(self, complex_):
        raise RuntimeError("a spelling automaton was built")

    monkeypatch.setattr(_SpellingAutomaton, "__init__", refuse)
    for graph, model, gens in problems:
        cert = certify(graph, model, gens, **CATALOG_BUDGETS)
        assert (cert.verdict, cert.element_count) == (CERTIFIED, None), cert.generators
    with pytest.raises(RuntimeError, match="spelling automaton"):
        count_elements(cert.core, cert.ell)  # the patch is live


def test_ring_family_5_2_certifies():
    """The paper's ring family (5, 2) certifies at a cell budget of 80,000,
    with the window and the displacement bound its core gives."""
    fam = family(5, 2)
    cert = certify(fam.graph, fam.model, [w.as_word() for w in fam.generators],
                   cell_budget=80_000)
    assert (cert.verdict, cert.ell, cert.element_count) == (CERTIFIED, 8_514, None)
    assert cert.bound_coefficients() == (Fraction(1, 51_084), Fraction(-2))


def test_refutation_witness_search_respects_enum_budget(abc_graph, abc_model):
    """A refutation still needs its witness; without one it is inconclusive."""
    gens = [parse_word("a", abc_graph)]
    cert = certify(abc_graph, abc_model, gens, enum_budget=1)
    assert cert.verdict == INCONCLUSIVE
    assert cert.reason == "enumeration exceeded budget 1"


def test_partial_stage_budget_stop_names_the_enum_budget(abc_graph, abc_model):
    """When partial stages' witness walks run out of ``enum_budget`` and no
    stage decides, the reason names the enumeration budget, not the cells."""
    gens = [parse_word(t, abc_graph) for t in ("a b c", "c a b", "a^2 b c")]
    cert = certify(abc_graph, abc_model, gens, enum_budget=1)
    assert cert.verdict == INCONCLUSIVE
    assert cert.reason == "enumeration exceeded budget 1"
    assert len(cert.diagnostics["stages"]) == 5
    assert certify(abc_graph, abc_model, gens, enum_budget=10).verdict == REFUTED
    # A run the cell budget alone stops still names the cell budget.
    small = [parse_word("b c a", abc_graph), parse_word("b a b c", abc_graph)]
    assert certify(abc_graph, abc_model, small, cell_budget=10).reason == (
        "core construction exceeded cell budget 10")


# -- refutations from generator products alone --------------------------------------


@pytest.fixture(scope="module")
def catalog_verdicts():
    """Every catalog problem with ``certify``'s verdict at the catalog's
    budgets, as (graph, model, generator words, verdict)."""
    out = []
    for name, strata in json.loads(CATALOG.read_text())["graphs"].items():
        graph = CATALOG_GRAPHS[name]
        model = SurfaceModel.build(graph, [graph.vertices])
        for texts in chain.from_iterable(strata.values()):
            gens = [parse_word(t, graph) for t in texts]
            out.append((graph, model, gens,
                        certify(graph, model, gens, **CATALOG_BUDGETS).verdict))
    return out


def test_refuted_catalog_problems_have_short_nonfilling_products(catalog_verdicts):
    """Every refutation of the catalog is matched, independently of the
    core, by a nontrivial non-filling product of at most 3 generators."""
    lengths = Counter()
    for graph, model, gens, verdict in catalog_verdicts:
        if verdict == REFUTED:
            product = oracles.oracle_short_product_witness(graph, model, gens, 3)
            assert product is not None, gens
            lengths[len(product)] += 1
    assert lengths == {1: 196, 2: 122, 3: 2}, lengths


def test_certified_catalog_problems_have_no_short_nonfilling_product(catalog_verdicts):
    """No product of at most 4 generators of a certified catalog problem
    is nontrivial and fails to fill."""
    certified = [(graph, model, gens) for graph, model, gens, verdict in catalog_verdicts
                 if verdict == CERTIFIED]
    assert len(certified) == 235
    for graph, model, gens in certified:
        assert oracles.oracle_short_product_witness(graph, model, gens, 4) is None, gens


# -- every stage decided by the chord-word check ------------------------------------


def _labelled_edges(complex_, allowed: int) -> list[tuple[int, int, int]]:
    """The edges of a stage's view or of a frozen stage whose label index
    is a bit of ``allowed``, as (source, target, label index): a view's by
    label, a frozen stage's in order."""
    if isinstance(complex_, _StageView):
        return [(s, t, g) for g, group in enumerate(complex_.labelled) if allowed >> g & 1
                for _, s, t in group]
    index = complex_.graph._index
    return [(src, dst, index[label]) for _, src, dst, label in complex_.edges
            if allowed >> index[label] & 1]


def test_lean_chord_words_match_oracle(catalog_stages):
    """The parent-pointer forests give the chord words of the per-vertex
    path tuples, for every edge set the check and ``extract_generators``
    read, grown from the oracle's roots (the basepoint, then every vertex in
    order): each chord once, in edge order once sorted by the source and
    label it is named by."""
    counted = {True: 0, False: 0}
    for _, model, _, stages in catalog_stages:
        for core, _ in stages:
            complex_ = core.complex
            options, base = complex_._letter_options
            at = {(src, g): i for i, (src, _, g) in enumerate(_labelled_edges(complex_, -1))}
            for allowed in (-1, *model.maximal_non_filling_sets):
                chords = _chord_words(options, allowed, (base, *complex_.vertices))
                assert [tuple(w) for *_, w in sorted(chords, key=lambda c: at[c[:2]])] == \
                    list(oracles.oracle_chord_words(complex_, allowed))
            counted[core.verified] += 1
    assert counted[True] >= 20 and counted[False] >= 20, counted


def _path_to(complex_, target: int) -> list[tuple[str, int]]:
    """Some edge path from the basepoint to ``target``, as label pairs."""
    ends_at = oracles.oracle_ends_at(complex_)
    reached = {complex_.basepoint: []}
    queue = [complex_.basepoint]
    for v in queue:
        for end in ends_at[v]:
            far = oracles.oracle_far_vertex(complex_, end)
            if far not in reached:
                reached[far] = reached[v] + [(complex_.end_label(end), 1 - 2 * end[1])]
                queue.append(far)
    return reached[target]


def _forest_roots(complex_, allowed: int) -> list[int]:
    """The roots of the forest of the edges labelled in ``allowed``: the
    first of the basepoint and the vertices, in order, in each component."""
    index = complex_.graph._index
    ends_at = oracles.oracle_ends_at(complex_)
    seen: set[int] = set()
    roots = []
    for root in (complex_.basepoint, *complex_.vertices):
        if root in seen:
            continue
        roots.append(root)
        seen.add(root)
        queue = [root]
        for v in queue:
            for end in ends_at[v]:
                far = oracles.oracle_far_vertex(complex_, end)
                if allowed >> index[complex_.end_label(end)] & 1 and far not in seen:
                    seen.add(far)
                    queue.append(far)
    return roots


def _closes_at(complex_, v: int, word: list[tuple[str, int]]) -> bool:
    out, into = oracles.oracle_trace_maps(complex_)
    start = v
    for label, sign in word:
        v = (out if sign > 0 else into).get((v, label))
        if v is None:
            return False
    return v == start


def test_chord_check_decides_every_stage(catalog_stages):
    """On every stage, partial or verified:

    - the check, on the stage's view, returns the first maximal non-filling
      set with a nontrivial chord word of the frozen stage;
    - every nontrivial chord word w is a loop at a forest root r and gives
      the member p*w*p^-1 (p a path from the basepoint to r), which does
      not fill and, when the last stage verifies, belongs to its core;
    - wherever the old bounded loop walk found a witness on a partial
      stage, the check says yes, and ``certify`` refutes at that stage with
      the same witness."""
    found = members = in_core = 0
    for graph, model, gens, stages in catalog_stages:
        labels = graph.vertices
        last = stages[-1][0]
        witness_stage = None
        for k, (core, view) in enumerate(stages):
            complex_ = core.complex
            first = None
            for allowed in model.maximal_non_filling_sets:
                roots = _forest_roots(complex_, allowed)
                for chord in oracles.oracle_chord_words(complex_, allowed):
                    word = [(labels[g], e) for g, e in chord]
                    if not normalize(word_from_pairs(word), graph).syllables:
                        continue
                    if first is None:
                        first = allowed
                    root = next(r for r in roots if _closes_at(complex_, r, word))
                    p = _path_to(complex_, root)
                    member = word_from_pairs(p + word + [(g, -e) for g, e in reversed(p)])
                    assert not oracles.oracle_fills(member, model), (gens, chord)
                    members += 1
                    if last.verified:
                        assert membership(last, member), (gens, chord)
                        in_core += 1
            assert _nonfilling_chord_set(view, model, core.verified) == first, gens
            if not core.verified and witness_stage is None:
                witness = oracles.oracle_partial_stage_witness(complex_, model)
                if witness is not None:
                    assert first is not None, gens
                    witness_stage = (k, witness)
        if witness_stage is not None:
            k, witness = witness_stage
            cert = certify(graph, model, gens, **CATALOG_BUDGETS)
            assert (cert.verdict, cert.witness.pairs()) == (REFUTED, witness), gens
            assert len(cert.diagnostics["stages"]) == k + 1
            found += 1
    assert found >= 5 and members >= 1_000 and in_core >= 30, (found, members, in_core)


# -- the chord check decided by GF(2) homology -------------------------------------


def _h1_vanishes_at(complex_, allowed: int) -> bool:
    """The check's H_1 = 0 verdict for one label set: on a stage's view, on
    the chords of its union-find forest; on a hand-made complex, whose edge
    ids are its positions, on the breadth-first chords of the oracle."""
    if isinstance(complex_, _StageView):
        chords, edge_ids = _forest_chords(complex_, allowed), complex_.edge_ids
    else:
        chords = oracles.oracle_forest_chords(complex_, allowed)
        edge_ids = len(complex_.edges)
    return _h1_vanishes(chords, complex_.square_groups, allowed, edge_ids)


def _frozen_positions(view: _StageView, frozen: LabeledCubeComplex) -> dict[int, int]:
    """Each root edge id of a stage's view, as the position of the same
    edge in the complex the stage freezes into: the two are walked from
    their basepoints together, pairing each vertex's letters with the
    frozen vertex's ends in the same slots."""
    out_edge = {(s, 2 * g): e for g, group in enumerate(view.labelled) for e, s, _ in group}
    to: dict[int, int] = {}
    pairs = {view.basepoint: frozen.basepoint}
    queue = [view.basepoint]
    options, _ = view._letter_options
    for v in queue:
        slots = {key: (eid, far) for key, eid, far in frozen.adjacency[pairs[v]]}
        for g, sign, far in options[v]:
            eid, frozen_far = slots[2 * g + (sign < 0)]  # a frozen edge id is its position
            to[out_edge[(v, 2 * g) if sign > 0 else (far, 2 * g)]] = eid
            if far not in pairs:
                pairs[far] = frozen_far
                queue.append(far)
    assert len(to) == sum(map(len, view.labelled))
    return to


def _grouped_square_edges(complex_: LabeledCubeComplex) -> dict[int, list[tuple[int, ...]]]:
    """The boundary rows ``oracle_square_edges`` reads from a complex's
    squares, grouped as a ``_StageView`` groups its rows: four edges each,
    keyed by the bitmask of the two label indices."""
    grouped: dict[int, list[tuple[int, ...]]] = {}
    for *edges, la, lb in oracles.oracle_square_edges(complex_):
        grouped.setdefault(1 << la | 1 << lb, []).append(tuple(edges))
    return grouped


def test_builder_square_rows_match_square_ends(catalog_stages):
    """The square rows of every stage's view, carried to the frozen
    stage's edge positions, are the boundaries read from the frozen
    squares by ``square_ends``: with the same edges (a repeated edge twice),
    grouped under the same two labels, one boundary per square (raw
    squares that folding made equal give equal rows); and a frozen complex
    carries no rows."""
    repeated = 0
    for _, _, _, stages in catalog_stages:
        for core, view in stages:
            built = core.complex
            to = _frozen_positions(view, built)
            assert {labels: sorted({tuple(sorted(map(to.__getitem__, row))) for row in group})
                    for labels, group in view.square_groups.items()} == \
                {labels: sorted(tuple(sorted(row)) for row in group)
                 for labels, group in _grouped_square_edges(built).items()}
            assert not hasattr(built, "square_groups")
            repeated += sum(len(set(row[:4])) < 4 for row in oracles.oracle_square_edges(built))
    assert repeated >= 10, repeated


def test_homology_decision_matches_oracle(catalog_stages):
    """On every stage and maximal non-filling set S:

    - the check's H_1 = 0 verdict is the dense oracle's;
    - H_1 = 0 makes every chord word pile to the identity, on any stage;
    - on a verified core, H_1 != 0 exactly when some chord word is
      nontrivial;
    - the check returns the first set that piling every chord word finds."""
    seen: Counter = Counter()
    for graph, model, gens, stages in catalog_stages:
        for core, view in stages:
            complex_ = core.complex
            piled = None
            for allowed in model.maximal_non_filling_sets:
                h1 = oracles.oracle_h1_rank(complex_, allowed)
                assert _h1_vanishes_at(view, allowed) == (h1 == 0), (gens, allowed)
                nontrivial = any(any(_pile(chord, graph))
                                 for chord in oracles.oracle_chord_words(complex_, allowed))
                if h1 == 0 or core.verified:
                    assert nontrivial == (h1 != 0), (gens, allowed)
                if nontrivial and piled is None:
                    piled = allowed
                seen[core.verified, h1 == 0] += 1
            assert _nonfilling_chord_set(view, model, core.verified) == piled, gens
    assert min(seen[verified, vanishes] for verified in (True, False)
               for vanishes in (True, False)) >= 10, seen


def _one_vertex_complex(graph, labels, squares) -> LabeledCubeComplex:
    """Loops at vertex 0 with the given labels (edge ids in order), and
    squares given by their corners as (end, end) pairs at vertex 0; given
    the square rows, grouped as a ``_StageView`` groups them, read from its
    squares."""
    complex_ = LabeledCubeComplex(
        graph=graph, vertices=(0,),
        edges=tuple((eid, 0, 0, label) for eid, label in enumerate(labels)),
        squares=frozenset(frozenset((0, tuple(sorted(pair))) for pair in sq) for sq in squares),
        basepoint=0)
    complex_.__dict__["square_groups"] = _grouped_square_edges(complex_)
    return complex_


def _stage_view(seed: LabeledCubeComplex) -> _StageView:
    """A hand-made stage as ``certify`` reads a budget-exceeded stage: the
    view of a builder seeded with it (and folded)."""
    return _StageView(_Builder(seed.graph, (), seed))


def test_homology_cancels_a_repeated_edge(abc_graph):
    """A square whose boundary runs along one edge twice contributes that
    edge zero times.

    One vertex carries a b-loop (edge 0) and two c-loops (edges 1 and 2),
    the tori on (0, 1) and (0, 2), and a square reading b c b^-1 c'^-1,
    which runs along edge 0 twice.  Over GF(2) the tori bound nothing and
    the third square bounds c + c', so H_1 has dimension 2 on {b, c}; read
    as edge sets, the three boundaries would span all three loops.  That
    complex is not link-injective, so no stage looks like it (a builder
    seeded with it folds the two c-loops); its rows go to ``_h1_vanishes``
    as ``build_core`` would set them.  On a stage, as ``certify`` reads it,
    the 2-skeleton of the 3-torus (one vertex, a loop per generator of the
    triangle graph, a torus per pair) runs along both of its loops twice in
    each square, so no square bounds anything and H_1 has dimension 3 on
    all three labels.  The check agrees with the oracle on every label set,
    on the hand-made complex and on the stage's view."""
    def torus(b, c):
        return [((b, p), (c, q)) for p in (0, 1) for q in (0, 1)]

    twisted = [((0, 0), (1, 0)), ((0, 1), (2, 0)), ((1, 1), (0, 0)), ((2, 1), (0, 1))]
    complex_ = _one_vertex_complex(abc_graph, "bcc", [torus(0, 1), torus(0, 2), twisted])
    ends = complex_.square_ends(frozenset((0, tuple(sorted(p))) for p in twisted))
    assert [end[0] for end in ends].count(0) == 2
    assert oracles.oracle_h1_rank(complex_, 0b110) == 2
    for allowed in range(8):
        assert _h1_vanishes_at(complex_, allowed) == \
            (oracles.oracle_h1_rank(complex_, allowed) == 0), allowed
    three_torus = salvetti(GRAPH_ZOO[2])
    view = _stage_view(three_torus)
    assert oracles.oracle_h1_rank(three_torus, 0b111) == 3
    for allowed in range(8):
        assert _h1_vanishes_at(view, allowed) == \
            (oracles.oracle_h1_rank(three_torus, allowed) == 0), allowed


def test_partial_stage_piles_where_h1_is_not_zero(abc_graph, abc_model):
    """A stage where the commuting corner of b and c is still unfilled has
    H_1 != 0 on {b, c}, yet its only chord word b c b^-1 c^-1 is trivial:
    on a partial stage, homology alone must not answer yes."""
    square = LabeledCubeComplex(
        graph=abc_graph, vertices=(0, 1, 2, 3),
        edges=((0, 0, 1, "b"), (1, 1, 2, "c"), (2, 0, 3, "c"), (3, 3, 2, "b")),
        squares=frozenset(), basepoint=0)
    view = _stage_view(square)
    assert oracles.oracle_h1_rank(square, 0b110) == 1
    assert not _h1_vanishes_at(view, 0b110)
    assert _nonfilling_chord_set(view, abc_model, False) is None


def test_chord_check_piles_nothing_on_a_verified_core(catalog_stages, monkeypatch):
    """The check spells no chord word on a verified core, and does on
    partial stages with H_1 != 0."""
    piles = Counter()

    def counting_pile(syllables, graph):
        piles[stage_kind] += 1
        return _pile(syllables, graph)

    # The module itself: ``raagcc.certify`` is also the name of the function.
    monkeypatch.setattr(importlib.import_module("raagcc.certify"), "_pile", counting_pile)
    for _, model, _, stages in catalog_stages:
        for core, view in stages:
            stage_kind = core.verified
            _nonfilling_chord_set(view, model, core.verified)
    assert piles[True] == 0 and piles[False] > 0, piles


def test_certify_reads_no_square(abc_graph, abc_model, monkeypatch):
    """``certify`` takes every square's boundary from the builder: across
    certified, refuted (on a verified core and on a partial stage) and
    inconclusive runs, ``square_ends`` is never called."""
    calls = Counter()
    square_ends = LabeledCubeComplex.square_ends

    def counting_square_ends(self, square):
        calls["square_ends"] += 1
        return square_ends(self, square)

    monkeypatch.setattr(LabeledCubeComplex, "square_ends", counting_square_ends)
    verdicts = Counter()
    problems = [(abc_graph, abc_model, ["b c a", "b a b c"]),
                (abc_graph, abc_model, ["b c a", "c a b", "a^2 b c"])]
    for graph, gens in catalog_sample(random.Random(29)):
        problems.append((graph, SurfaceModel.build(graph, [graph.vertices]), gens))
    for graph, model, gens in problems:
        words = [parse_word(g, graph) if isinstance(g, str) else g for g in gens]
        cert = certify(graph, model, words, **CATALOG_BUDGETS)
        verdicts[cert.verdict, cert.diagnostics.get("refuted_from_partial_core", False)] += 1
    assert calls["square_ends"] == 0
    assert {(CERTIFIED, False), (REFUTED, False), (REFUTED, True), (INCONCLUSIVE, False)} \
        <= set(verdicts), verdicts
    check_local_isometry(build_core(abc_graph, [parse_word("b c a", abc_graph)]).complex)
    assert calls["square_ends"] > 0  # the counter sees the reads it should


# -- partial stages decided on the builder -----------------------------------------


@pytest.fixture(scope="module")
def catalog_stage_views(catalog_stages):
    """Each budget-exceeded stage of ``catalog_stages``, as (model, the stage
    frozen as a core, and, from a fresh builder grown to the stage's
    budget, the stage's counters, its number of raw squares and its view).
    A view answers for its stage only until its builder grows on, so each
    stage has a builder of its own."""
    out = []
    for graph, model, gens, stages in catalog_stages:
        for core, _ in stages:
            if core.verified:
                break
            budget = core.diagnostics["budget"]
            builder = _Builder(graph, [_indexed(w, graph) for w in gens])
            assert builder.grow(budget) == BUDGET_EXCEEDED
            out.append((model, core, builder.diagnostics(budget), len(builder.squares),
                        _StageView(builder)))
    return out


def _walk(complex_, max_len: int) -> tuple[list, int | None]:
    """The levels of the basepoint-loop walk up to ``max_len`` within the
    catalog's enumeration budget, and the partial count where the budget
    stopped it (None when it did not)."""
    levels = []
    try:
        for level in iter_loops_by_length(complex_, max_len,
                                          node_budget=CATALOG_BUDGETS["enum_budget"]):
            levels.append(level)
    except BudgetExceededError as exc:
        return levels, exc.partial_count
    return levels, None


def test_stage_view_matches_frozen_stage(catalog_stage_views):
    """On every budget-exceeded stage, the view ``certify`` decides it on
    and the complex it freezes into agree: the vertex, edge and
    square counts; per maximal non-filling set, the H_1 verdict (the
    frozen stage's from the dense oracle) and whether some chord word is
    nontrivial; the check's answer, which is the first set with a
    nontrivial chord word of the frozen stage; and the basepoint-loop walk
    on the two letter tables up to the stage's ell, within the catalog's
    enumeration budget.  Some stage has raw squares that folding made
    equal."""
    merged = 0
    for model, core, counts, raw_squares, view in catalog_stage_views:
        frozen = core.complex
        graph = frozen.graph
        assert counts == core.diagnostics
        assert (len(view._letter_options[0].ends), sum(map(len, view.labelled)),
                counts["square_count"]) == \
            (len(frozen.vertices), len(frozen.edges), len(frozen.squares))
        piled = None
        for allowed in model.maximal_non_filling_sets:
            assert _h1_vanishes_at(view, allowed) == \
                (oracles.oracle_h1_rank(frozen, allowed) == 0)
            nontrivial = [any(any(_pile(w, graph)) for *_, w in _chord_words(
                c._letter_options[0], allowed, (s for s, _, _ in _labelled_edges(c, allowed))))
                          for c in (view, frozen)]
            assert nontrivial[0] == nontrivial[1]
            if nontrivial[1] and piled is None:
                piled = allowed
        assert _nonfilling_chord_set(view, model, False) == piled
        ell = 3 * (counts["vertex_count"] + 1)
        assert _walk(view, ell) == _walk(frozen, ell)
        merged += raw_squares > len(frozen.squares)
    assert len(catalog_stage_views) >= 20 and merged >= 1, (len(catalog_stage_views), merged)


def test_union_find_chords_match_breadth_first_oracle(catalog_stages, catalog_stage_views):
    """On every budget-exceeded stage and every verified core of the
    catalog sample, per maximal non-filling set S: the union-find forest
    has as many chords as the breadth-first forest of the frozen stage,
    each an S-labelled edge named once; and H_1 = 0 on its chords exactly
    when the elimination over the breadth-first chords of the whole stage
    and the dense oracle say so."""
    cases = [(model, core.complex, view) for _, model, _, stages in catalog_stages
             for core, view in stages if core.verified]
    cases += [(model, core.complex, view) for model, core, _, _, view in catalog_stage_views]
    seen: Counter = Counter()
    for model, frozen, view in cases:
        label = {e: g for g, group in enumerate(view.labelled) for e, _, _ in group}
        for allowed in model.maximal_non_filling_sets:
            chords = _forest_chords(view, allowed)
            assert len(set(chords)) == len(chords) == \
                len(oracles.oracle_forest_chords(frozen, allowed))
            assert all(allowed >> label[e] & 1 for e in chords)
            vanishes = _h1_vanishes_at(view, allowed)
            assert vanishes == oracles.oracle_h1_vanishes(frozen, allowed) == \
                (oracles.oracle_h1_rank(frozen, allowed) == 0)
            seen[vanishes] += 1
    assert len(cases) >= 40 and min(seen[True], seen[False]) >= 10, (len(cases), seen)


def test_walk_on_view_matches_frozen_stage(catalog_stages):
    """On every catalog stage, verified or not, the basepoint-loop walk on
    the view's letter table, read lazily, equals the walk on the frozen
    stage's, up to the stage's ell within the catalog's enumeration
    budget, the budget stop and its partial count included."""
    stops = Counter()
    for _, _, _, stages in catalog_stages:
        for core, view in stages:
            ell = 3 * (core.diagnostics["vertex_count"] + 1)
            walked = _walk(view, ell)
            assert walked == _walk(core.complex, ell)
            stops[core.verified, walked[1] is None] += 1
    assert min(stops[True, True], stops[False, False]) >= 5, stops


def test_partial_stage_core_is_frozen_on_read(monkeypatch):
    """A run, certified, refuted or inconclusive, on a budget-exceeded
    stage or a verified one, freezes no stage until ``cert.core`` is read,
    and then once; that core is the one a fresh ``build_core`` at the last
    stage's budget makes."""
    freezes = []
    freeze = _Builder.freeze

    def counting_freeze(self):
        freezes.append(self)
        return freeze(self)

    monkeypatch.setattr(_Builder, "freeze", counting_freeze)
    abc = GRAPH_ZOO[1]
    augmented = [parse_word(t, abc) for t in ("a b c", "c a b", "a^2 b c")]
    problems = [(abc, augmented, {"enum_budget": 1})]
    problems += [(graph, gens, CATALOG_BUDGETS)
                 for graph, gens in catalog_sample(random.Random(29))]
    ends = Counter()
    for graph, gens, budgets in problems:
        model = SurfaceModel.build(graph, [graph.vertices])
        freezes.clear()
        cert = certify(graph, model, gens, **budgets)
        ends[cert.verdict, cert.core_status] += 1
        assert not freezes, (gens, freezes)
        core = cert.core
        assert cert.core is core and len(freezes) == 1 and core.status == cert.core_status
        words = [g.as_word() for g in cert.generators]
        (last, _) = cert.diagnostics["stages"][-1]
        fresh = build_core(graph, words, budget=last)
        assert (core.complex, core.status, core.diagnostics) == \
            (fresh.complex, fresh.status, fresh.diagnostics)
        assert (core.diagnostics["vertex_count"], core.diagnostics["square_count"]) == \
            (cert.core_vertex_count, cert.core_square_count)
    assert min(ends[REFUTED, BUDGET_EXCEEDED], ends[INCONCLUSIVE, BUDGET_EXCEEDED],
               ends[REFUTED, VERIFIED], ends[CERTIFIED, VERIFIED]) >= 3, ends


def test_certificate_drops_its_builder_once_core_is_read(monkeypatch):
    """An undecided certificate keeps its stage's ``_Builder`` only until
    ``cert.core`` is read: the read freezes the core, caches it, and drops
    the thunk that held the builder."""
    builders = []
    init = _Builder.__init__

    def tracked_init(self, *args):
        builders.append(weakref.ref(self))
        init(self, *args)

    monkeypatch.setattr(_Builder, "__init__", tracked_init)
    graph = CATALOG_GRAPHS["cycle4"]
    texts = json.loads(CATALOG.read_text())["graphs"]["cycle4"]["inconclusive"][0]
    model = SurfaceModel.build(graph, [graph.vertices])
    cert = certify(graph, model, [parse_word(t, graph) for t in texts], **CATALOG_BUDGETS)
    assert cert.verdict == INCONCLUSIVE and len(builders) == 1
    gc.collect()
    assert builders[0]() is not None
    core = cert.core
    gc.collect()
    assert builders[0]() is None
    assert cert.core is core and cert.core is cert.core
    assert core.diagnostics["vertex_count"] == cert.core_vertex_count


def test_certified_core_is_link_checked_before_the_verdict(abc_graph, abc_model, monkeypatch):
    """A certified verdict is returned only after its stage has passed the
    link check on the builder: with a filled corner taken off the
    stabilized builder, ``certify`` raises ``InternalError`` instead of
    returning.  The core, frozen when ``cert.core`` is first read, is
    link-checked again: with ``_link_violations`` made to report a
    violation, the verdict is returned and reading its core raises."""
    gens = [parse_word("b c a", abc_graph), parse_word("b a b c", abc_graph)]
    assert certify(abc_graph, abc_model, gens).verdict == CERTIFIED
    grow = _Builder.grow

    def grow_and_unfill(self, budget):
        status = grow(self, budget)
        if status == VERIFIED:
            corners = next(corners for corners in self.filled.values() if corners)
            corners.discard(min(corners))
        return status

    with monkeypatch.context() as patched:
        patched.setattr(_Builder, "grow", grow_and_unfill)
        with pytest.raises(InternalError, match="failed the link check: corner"):
            certify(abc_graph, abc_model, gens)
    violation = LinkReport(foldable=((0, "b", 0, (0, 1)),), unfilled=())
    monkeypatch.setattr("raagcc.complexes._link_violations", lambda complex_: violation)
    cert = certify(abc_graph, abc_model, gens)
    assert cert.verdict == CERTIFIED
    with pytest.raises(InternalError, match="stabilized complex failed the link check"):
        cert.core


# -- verdicts under changes of generating set --------------------------------------


@st.composite
def zoo_subgroup(draw):
    """A seeded subgroup over a graph of the zoo: two or three generators
    drawn as in the differential problems, and the seeded generator for
    the change made to them."""
    graph = draw(st.sampled_from(GRAPH_ZOO))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    gens = [word_from_pairs(_random_generator(graph, rng)) for _ in range(rng.randint(2, 3))]
    return graph, gens, rng


def _verdict(graph: DefiningGraph, gens) -> str:
    model = SurfaceModel.build(graph, [graph.vertices])
    return certify(graph, model, gens, **CATALOG_BUDGETS).verdict


@settings(max_examples=100, deadline=None, derandomize=True)
@given(zoo_subgroup())
def test_decided_verdict_survives_a_redundant_generator(problem):
    """Adding the product of two generators spans the same subgroup: a
    decided verdict may turn inconclusive (the construction has more to
    fold), never into the other verdict."""
    graph, gens, rng = problem
    before = _verdict(graph, gens)
    assume(before != INCONCLUSIVE)
    i, j = rng.randrange(len(gens)), rng.randrange(len(gens))
    assert _verdict(graph, gens + [concat(gens[i], gens[j])]) in (before, INCONCLUSIVE)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(zoo_subgroup())
def test_decided_verdict_survives_conjugation(problem):
    """Conjugating every generator by one short word gives a conjugate
    subgroup, which is convex cocompact exactly when the subgroup is."""
    graph, gens, rng = problem
    before = _verdict(graph, gens)
    assume(before != INCONCLUSIVE)
    conj = word_from_pairs([(rng.choice(graph.vertices), rng.choice((1, -1)))
                            for _ in range(rng.randint(1, 3))])
    conjugated = [concat(concat(conj, g), invert(conj)) for g in gens]
    assert _verdict(graph, conjugated) in (before, INCONCLUSIVE)
