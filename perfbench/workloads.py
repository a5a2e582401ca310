"""The benchmark's workloads.

Each workload is built from the freshly imported ``raagcc`` package and the
workload seed.  It holds a fixed list of ops (one pass); ``run`` performs one
op through the public API, ``check`` verifies its output outside the timed
region, and ``fingerprint`` summarises an output so that later passes over
the same op can be compared with the checked first one.

Calls go through module attributes looked up at call time, so that the
tracer's rebinding of those names is seen.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from zoo import CELL_BUDGET, ENUM_BUDGET, GRAPHS

HERE = Path(__file__).resolve().parent

WORKED = ("b c a", "b a b c")
WORKED_EXTENDED = ("b c a", "b a b c", "b^2 c^2 a^2")
WORKED_AUGMENTED = ("a b c", "c a b", "a^2 b c")


def _random_word(rng: random.Random, vertices, length: int) -> list[tuple[str, int]]:
    """A freely reduced random letter sequence of the given length."""
    out: list[tuple[str, int]] = []
    while len(out) < length:
        letter = (rng.choice(vertices), rng.choice((1, -1)))
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            continue
        out.append(letter)
    return out


def _graph(api, name: str):
    vertices, edges = GRAPHS[name]
    graph = api.DefiningGraph.build(vertices, edges)
    graph._index, graph._adjacency  # warm the lazy caches
    return graph


def _full_model(api, graph):
    return api.SurfaceModel.build(graph, [list(graph.vertices)], admissible=True)


def worked_certificate(api):
    """Certify the worked subgroup <b c a, b a b c> at the library defaults."""
    graph = api.DefiningGraph.build("abc", [("b", "c")])
    model = _full_model(api, graph)
    return api.certify(graph, model, [api.parse_word(t, graph) for t in WORKED])


def check_worked(api, cert) -> str | None:
    if cert.verdict != "certified":
        return f"worked example <b c a, b a b c> gave {cert.verdict}, expected certified"
    return _check_certified(api, cert)


def _check_certified(api, cert) -> str | None:
    if not cert.core.verified or not api.check_local_isometry(cert.core.complex).ok:
        return "certified core fails the local-isometry check"
    if cert.ell != 3 * (cert.core_vertex_count + 1):
        return f"ell {cert.ell} != 3*(V+1) with V={cert.core_vertex_count}"
    return None


def _lr_error(api, graph, word, i: int, j: int, left, right) -> str | None:
    """The subword decomposition contract of acceptance 03."""
    pairs = word.pairs()
    mid = api.word_from_pairs(pairs[i + 1:j])
    joined = api.concat(left.as_word(), right.as_word())
    if api.normalize(joined, graph) != api.normalize(mid, graph):
        return f"L*R != middle subword for pair ({i}, {j})"
    if not api.is_normal(api.Word(joined.letters), graph):
        return f"L*R not normal for pair ({i}, {j})"
    if not all(graph.commutes(s.generator, pairs[i][0]) for s in left.syllables):
        return f"L does not commute with syllable {i}"
    if not all(graph.commutes(s.generator, pairs[j][0]) for s in right.syllables):
        return f"R does not commute with syllable {j}"
    return None


def _reduction_error(api, graph, nw, conj, core) -> str | None:
    """conj * core * conj^-1 normalizes back to the input normal form."""
    back = api.concat(api.concat(conj.as_word(), core.as_word()), api.invert(conj.as_word()))
    if api.normalize(back, graph) != nw:
        return "conj*core*conj^-1 does not normalize back to the input"
    if core.syllable_length > nw.syllable_length:
        return "cyclic reduction lengthened the word"
    return None


def _word_error(api, graph, word, nw) -> str | None:
    """The normal form is normal and spells the same element as the input."""
    if not api.is_normal(nw, graph):
        return "normalize returned a non-normal word"
    if nw.letter_length > len(word.letters):
        return "normal form is longer than its input"
    if api.normalize(api.concat(word, api.invert(nw.as_word())), graph).syllables:
        return "normal form spells a different element"
    return None


class CertifyZoo:
    """Closed loop of ``certify`` calls on a stratified draw of subgroups.

    The seed draws a fixed number of problems from each (graph, stored
    verdict) stratum of ``zoo_catalog.json``, so each pass has the same mix
    of fast refutations, certifications and budget-bound inconclusive runs.
    The median op is a refutation over abc or sparse4 (about 1 ms): all 80 of
    each are used, so that the median sits inside that dense cluster rather
    than on its edge, where it moved by a quarter between seeds.  The three
    worked examples and the ring-family generator sets family(3,1),
    family(3,2) and family(4,1) are always included.
    """

    REFUTED = {"abc": 80, "path4": 20, "cycle4": 20, "sparse4": 80}
    DRAW = {"certified": 16, "inconclusive": 2}
    TINY_REFUTED = 2
    TINY_DRAW = {"certified": 1, "inconclusive": 0}

    def __init__(self, api, seed: int, tiny: bool):
        self.api = api
        rng = random.Random(seed)
        catalog = json.loads((HERE / "zoo_catalog.json").read_text())
        if (catalog["cell_budget"], catalog["enum_budget"]) != (CELL_BUDGET, ENUM_BUDGET):
            raise RuntimeError("zoo_catalog.json was made at other budgets; run make_catalog.py")
        self.ops = []
        budgets = {"cell_budget": CELL_BUDGET, "enum_budget": ENUM_BUDGET}
        for name, strata in catalog["graphs"].items():
            graph = _graph(api, name)
            model = _full_model(api, graph)
            draw = {"refuted": self.TINY_REFUTED if tiny else self.REFUTED[name],
                    **(self.TINY_DRAW if tiny else self.DRAW)}
            for verdict, count in draw.items():
                for gens in rng.sample(strata[verdict], min(count, len(strata[verdict]))):
                    words = [api.parse_word(t, graph) for t in gens]
                    self.ops.append((f"{name}:{' | '.join(gens)}", graph, model, words,
                                     budgets, verdict))
        abc = _graph(api, "abc")
        abc_model = _full_model(api, abc)
        worked = [("worked <b c a, b a b c>", WORKED, {}, "certified"),
                  ("worked augmented", WORKED_AUGMENTED, budgets, "refuted"),
                  ("worked extended", WORKED_EXTENDED, budgets, None)]
        for label, gens, kw, verdict in worked[1 if tiny else 0:]:
            self.ops.append((label, abc, abc_model,
                             [api.parse_word(t, abc) for t in gens], kw, verdict))
        for n, N in ((3, 1), (3, 2), (4, 1))[:1 if tiny else 3]:
            fam = api.family(n, N)
            fam.graph._index, fam.graph._adjacency
            self.ops.append((f"family({n},{N})", fam.graph, fam.model,
                             [w.as_word() for w in fam.generators], budgets, None))
        rng.shuffle(self.ops)

    def run(self, op):
        _, graph, model, words, budgets, _ = op
        return self.api.certify(graph, model, words, **budgets)

    @staticmethod
    def fingerprint(cert):
        return (cert.verdict, cert.witness and cert.witness.pairs(), cert.element_count)

    @staticmethod
    def decided(cert) -> bool:
        return cert.verdict in ("certified", "refuted")

    def check(self, op, cert) -> str | None:
        api = self.api
        label, graph, model, _, _, stored = op
        if cert.verdict not in ("certified", "refuted", "inconclusive"):
            return f"unknown verdict {cert.verdict!r}"
        if stored in ("certified", "refuted") and self.decided(cert) and cert.verdict != stored:
            return f"decided verdict flipped from {stored} to {cert.verdict}"
        if label.startswith("worked") and stored is not None and cert.verdict != stored:
            return f"{label} gave {cert.verdict}, expected {stored}"
        if cert.verdict == "certified":
            return _check_certified(api, cert)
        if cert.verdict == "refuted":
            if cert.witness is None or api.fills(cert.witness, model):
                return "refutation witness fills"
            if cert.core.verified and not api.membership(cert.core, cert.witness):
                return "refutation witness is not a subgroup member"
            if label == "worked augmented" and cert.witness_support != frozenset("a"):
                return f"augmented example witness support {sorted(cert.witness_support)} != ['a']"
        return None


class WordsLong:
    """One long random word through normalize, cyclically_reduce,
    syllable_order and two subword_decompose calls.

    Sizes follow a geometric ladder, with fewer words the longer they are.
    The counts put the median op in the middle of the 256-letter rung and
    p90 inside the 1024-letter rung, not on the edge between two rungs.  The
    syllable order and the decompositions run on a prefix of the cyclic
    core, a quarter of the word's length, because they hold a quadratic set
    of pairs.
    """

    # letters -> words per graph and pass
    LADDER = {128: 15, 256: 12, 512: 9, 1024: 6}
    TINY_LADDER = {16: 1, 32: 1}

    def __init__(self, api, seed: int, tiny: bool):
        self.api = api
        rng = random.Random(seed)
        graphs = [_graph(api, "abc")]
        ring = api.family(4, 1).graph
        ring._index, ring._adjacency
        graphs.append(ring)
        self.ops = []
        for graph in graphs:
            for size, count in (self.TINY_LADDER if tiny else self.LADDER).items():
                for _ in range(count):
                    pairs = _random_word(rng, graph.vertices, size)
                    self.ops.append((graph, api.word_from_pairs(pairs), size // 4))
        rng.shuffle(self.ops)

    def run(self, op):
        api = self.api
        graph, word, order_letters = op
        nw = api.normalize(word, graph)
        conj, core = api.cyclically_reduce(nw, graph)
        prefix, letters = [], 0
        for s in core.syllables:
            if letters >= order_letters:
                break
            prefix.append((s.generator, s.exponent))
            letters += abs(s.exponent)
        head = api.normal_word_from_pairs(prefix)
        order = api.syllable_order(head, graph)
        picked = []
        k = len(prefix)
        for i in range(k):  # the widest unordered pair within 8 syllables
            for j in range(min(k - 1, i + 8), i, -1):
                if not order.comparable(i, j):
                    picked.append((i, j))
                    break
            if len(picked) == 2:
                break
        decs = [(i, j, *api.subword_decompose(head, i, j, graph)) for i, j in picked]
        return nw, conj, core, head, order, decs

    @staticmethod
    def fingerprint(out):
        nw, conj, core, head, order, decs = out
        return (nw.pairs(), conj.pairs(), core.pairs(), len(order.pairs),
                tuple((i, j, l.pairs(), r.pairs()) for i, j, l, r in decs))

    @staticmethod
    def decided(out) -> bool:
        return True

    def check(self, op, out) -> str | None:
        api = self.api
        graph, word, _ = op
        nw, conj, core, head, order, decs = out
        err = _word_error(api, graph, word, nw) or _reduction_error(api, graph, nw, conj, core)
        if err:
            return err
        for i, j, left, right in decs:
            if order.comparable(i, j):
                return f"decomposed an ordered pair ({i}, {j})"
            err = _lr_error(api, graph, head, i, j, left, right)
            if err:
                return err
        return None


class WordsShort:
    """One short word (1-12 letters) through normalize, is_normal,
    syllable_order, subword_decompose on every unordered syllable pair,
    membership in a worked core, and fills.  Per-call overhead dominates."""

    WORDS_PER_LENGTH = 40
    TINY_WORDS_PER_LENGTH = 1

    def __init__(self, api, seed: int, tiny: bool):
        self.api = api
        rng = random.Random(seed)
        setups = [("abc", WORKED), ("path4", ("a b c d", "b d a c"))]
        self.ops = []
        per_length = self.TINY_WORDS_PER_LENGTH if tiny else self.WORDS_PER_LENGTH
        for name, gens in setups:
            graph = _graph(api, name)
            model = _full_model(api, graph)
            core = api.build_core(graph, [api.parse_word(t, graph) for t in gens])
            if not core.verified:
                raise RuntimeError(f"the {name} core did not verify")
            api.membership(core, api.parse_word(gens[0], graph))  # warm trace maps
            members = {w.pairs() for w in api.enumerate_elements(core, 12)}
            for length in range(1, 13):
                for _ in range(per_length):
                    pairs = [(rng.choice(graph.vertices), rng.choice((1, -1)))
                             for _ in range(length)]
                    conj = rng.choice(graph.vertices)
                    self.ops.append((graph, model, core, members,
                                     api.word_from_pairs(pairs), conj))
        rng.shuffle(self.ops)

    def run(self, op):
        api = self.api
        graph, model, core, _, word, _ = op
        nw = api.normalize(word, graph)
        normal = api.is_normal(nw, graph)
        order = api.syllable_order(nw, graph)
        k = len(nw.syllables)
        decs = [(i, j, *api.subword_decompose(nw, i, j, graph))
                for i in range(k) for j in range(i + 1, k) if not order.comparable(i, j)]
        member = api.membership(core, word)
        fills = api.fills(word, model)
        return nw, normal, order, decs, member, fills

    @staticmethod
    def fingerprint(out):
        nw, normal, order, decs, member, fills = out
        return (nw.pairs(), normal, order.pairs,
                tuple((i, j, l.pairs(), r.pairs()) for i, j, l, r in decs), member, fills)

    @staticmethod
    def decided(out) -> bool:
        return True

    def check(self, op, out) -> str | None:
        api = self.api
        graph, model, core, members, word, conj_label = op
        nw, normal, order, decs, member, fills = out
        err = _word_error(api, graph, word, nw)
        if err:
            return err
        if not normal:
            return "is_normal rejected a normal form"
        conj, cyc = api.cyclically_reduce(nw, graph)
        err = _reduction_error(api, graph, nw, conj, cyc)
        if err:
            return err
        k = len(nw.syllables)
        expected = [(i, j) for i in range(k) for j in range(i + 1, k)
                    if (i, j) not in order.pairs]
        if [(i, j) for i, j, _, _ in decs] != expected:
            return "decomposed pairs differ from the unordered pairs"
        for i, j, left, right in decs:
            err = _lr_error(api, graph, nw, i, j, left, right)
            if err:
                return err
        if member != (nw.pairs() in members):
            return "membership disagrees with the enumerated elements up to length 12"
        letter = api.word_from_pairs([(conj_label, 1)])
        conjugate = api.concat(api.concat(letter, word), api.invert(letter))
        if fills != api.fills(conjugate, model):
            return "fills is not invariant under conjugation"
        if fills != model.fills_subset(s.generator for s in cyc.syllables):
            return "fills disagrees with the cyclic core's support"
        return None


class RingSweep:
    """One random h-word over a ring family checked four ways: the
    span-containment sweep, the order window, the filling-block window and
    the displacement upper bound.  Stratified over families and h-word
    lengths longer than the acceptance suite's."""

    FAMILIES = ((4, 1), (6, 2), (8, 2), (10, 2), (10, 3))
    LENGTHS = (8, 16, 24)
    PER_CELL = 6
    STAR_K = 3

    def __init__(self, api, seed: int, tiny: bool):
        self.api = api
        rng = random.Random(seed)
        self.ops = []
        families = self.FAMILIES[:2] if tiny else self.FAMILIES
        lengths = (4,) if tiny else self.LENGTHS
        for n, N in families:
            fam = api.family(n, N)
            fam.graph._index, fam.graph._adjacency
            star_k = min(self.STAR_K, n // 2)
            for length in lengths:
                for _ in range(1 if tiny else self.PER_CELL):
                    h = []
                    while len(h) < length:
                        cand = (rng.randrange(1, N + 1), rng.choice((1, -1)))
                        if h and h[-1][0] == cand[0] and h[-1][1] == -cand[1]:
                            continue
                        h.append(cand)
                    self.ops.append((fam, star_k, tuple(h)))
        rng.shuffle(self.ops)

    def run(self, op):
        fam, star_k, h = op
        family_mod = sys.modules["raagcc.family"]
        star = family_mod.verify_star(fam, star_k)
        window = family_mod.verify_order_window(fam, [h])
        blocks = family_mod.window_constant_check(fam, [h])
        m, bound = family_mod.displacement_upper(h, fam)
        return star, window, blocks, m, bound

    @staticmethod
    def fingerprint(out):
        star, window, blocks, m, bound = out
        return star.tested, star.ok, window.tested, window.ok, blocks, m, bound

    @staticmethod
    def decided(out) -> bool:
        return True

    def check(self, op, out) -> str | None:
        fam, star_k, h = op
        star, window, blocks, m, bound = out
        N = fam.N
        expected_tested = 1 + sum(2 * N * (2 * N - 1) ** (k - 1) for k in range(1, star_k + 1))
        if not star.ok or star.tested != expected_tested:
            return f"verify_star not ok or tested {star.tested} != {expected_tested}"
        if not window.ok or window.tested != 1:
            return "verify_order_window not ok"
        if blocks is not True:
            return "window_constant_check failed"
        g = fam.n + 1
        if bound != 2 * m or bound > Fraction(4 * len(h), g - 1) + 2:
            return f"displacement bound {bound} breaks 2m <= 4|h|/(g-1) + 2"
        return None


WORKLOADS = {
    "certify-zoo": CertifyZoo,
    "words-long": WordsLong,
    "words-short": WordsShort,
    "ring-sweep": RingSweep,
}
