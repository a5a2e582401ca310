"""An explicit family of certified subgroups over a ring of subsurfaces.

The configuration: ``2n`` subsurfaces around a genus ``n+1`` surface, one
once-punctured torus ``X_i`` and one four-punctured sphere ``Y_i`` per ring
position, indices mod ``n``.  The supports overlap only locally, so the
generators ``f_i`` (on ``X_i``) and ``g_i`` (on ``Y_i``) commute except for
``f_i`` with ``g_{i-1}`` and ``g_i``; the commutation graph's complement is
a ``2n``-cycle alternating f and g labels.  No proper subset of the
supports fills, so the surface model's only minimal filling set is the full
label set.

The subgroup generators are ring words
``w_i = (g_1^i .. g_{n-1}^i)(f_1^i g_n^i)(f_2^i .. f_n^i) = B_i M_i E_i``.
Products of the ``w_i`` rewrite into a B/M/E normal form by merging the
all-commuting B- and E-blocks across generator boundaries; the result is in
normal form with respect to the standard generators.  Each symbol kind (B,
E, M, Minv) is spelled from one block of (vertex index, sign) syllables
cached per family, so the checks read the form as (vertex index, exponent)
syllables; labels are spelled only for the generators and by
``bme_normal_form``.

Displacement tracking: a curve state records, as two bitmasks over the
graph's vertex indices, the supports whose span contains the curve and the
supports the curve is known to miss.  Two supports meet exactly when their
generators fail to commute, so the graph's commutation masks are the only
disjointness rule.  Applying a generator letter (rightmost letter acts
first) grows the span only when the letter's support meets it; while the
span stays proper, the curve moves at most distance 2 in the curve
complex.  This reproduces the family's upper bounds: d(alpha, h alpha) <=
|h| * 4/(g-1) + 2 and stable translation length at most 4/(g-1) for each
generator.

Every w_i spells the same B M E syllables, so a generator's letter
supports, in the order they act, depend only on its sign; they are
computed once per family.  An h-word is applied generator by generator
through a transition memo from (state, generator sign) to state; one
memo serves one call (a whole star sweep, or every block of one
displacement bound), so each distinct transition is folded only once per
call, on the state's two masks, building one state.  Nothing is cached
across calls.  An h-word's state therefore depends only on its sign
pattern, so the star sweep visits the 2^k sign patterns of each length k
rather than the (2N)(2N-1)^(k-1) h-words: a pattern's state comes from its
suffix pattern one length shorter, it stands for the count of freely
reduced words with that pattern, and words are spelled only when a
pattern fails.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import ContractError, InputError, InternalError, _require_int
from .graphs import DefiningGraph
from .surfaces import SurfaceModel, _require_window, _window_holds
from .words import (Letter, NormalWord, _group_letters, _is_normal_indexed, _pairs_to_text,
                    _predecessor_masks, _spell, is_normal)

# An h-word over the subgroup generators: ((i, +1) | (i, -1), ...), 1 <= i <= N.
HWord = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Section8Family:
    """Ring family data: graph, full-set filling model, and generators."""

    n: int
    N: int
    graph: DefiningGraph
    model: SurfaceModel
    generators: tuple[NormalWord, ...]

    @cached_property
    def _window_constants(self) -> FamilyConstants:
        b = 3 * self.N * self.n + 4 * self.N
        d = self.graph.complement_diameter()
        L = d * b
        ell_prime = b + 4 * L * self.N + 1
        return FamilyConstants(b=b, d=d, L=L, ell_prime=ell_prime, ell=ell_prime + 2 * self.N)

    @cached_property
    def _blocks(self) -> dict[str, tuple[tuple[int, int], ...]]:
        """Per B/M/E symbol kind, its syllables as (vertex index, sign); a
        symbol with subscript k spells them with exponent sign * k."""
        return _symbol_blocks(self.n)

    @cached_property
    def _letter_supports(self) -> dict[int, tuple[int, ...]]:
        """Per sign, the letter supports of every w_i with that sign, as
        vertex indices in the order they act (rightmost letter first); a
        syllable's repeated letters fold like one."""
        spelled = tuple(z for kind in "BME" for z, _ in self._blocks[kind])
        return {1: spelled[::-1], -1: spelled}

    @cached_property
    def _meets(self) -> tuple[int, ...]:
        """Per vertex index, the supports its support meets: itself and every
        generator it fails to commute with, i.e. the complement of its
        commutation mask (a negative int, so only its low bits are read)."""
        return tuple(~m for m in self.graph.comm_masks)


@dataclass(frozen=True)
class FamilyConstants:
    """The certified window constants of the family."""

    b: int          # letter window guaranteeing a filling block in B/M/E forms
    d: int          # diameter of the complement graph (the 2n-cycle)
    L: int          # syllable separation forcing order: d * b
    ell_prime: int  # b + 4*L*N + 1
    ell: int        # ell_prime + 2*N


def family(n: int, N: int) -> Section8Family:
    """Construct the ring family for a genus n+1 surface and N generators."""
    _require_int("n", n)
    _require_int("N", N)
    if n < 2:
        raise InputError(f"ring size n must be >= 2, got {n}")
    if N < 1:
        raise InputError(f"generator count N must be >= 1, got {N}")
    g = [f"g{t}" for t in range(1, n + 1)]
    f = [f"f{t}" for t in range(1, n + 1)]
    labels = g + f
    # The f's commute, the g's commute, and f_i fails to commute only with
    # g_{i-1} and g_i: as list positions, f[i] with g[i - 1] and g[i].
    edges = [(side[i], side[j]) for side in (f, g) for i in range(n) for j in range(i + 1, n)]
    edges += [(f[i], g[j]) for i in range(n) for j in range(n) if j not in ((i - 1) % n, i)]
    graph = DefiningGraph.build(labels, edges)
    model = SurfaceModel.build(graph, [labels], admissible=True)
    blocks = _symbol_blocks(n)
    gens = tuple(_spell([(z, sign * i) for kind in "BME" for z, sign in blocks[kind]], graph)
                 for i in range(1, N + 1))
    for w in gens:
        if not is_normal(w, graph):
            raise InternalError(f"family generator {w.to_text()!r} is not normal")
    return Section8Family(n=n, N=N, graph=graph, model=model, generators=gens)


# -- B/M/E symbols -----------------------------------------------------------
# A symbol is ("B", k), ("E", k) with k any nonzero integer, ("M", i) or
# ("Minv", i) with i >= 1.  B and E invert by negating k; M does not.


def _symbol_blocks(n: int) -> dict[str, tuple[tuple[int, int], ...]]:
    """Each symbol kind's (vertex index, sign) syllables, ``g_t`` at index
    ``t - 1`` and ``f_t`` at ``n + t - 1``: B is g_1 .. g_{n-1}, E is
    f_2 .. f_n, M is f_1 g_n, and Minv is g_n^-1 f_1^-1."""
    return {"B": tuple((t, 1) for t in range(n - 1)),
            "E": tuple((n + t, 1) for t in range(1, n)),
            "M": ((n, 1), (n - 1, 1)),
            "Minv": ((n - 1, -1), (n, -1))}


def h_word_symbols(h: HWord) -> list[tuple[str, int]]:
    """The merged B/M/E symbol sequence of a freely reduced h-word.

    At a ``w_i w_j^-1`` boundary the two all-commuting E-blocks merge into
    ``E_{i-j}``; at ``w_i^-1 w_j`` the B-blocks merge into ``B_{j-i}``.
    Free reduction guarantees the merged subscripts are nonzero.
    """
    _require_reduced(h)
    symbols: list[tuple[str, int]] = []
    for idx, sign in h:
        head, *rest = ((("B", idx), ("M", idx), ("E", idx)) if sign > 0
                       else (("E", -idx), ("Minv", idx), ("B", -idx)))
        # Only a generator's first symbol can meet a symbol of its own kind.
        if symbols and symbols[-1][0] == head[0]:
            merged = symbols[-1][1] + head[1]
            if merged == 0:
                raise InternalError("zero B/E subscript from a reduced h-word")
            symbols[-1] = (head[0], merged)
        else:
            symbols.append(head)
        symbols += rest
    return symbols


def _bme_pairs(h: HWord, fam: Section8Family) -> list[tuple[int, int]]:
    """The B/M/E normal form of a freely reduced h-word, as (vertex index,
    exponent) syllables."""
    blocks = fam._blocks
    return [(z, sign * k) for kind, k in h_word_symbols(h) for z, sign in blocks[kind]]


def _h_word(h: HWord | str, fam: Section8Family) -> HWord:
    """An h-word given as text (parsed) or as index pairs, with every
    generator index in 1..N and every sign 1 or -1."""
    if isinstance(h, str):
        return parse_h_word(h, fam.N)
    h = tuple(h)
    for idx, sign in h:
        if type(idx) is not int or type(sign) is not int:  # exact ints need no call
            _require_int("generator index", idx)
            _require_int("generator sign", sign)
        if not 1 <= idx <= fam.N:
            raise InputError(f"generator index {idx} out of range 1..{fam.N}")
        if sign not in (1, -1):
            raise InputError(f"generator sign {sign} is not 1 or -1")
    return h


def _require_reduced(h: HWord) -> None:
    for a, b in zip(h, h[1:]):
        if a[0] == b[0] and a[1] == -b[1]:
            raise ContractError(f"h-word is not freely reduced at {a} {b}")


def free_reduce(h: Iterable[tuple[int, int]]) -> HWord:
    out: list[tuple[int, int]] = []
    for idx, sign in h:
        if out and out[-1][0] == idx and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((idx, sign))
    return tuple(out)


_H_TOKEN = re.compile(r"^w(\d+)(?:\^(-?\d+))?$")


def parse_h_word(text: str, N: int) -> HWord:
    """Parse ``"w1 w2^-1 w1^3"`` into an h-word (freely reduced)."""
    out: list[tuple[int, int]] = []
    for token in text.split():
        m = _H_TOKEN.match(token)
        if m is None:
            raise InputError(f"malformed generator token {token!r} (expected wI or wI^k)")
        idx = int(m.group(1))
        exp = 1 if m.group(2) is None else int(m.group(2))
        if not 1 <= idx <= N:
            raise InputError(f"generator index {idx} out of range 1..{N}")
        if exp == 0:
            raise InputError(f"zero exponent in {token!r}")
        sign = 1 if exp > 0 else -1
        out.extend([(idx, sign)] * abs(exp))
    return free_reduce(out)


def h_word_text(h: HWord) -> str:
    return _pairs_to_text(_group_letters([(f"w{i}", sign) for i, sign in h]))


def bme_normal_form(h: HWord | str, fam: Section8Family) -> NormalWord:
    """Expand a freely reduced h-word into its B/M/E normal form."""
    return _spell(_bme_pairs(_h_word(h, fam), fam), fam.graph)


def constants(fam: Section8Family) -> FamilyConstants:
    """Exact window constants; the complement diameter comes from BFS, run
    once per family."""
    return fam._window_constants


# -- span tracking -----------------------------------------------------------


class SpanState(NamedTuple):
    """A span container for a curve, as bitmasks over the family graph's
    vertex indices (``g_t`` at ``t - 1``, ``f_t`` at ``n + t - 1``): the
    supports whose span contains it, and the supports it is known to miss."""

    contained_in: int
    misses: int

    def is_proper(self, n: int) -> bool:
        return self.contained_in.bit_count() < 2 * n


def alpha_state(fam: Section8Family) -> SpanState:
    """The tracked curve: the separating curve inside Y_0 missing X_0 and X_1,
    the supports of g_n, f_n and f_1 (vertex indices n - 1, 2n - 1 and n)."""
    n = fam.n
    return SpanState(contained_in=1 << (n - 1), misses=(1 << (2 * n - 1)) | (1 << n))


def span_apply(state: SpanState, generator: str | Letter, fam: Section8Family) -> SpanState:
    """Apply one generator letter to a span state (the sign is irrelevant:
    only the letter's support matters).

    A letter whose support the curve misses, or whose support is disjoint
    from everything in the container, cannot move the curve out of the
    container.  Otherwise the support joins the container and the miss set
    is cleared: only containment is known afterward.
    """
    label = generator.generator if isinstance(generator, Letter) else str(generator)
    return _fold_supports(state, (fam.graph.index(label),), fam._meets)


def _fold_supports(state: SpanState, supports: Iterable[int],
                   meets: Sequence[int]) -> SpanState:
    """The rule of ``span_apply`` for letters with these vertex-index
    supports, in the order they act, on the state's two masks."""
    span, misses = state
    for z in supports:
        if not misses >> z & 1 and span & meets[z]:
            span |= 1 << z
            misses = 0
    return SpanState(span, misses)


class _Transitions(dict):
    """A memo from (state, generator sign) to the state a generator of that
    sign takes it to.  A miss folds the sign's letter supports on the two
    masks and builds one state; one memo serves one call."""

    def __init__(self, fam: Section8Family):
        super().__init__()
        self.fam = fam

    def __missing__(self, key: tuple[SpanState, int]) -> SpanState:
        fam = self.fam
        nxt = self[key] = _fold_supports(key[0], fam._letter_supports[key[1]], fam._meets)
        return nxt


def _fold_h(state: SpanState, h: HWord, memo: _Transitions) -> SpanState:
    """Apply an h-word through a transition memo, rightmost generator first."""
    for _, sign in reversed(h):
        state = memo[state, sign]
    return state


def span_apply_h(state: SpanState, h: HWord, fam: Section8Family) -> SpanState:
    """Apply an h-word generator by generator, rightmost generator first.

    Each generator acts through its own B/M/E spelling (no merging across
    generator boundaries), matching the inductive displacement argument.
    """
    return _fold_h(state, _h_word(tuple(h), fam), _Transitions(fam))


def _containers(k: int, fam: Section8Family) -> tuple[int, int]:
    """The step-k span containers reached from the X-side and the Y-side:
    X_{1-k}..X_{k-1} with Y_{1-k}..Y_{k-2}, and Y_{1-k}..Y_k with X_{2-k}..X_k."""
    n = fam.n

    def ring(first: int, last: int) -> int:
        # Ring positions first..last: the g_t at bits (t - 1) % n; shifted by n, the f_t.
        return sum({1 << ((t - 1) % n) for t in range(first, last + 1)})

    return ((ring(1 - k, k - 1) << n) | ring(1 - k, k - 2),
            ring(1 - k, k) | (ring(2 - k, k) << n))


def _h_words_upto(N: int, max_len: int) -> Iterator[HWord]:
    """All freely reduced h-words of length at most max_len, shortest first."""
    level: list[HWord] = [()]
    yield ()
    for _ in range(max_len):
        nxt: list[HWord] = []
        for h in level:
            for idx in range(1, N + 1):
                for sign in (1, -1):
                    if h and h[-1][0] == idx and h[-1][1] == -sign:
                        continue
                    grown = h + ((idx, sign),)
                    nxt.append(grown)
                    yield grown
        level = nxt


@dataclass(frozen=True)
class StarReport:
    """Result of the exhaustive span-containment sweep."""

    tested: int
    violations: tuple[tuple[str, str], ...]  # (h-word text, failure description)
    all_proper: bool

    @property
    def ok(self) -> bool:
        return not self.violations and self.all_proper


def verify_star(fam: Section8Family, k_max: int) -> StarReport:
    """Check that every h-word of length at most k_max lands alpha inside one
    of the step-k containers, every tested span staying proper.

    A word's state depends only on its sign pattern, so the sweep checks the
    2^k sign patterns of each length k, not the (2N)(2N-1)^(k-1) words;
    ``tested`` adds up how many freely reduced words each pattern has, a
    pattern that no word has is never checked, and words are spelled only
    when a pattern fails: then the words of its length are walked in the
    order of ``_h_words_upto``."""
    _require_int("k_max", k_max)
    if k_max > fam.n / 2:
        raise ContractError(f"k_max={k_max} exceeds n/2={fam.n / 2}; containers stop being proper")
    if k_max < 0:
        raise InputError("k_max must be >= 0")
    n, N = fam.n, fam.N
    memo = _Transitions(fam)
    # (sign pattern, its state, the number of freely reduced words with it)
    level = [((), alpha_state(fam), 1)]
    tested = 0
    violations: list[tuple[str, str]] = []
    all_proper = True
    for length in range(k_max + 1):
        if length:
            # The first generator acts last, on the state of the pattern one
            # shorter.  Next to a generator of its own sign it is any of the
            # N; next to one of the other sign, any but that one's inverse.
            level = [((sign,) + signs, memo[state, sign], count * factor)
                     for signs, state, count in level for sign in (1, -1)
                     if (factor := N if not signs or signs[0] == sign else N - 1)]
        k = max(2, length)
        xbar, ybar = _containers(k, fam)
        failing: dict[tuple[int, ...], list[str]] = {}
        for signs, state, count in level:
            tested += count
            failed = []
            if state.contained_in & ~xbar and state.contained_in & ~ybar:
                failed.append(f"span escapes both step-{k} containers")
            if not state.is_proper(n):
                all_proper = False
                failed.append("span is the whole surface")
            if failed:
                failing[signs] = failed
        if failing:
            violations += [(h_word_text(h), kind) for h in _h_words_upto(N, length)
                           if len(h) == length for kind in failing.get(tuple(s for _, s in h), ())]
    return StarReport(tested=tested, violations=tuple(violations), all_proper=all_proper)


def displacement_upper(h: HWord | str, fam: Section8Family) -> tuple[int, Fraction]:
    """Certified curve-complex displacement upper bound for an h-word.

    Splits h into m blocks (m is the largest integer below |h|*2/n + 1),
    verifies each block keeps the tracked curve in a proper span (so each
    block moves it at most 2), and returns (m, 2m); 2m never exceeds
    |h| * 4/(g-1) + 2 with g = n + 1.

    The blocks have generator length at most n/2 only for even n.  For odd
    n a block can be one generator longer than n//2, and a span it leaves
    improper raises ``ContractError``; an improper span from a block of at
    most n//2 generators would break the star sweep and raises
    ``InternalError``.
    """
    h = _h_word(h, fam)
    _require_reduced(h)
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
        alpha = alpha_state(fam)
        memo = _Transitions(fam)
        for block in blocks:
            state = _fold_h(alpha, block, memo)
            if not state.is_proper(n):
                if len(block) > n // 2:
                    raise ContractError(
                        f"block {h_word_text(block)!r} of {len(block)} generators is longer "
                        f"than n//2 = {n // 2} for n = {n} and leaves the span improper")
                raise InternalError(f"block {h_word_text(block)!r} produced an improper span")
    bound = Fraction(2 * m)
    formula_cap = Fraction(4 * length, n) + 2
    if bound > formula_cap:
        raise InternalError("block bound exceeded the displacement formula")
    return m, bound


def translation_length_bound(fam: Section8Family, i: int = 1) -> Fraction:
    """Stable translation length bound 4/(g-1) for one generator, certified by
    span properness of its powers up to n/2."""
    state = alpha_state(fam)
    for p in range(1, fam.n // 2 + 1):
        state = span_apply_h(state, ((i, 1),), fam)
        if not state.is_proper(fam.n):
            raise InternalError(f"span of w{i}^{p} alpha is improper")
    return Fraction(4, fam.n)


@dataclass(frozen=True)
class OrderWindowReport:
    tested: int
    violations: tuple[tuple[str, int, int], ...]  # (h text, syllable i, syllable j)

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_order_window(fam: Section8Family, hs: Iterable[HWord | str]) -> OrderWindowReport:
    """Check that in B/M/E normal forms, syllables separated by at least L
    syllables are always order-comparable.  A form of at most L + 1
    syllables has no such pair, so its syllable order is never built."""
    L = constants(fam).L
    tested = 0
    violations: list[tuple[str, int, int]] = []
    for h in hs:
        h = _h_word(h, fam)
        pairs = _bme_pairs(h, fam)
        tested += 1
        if len(pairs) <= L + 1:
            continue  # no two syllables are more than L apart
        below = _predecessor_masks([z for z, _ in pairs], fam.graph)
        # Syllable i precedes j exactly when bit i of below[j] is set; the
        # window holds when below[j] covers every position up to j - L - 1.
        missing = sorted((i, j) for j in range(L + 1, len(below))
                         if (lack := ~below[j] & ((1 << (j - L)) - 1))
                         for i in range(lack.bit_length()) if lack >> i & 1)
        violations += [(h_word_text(h), i, j) for i, j in missing]
    return OrderWindowReport(tested=tested, violations=tuple(violations))


def window_constant_check(fam: Section8Family, hs: Iterable[HWord | str],
                          window: int | None = None) -> bool:
    """Every B/M/E normal form among ``hs`` passes the letter-window filling
    check at the given window (default: the b constant), with the guards of
    ``check_window_property`` applied per form, in its order."""
    if window is None:
        window = constants(fam).b
    for h in hs:
        pairs = _bme_pairs(_h_word(h, fam), fam)
        _require_window(window)
        # A form shorter than the window holds before its normality is checked.
        if not _is_normal_indexed(pairs, fam.graph) and sum(abs(e) for _, e in pairs) >= window:
            raise ContractError("window_constant_check requires a normal word, "
                                f"got {_spell(pairs, fam.graph).to_text()!r}")
        if not _window_holds(pairs, window, fam.model):
            return False
    return True
