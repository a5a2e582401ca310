"""Words, normal forms, and the syllable partial order in a RAAG.

A word is a sequence of signed letters in the standard generators.  Three
moves transform a word without changing the group element it represents:

  (1) delete a syllable with exponent zero,
  (2) merge adjacent syllables with the same generator,
  (3) swap adjacent syllables whose generators commute.

A word is *normal* when no sequence of these moves can lower its syllable
count; equivalently, no zero exponents occur and every pair of syllables
with the same generator is separated by a syllable whose generator fails to
commute with it.  All normal representatives of one element differ by move
(3) alone, have equal letter length (which is the group-theoretic length),
and carry a canonical bijection between their syllable sets.

``normalize`` returns the lexicographically least normal representative
under the defining graph's declared vertex order.  That choice is an
artifact convention; the math only pins down the class.

The kernel works on a *piling* (Crisp, Godelle & Wiest, "The conjugacy
problem in subgroups of right-angled Artin groups", J. Topology 2009): one
stack per generator, holding that generator's syllable exponents and a 0
marker for each syllable of a non-commuting generator.  Two words pile to
the same stacks exactly when they represent the same element.  Pushing a
syllable merges into the top of its own stack when that top is a syllable,
and otherwise appends it with one marker per non-commuting stack, so piling
a word of n letters costs O(n |V|) with no rescans.  A syllable is minimal
in the order below exactly when it is the bottom entry of its stack, and
maximal exactly when it is the top one.  The canonical form repeatedly
reads out the least-index bottom syllable; cyclic reduction moves bottom
syllables to the top of their own stacks in place.  Two facts let each
loop push and pop by hand, with no call per syllable: a minimal syllable
has only markers under its markers, so popping it pops the bottom entry of
each non-commuting stack; and markers are interchangeable, so a cancelling
top syllable pops the top entry of each.

The syllable partial order puts p before q when p appears to the left of q
in every normal representative.  It is the transitive closure of direct
dependence (earlier occurrence with equal or non-commuting generator),
which coincides with the representative-quantified order, and is kept as
one predecessor bitmask per syllable: O(k |V|) big-int ORs to build on a
word of k syllables, O(k^2) bits to hold, and a bit test per query.  The
closure is spelled out as position pairs only when ``pairs`` is read.

The subword decomposition between two unordered syllables runs the
constructive induction on an explicit work stack, so no word is too long
for it.

A word's labels become generator indices in one place, ``_syllables``: a
``Word`` gives its runs of equal letters, a ``NormalWord`` its syllables.
Every entry point reads its word through it, so a label the graph lacks
is an ``InputError`` naming the first such label, and a value that is no
word is a ``TypeError``.  The functions defined on normal words only
(``syllable_order``, ``subword_decompose``, and ``find_filling_blocks``,
``check_window_property`` and ``subs`` in ``surfaces.py``) take a
``NormalWord`` alone and raise a ``ContractError`` naming themselves for
any other word or a non-normal one.

Every ``NormalWord`` carries index syllables with the label tuple they
index: ``_spell``'s over its graph's labels, the constructor's and
``normal_word_from_pairs``'s over their labels in first-use order.
``_syllables`` reads them back as they are when given a graph with that
label tuple (the normality checks still run on them), and through the
word's own labels otherwise.  ``Syllable`` tuples are built, by
``tuple.__new__`` over (label, exponent, position) triples, only when
``syllables`` is first read; ``pairs``, ``to_text``, ``letters``,
``as_word`` and the lengths read the carried form.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Iterable, NamedTuple, Sequence

from .errors import BudgetExceededError, ContractError, InputError, _require_count
from .graphs import _LABEL, DefiningGraph


class Letter(NamedTuple):
    generator: str
    sign: int  # +1 or -1


class Syllable(NamedTuple):
    generator: str
    exponent: int  # nonzero
    position: int  # index within the carrying word; distinguishes duplicates


_new_syllable = partial(tuple.__new__, Syllable)  # Syllable(*triple), entering no Python frame


@dataclass(frozen=True)
class Word:
    """A free word in the standard generators; may be unreduced."""

    letters: tuple[Letter, ...] = ()

    def __len__(self) -> int:
        return len(self.letters)

    def to_text(self) -> str:
        return _pairs_to_text(_group_letters(self.letters))

    def __repr__(self) -> str:
        return f"Word({self.to_text()!r})"


class _SyllablesField:
    """``NormalWord.syllables``, a descriptor-typed dataclass field, so the
    constructor, ``dataclasses.replace``, ``==``, ``hash`` and ``repr`` see
    one plain field.  The constructor keeps the tuple it was given, and
    every word carries its index syllables under ``_carried`` (see the
    module docstring), from which the first read of any other word spells
    and stores its ``Syllable``s.  Pickling copies the instance dict."""

    def __get__(self, w: NormalWord | None, owner: type | None = None) -> tuple[Syllable, ...]:
        if w is None:
            return ()  # the field's default
        state = w.__dict__
        if "syllables" not in state:
            labels, carried = state["_carried"]
            state["syllables"] = tuple(map(
                _new_syllable, [(labels[g], e, i) for i, (g, e) in enumerate(carried)]))
        return state["syllables"]

    def __set__(self, w: NormalWord, syllables: tuple[Syllable, ...]) -> None:
        w.__dict__.update(syllables=syllables, _carried=_first_use(syllables))


def _first_use(rows: Iterable[Sequence]) -> tuple[tuple[str, ...], tuple[tuple[int, int], ...]]:
    """Labels in first-use order, and (label, exponent, ...) rows as syllables over them."""
    ids: dict[str, int] = {}
    syllables = tuple([(ids.setdefault(row[0], len(ids)), row[1]) for row in rows])
    return tuple(ids), syllables


@dataclass(frozen=True)
class NormalWord:
    """A word in normal form, stored as its syllable sequence."""

    syllables: tuple[Syllable, ...] = _SyllablesField()  # type: ignore[assignment]

    @cached_property
    def letter_length(self) -> int:
        return sum(abs(e) for _, e in self._carried[1])

    @property
    def syllable_length(self) -> int:
        return len(self._carried[1])

    def pairs(self) -> tuple[tuple[str, int], ...]:
        labels, syllables = self._carried
        return tuple([(labels[g], e) for g, e in syllables])

    def letters(self) -> tuple[Letter, ...]:
        return word_from_pairs(self.pairs()).letters

    def as_word(self) -> Word:
        return word_from_pairs(self.pairs())

    def to_text(self) -> str:
        return _pairs_to_text(self.pairs())

    def __repr__(self) -> str:
        return f"NormalWord({self.to_text()!r})"

    def __len__(self) -> int:
        return self.letter_length


_new_normal_word = partial(object.__new__, NormalWord)  # a NormalWord with no field set yet

EPSILON = NormalWord()

_TOKEN = re.compile(rf"({_LABEL})(?:\^(-?\d+))?")


def parse_word(text: str, graph: DefiningGraph) -> Word:
    """Parse whitespace-separated tokens ``label`` or ``label^k`` (k nonzero)."""
    pairs: list[tuple[str, int]] = []
    for token in text.split():
        m = _TOKEN.fullmatch(token)
        if m is None:
            raise InputError(f"malformed token {token!r}")
        label, exp_text = m.group(1), m.group(2)
        if not graph.has_vertex(label):
            raise InputError(f"unknown generator {label!r} in token {token!r}")
        exp = 1 if exp_text is None else int(exp_text)
        if exp == 0:
            raise InputError(f"zero exponent in token {token!r}")
        pairs.append((label, exp))
    return word_from_pairs(pairs)


def word_from_pairs(pairs: Iterable[tuple[str, int]]) -> Word:
    letters: list[Letter] = []
    for gen, exp in pairs:
        sign = 1 if exp > 0 else -1
        letters.extend([Letter(gen, sign)] * abs(exp))
    return Word(tuple(letters))


def normal_word_from_pairs(pairs: Iterable[tuple[str, int]]) -> NormalWord:
    """Build a NormalWord from (generator, exponent) pairs without checking."""
    w = _new_normal_word()
    w.__dict__["_carried"] = _first_use(pairs)
    return w


def concat(w1: Word, w2: Word) -> Word:
    """Free-monoid concatenation; no normalization is performed."""
    return Word(w1.letters + w2.letters)


def invert(w: Word) -> Word:
    """Letterwise inversion-reversal; no normalization is performed."""
    return Word(tuple(Letter(g, -s) for g, s in reversed(w.letters)))


def _group_letters(letters: Sequence[Letter]) -> list[tuple[str, int]]:
    pairs: list[tuple[str, int]] = []
    for gen, sign in letters:
        if pairs and pairs[-1][0] == gen and (pairs[-1][1] > 0) == (sign > 0):
            pairs[-1] = (gen, pairs[-1][1] + sign)
        else:
            pairs.append((gen, sign))
    return pairs


def _pairs_to_text(pairs: Sequence[tuple[str, int]]) -> str:
    tokens = []
    for gen, exp in pairs:
        tokens.append(gen if exp == 1 else f"{gen}^{exp}")
    return " ".join(tokens)


# ---------------------------------------------------------------------------
# Piling kernel.  Words in progress are sequences of (generator index,
# exponent) syllables, piled with one stack per generator.

Piling = list[deque]


def _syllables(w: Word | NormalWord, graph: DefiningGraph) -> list[tuple[int, int]]:
    """The (generator index, exponent) syllables of a word, zero exponents
    kept: a ``Word``'s runs, or a ``NormalWord``'s carried syllables over
    this graph's labels.  The one place a word's labels become indices."""
    index = graph._index
    try:
        if isinstance(w, NormalWord):
            labels, syllables = w._carried
            if labels == graph.vertices:
                return list(syllables)
            return [(index[labels[g]], e) for g, e in syllables]
        if isinstance(w, Word):
            return _runs(w.letters, index)
    except KeyError as exc:
        graph.require_vertex(exc.args[0])  # raises an InputError naming the first unknown label
    raise TypeError(f"expected Word or NormalWord, got {type(w).__name__}")


def _runs(letters: Sequence[Letter], index: dict[str, int]) -> list[tuple[int, int]]:
    """``_group_letters`` with each label mapped through ``index``, in one
    pass: a run is equal labels whose signs are all positive or all not."""
    runs: list[tuple[int, int]] = []
    if not letters:
        return runs
    append = runs.append
    rest = iter(letters)
    gen, exp = next(rest)
    positive = exp > 0
    for label, sign in rest:
        if label == gen and (sign > 0) == positive:
            exp += sign
        else:
            append((index[gen], exp))
            gen, exp, positive = label, sign, sign > 0
    append((index[gen], exp))
    return runs


def _indexed(w: Word | NormalWord, graph: DefiningGraph) -> list[tuple[int, int]]:
    return [s for s in _syllables(w, graph) if s[1]]


def _pile(syllables: Iterable[tuple[int, int]], graph: DefiningGraph) -> Piling:
    """Multiply the empty piling on the right by each syllable g^e in turn:
    it merges into a syllable on top of its own stack (popping the markers
    when they cancel), or goes on top with a marker on each non-commuting
    stack."""
    noncomm = graph.non_commuting
    piles: Piling = [deque() for _ in noncomm]
    for g, e in syllables:
        pile = piles[g]
        if pile and pile[-1]:
            e += pile[-1]
            if e:
                pile[-1] = e
                continue
            pile.pop()
            for h in noncomm[g]:
                piles[h].pop()
        else:
            pile.append(e)
            for h in noncomm[g]:
                piles[h].append(0)
    return piles


def _read_out(piles: Piling, graph: DefiningGraph) -> list[tuple[int, int]]:
    """Empty the piling into its canonical normal form, as index syllables:
    repeatedly pop the least-index generator whose bottom entry is a
    syllable, with its markers."""
    noncomm = graph.non_commuting
    out: list[tuple[int, int]] = []
    while True:
        for g, pile in enumerate(piles):
            if pile and pile[0]:
                break
        else:
            return out
        for h in noncomm[g]:
            piles[h].popleft()
        out.append((g, pile.popleft()))


def _spell(syllables: Iterable[tuple[int, int]], graph: DefiningGraph) -> NormalWord:
    """The NormalWord of (generator index, exponent) syllables over
    ``graph``'s labels, without checking.  It carries them with the label
    tuple, and spells its ``Syllable``s only when they are read."""
    w = _new_normal_word()
    w.__dict__["_carried"] = (graph.vertices, tuple(syllables))
    return w


def _reduce_cyclically(piles: Piling, graph: DefiningGraph) -> list[tuple[int, int]]:
    """Conjugate a piling in place down to a cyclic reduction.

    While some generator's stack starts and ends with distinct syllables
    (a minimal and a distinct maximal one), the least such bottom syllable
    is moved to the top, where it merges; each move lowers the syllable
    count.  Returns the conjugator's syllables in order.
    """
    noncomm = graph.non_commuting
    conjugator: list[tuple[int, int]] = []
    while True:
        for g, pile in enumerate(piles):
            if len(pile) > 1 and pile[0] and pile[-1]:
                break
        else:
            return conjugator
        for h in noncomm[g]:
            piles[h].popleft()
        e = pile.popleft()
        conjugator.append((g, e))
        e += pile[-1]  # merge into the top syllable, which stays on top
        if e:
            pile[-1] = e
        else:
            pile.pop()
            for h in noncomm[g]:
                piles[h].pop()


def cyclic_core_support(syllables: Iterable[tuple[int, int]], graph: DefiningGraph) -> int:
    """Support of a cyclic reduction of an indexed word, as a bitmask over
    generator indices."""
    piles = _pile(syllables, graph)
    _reduce_cyclically(piles, graph)
    return sum(1 << g for g, pile in enumerate(piles) if any(pile))


def normalize(w: Word | NormalWord, graph: DefiningGraph) -> NormalWord:
    """The canonical normal representative of the element ``w`` spells."""
    return _spell(_read_out(_pile(_indexed(w, graph), graph), graph), graph)


def is_normal(w: Word | NormalWord, graph: DefiningGraph) -> bool:
    """No zero exponents, and no same-generator pair separated only by
    commuting generators (which would let moves reach a merge)."""
    return _is_normal_indexed(_syllables(w, graph), graph)


def _is_normal_indexed(syllables: Iterable[tuple[int, int]], graph: DefiningGraph) -> bool:
    """``is_normal`` on (generator index, exponent) syllables."""
    noncomm = graph.non_commuting
    on_top = [False] * len(noncomm)  # a syllable with nothing non-commuting after it
    for g, exp in syllables:
        if exp == 0 or on_top[g]:
            return False
        on_top[g] = True
        for h in noncomm[g]:
            on_top[h] = False
    return True


def _require_normal(w: NormalWord, graph: DefiningGraph, who: str) -> list[tuple[int, int]]:
    """The syllables of a normal word, checked for the function ``who``: a
    ``ContractError`` names it when ``w`` is no ``NormalWord`` or is not
    normal."""
    if not isinstance(w, NormalWord):
        raise ContractError(f"{who} requires a NormalWord, got {type(w).__name__}")
    syllables = _syllables(w, graph)
    if not _is_normal_indexed(syllables, graph):
        raise ContractError(f"{who} requires a normal word, got {w.to_text()!r}")
    return syllables


def _lex_key(syllables: Sequence[tuple[int, int]]) -> tuple:
    key: list[tuple[int, int]] = []
    for g, exp in syllables:
        sign = 0 if exp > 0 else 1  # positive letters sort first
        key.extend([(g, sign)] * abs(exp))
    return tuple(key)


def min_class(w: Word | NormalWord, graph: DefiningGraph,
              max_size: int = 200_000) -> tuple[NormalWord, ...]:
    """All normal representatives of the element of ``w`` (its move-(3) class).

    Breadth-first over adjacent commuting swaps.  Classes can be factorially
    large, so the search carries a size budget, which must be positive.
    """
    _require_count("max_size", max_size, 1)
    start = tuple(_read_out(_pile(_indexed(w, graph), graph), graph))
    seen = {start}
    queue = deque([start])
    comm = graph.comm_masks
    while queue:
        current = queue.popleft()
        for i in range(len(current) - 1):
            (g1, e1), (g2, e2) = current[i], current[i + 1]
            if comm[g1] >> g2 & 1:
                swapped = current[:i] + ((g2, e2), (g1, e1)) + current[i + 2:]
                if swapped not in seen:
                    if len(seen) >= max_size:
                        raise BudgetExceededError(
                            f"move-(3) class exceeds budget {max_size}",
                            partial_count=len(seen))
                    seen.add(swapped)
                    queue.append(swapped)
    return tuple(_spell(p, graph) for p in sorted(seen, key=_lex_key))


def _position(s: Syllable | int) -> int:
    """A syllable's position: a ``Syllable``'s own, or an ``int`` (not a
    ``bool``) as given; any other value is a ``ContractError``."""
    if isinstance(s, Syllable):
        return s.position
    if isinstance(s, int) and not isinstance(s, bool):
        return int(s)
    raise ContractError(f"a syllable position must be a Syllable or an int, got {s!r}")


@dataclass(frozen=True)
class SyllableOrder:
    """The strict partial order on the syllables of a normal word.

    Bit i of ``predecessor_masks[j]`` is set when syllable i precedes
    syllable j in every normal representative.  ``precedes`` and
    ``comparable`` are bit tests; positions outside the word are unordered,
    and a position that is no ``Syllable`` or ``int`` is a ``ContractError``.
    ``pairs`` spells the order as the frozenset of position pairs (i, j),
    O(k^2) of them on a word of k syllables, built on first use.
    """

    word: NormalWord
    predecessor_masks: tuple[int, ...]

    def precedes(self, p: Syllable | int, q: Syllable | int) -> bool:
        i, j = (p, q) if type(p) is int and type(q) is int else (_position(p), _position(q))
        masks = self.predecessor_masks
        return i >= 0 and 0 <= j < len(masks) and bool(masks[j] >> i & 1)

    def comparable(self, p: Syllable | int, q: Syllable | int) -> bool:
        i, j = (p, q) if type(p) is int and type(q) is int else (_position(p), _position(q))
        if i > j:
            i, j = j, i
        masks = self.predecessor_masks
        return i >= 0 and j < len(masks) and bool(masks[j] >> i & 1)

    @cached_property
    def pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset((i, j) for j, below in enumerate(self.predecessor_masks)
                         for i, bit in enumerate(bin(below)[:1:-1]) if bit == "1")

    def generator_pairs(self) -> frozenset[tuple[str, str]]:
        syls = self.word.pairs()
        return frozenset((syls[i][0], syls[j][0]) for i, j in self.pairs)


def _predecessor_masks(gens: Iterable[int], graph: DefiningGraph) -> list[int]:
    """Bit i of entry j is set when syllable i precedes syllable j, for the
    syllables of a normal word given by their generator indices.

    The transitive closure of direct occurrence dependence, one bitmask per
    syllable: the union, over its own and each non-commuting generator, of
    the closure of that generator's latest earlier occurrence (earlier
    occurrences already lie below the latest).  Costs O(k |V|) big-int ORs
    on a word of k syllables, and the masks hold O(k^2) bits.
    """
    noncomm = graph.non_commuting
    latest = [0] * len(noncomm)  # closure (predecessors plus itself) of the latest occurrence
    masks: list[int] = []
    for j, g in enumerate(gens):
        below = latest[g]
        for h in noncomm[g]:
            below |= latest[h]
        latest[g] = below | (1 << j)
        masks.append(below)
    return masks


def syllable_order(w: NormalWord, graph: DefiningGraph) -> SyllableOrder:
    """The syllable partial order of a normal word, held as its
    ``predecessor_masks``: O(k |V|) big-int ORs and O(k^2) bits on a word
    of k syllables, with no position pairs spelled out."""
    syllables = _require_normal(w, graph, "syllable_order")
    masks = _predecessor_masks([g for g, _ in syllables], graph)
    return SyllableOrder(word=w, predecessor_masks=tuple(masks))


def cyclically_reduce(w: Word | NormalWord, graph: DefiningGraph) -> tuple[NormalWord, NormalWord]:
    """Split ``w`` as conjugator * core * conjugator^-1 with the core of
    minimal syllable count among conjugates.

    A normal word fails to be cyclically reduced exactly when some generator
    owns both a minimal and a distinct maximal syllable: rotating the minimal
    one to the other end merges the pair and drops the syllable count.  The
    least such generator is rotated first.
    """
    piles = _pile(_indexed(w, graph), graph)
    conjugator = _pile(_reduce_cyclically(piles, graph), graph)
    return _spell(_read_out(conjugator, graph), graph), _spell(_read_out(piles, graph), graph)


_STEP, _SPLIT_LEFT, _JOIN = range(3)  # frames of _decompose's work stack


def _decompose(p_gen: int, mid: list[tuple[int, int]],
               comm: Sequence[int]) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Constructive induction splitting the word between two unordered
    syllables into a part commuting with the left one followed by a part
    commuting with the right one.

    A step D(p, m) finds the first syllable s of m whose generator fails to
    commute with (or equals) p; with none it gives (m, []).  Otherwise it
    splits what follows s as (l2, r2) = D(s, rest), then l2 as
    (l3, r3) = D(p, l2), and gives (m before s + l3, r3 + s + r2).  The
    right syllable never enters.  The steps run on an explicit work stack in
    the order of that recursion, so the spelling is the recursion's and no
    window is too long for the interpreter's recursion limit.
    """
    done: list[tuple[list[tuple[int, int]], list[tuple[int, int]]]] = []  # finished steps
    work: list[tuple] = [(_STEP, p_gen, mid, 0)]
    while work:
        frame = work.pop()
        if frame[0] == _STEP:  # D(p, seq[lo:])
            _, p, seq, lo = frame
            bit = 1 << p
            for t in range(lo, len(seq)):
                if not comm[seq[t][0]] & bit:
                    break
            else:
                done.append((seq[lo:], []))
                continue
            s = seq[t]
            work.append((_SPLIT_LEFT, p, seq[lo:t], s))
            work.append((_STEP, s[0], seq, t + 1))
        elif frame[0] == _SPLIT_LEFT:  # D(s, rest) is done: run D(p, l2)
            _, p, prefix, s = frame
            l2, r2 = done.pop()
            work.append((_JOIN, prefix, s, r2))
            work.append((_STEP, p, l2, 0))
        else:  # D(p, l2) is done
            _, prefix, s, r2 = frame
            l3, r3 = done.pop()
            done.append((prefix + l3, r3 + [s] + r2))
    return done.pop()


def subword_decompose(w: NormalWord, p: Syllable | int, q: Syllable | int,
                      graph: DefiningGraph) -> tuple[NormalWord, NormalWord]:
    """Split the subword strictly between two unordered syllables p, q of a
    normal word, given in either order, as L*R with L commuting with the
    generator of the earlier one and R with that of the later one."""
    syllables = _require_normal(w, graph, "subword_decompose")
    i = _position(p)
    j = _position(q)
    if i == j:
        raise ContractError("p and q must be distinct syllables")
    if not (0 <= i < len(syllables) and 0 <= j < len(syllables)):
        raise ContractError("p and q must be syllables of w")
    if i > j:
        i, j = j, i
    window = syllables[i:j + 1]
    if _predecessor_masks([g for g, _ in window], graph)[-1] & 1:
        raise ContractError("p and q must be unordered syllables")
    left, right = _decompose(window[0][0], window[1:-1], graph.comm_masks)
    return _spell(left, graph), _spell(right, graph)
