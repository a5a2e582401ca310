"""Span tracing of calls into ``raagcc``, installed from outside the package.

Each traced name is rebound in every ``raagcc`` module that holds it, so a
call made through any import of the name (``certify`` imports
``build_core`` and ``normalize``, ``surfaces`` imports ``normalize``, ...)
records a span.  A span is (name, start, end, parent, op id, input size,
whether it is a call); spans stay in memory until the run ends.  Generators
(``iter_elements_by_length``, ``iter_loops_by_length``) record one span for
the call and one for every ``next()``, so only time spent inside the
generator is counted.  ``DefiningGraph.commutes`` is deliberately not
wrapped: the wrapper would cost more than the call.
"""

from __future__ import annotations

import gzip
import math
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name, kind); kind "gen" marks generator functions.
TARGETS = [
    ("raagcc.words", "normalize", "words.normalize", "call"),
    ("raagcc.words", "cyclically_reduce", "words.cyclically_reduce", "call"),
    ("raagcc.words", "syllable_order", "words.syllable_order", "call"),
    ("raagcc.words", "subword_decompose", "words.subword_decompose", "call"),
    ("raagcc.complexes", "build_core", "complexes.build_core", "call"),
    ("raagcc.complexes", "membership", "complexes.membership", "call"),
    ("raagcc.complexes", "iter_elements_by_length", "complexes.enum", "gen"),
    ("raagcc.complexes", "iter_loops_by_length", "complexes.loops", "gen"),
    ("raagcc.certify", "certify", "certify", "call"),
    ("raagcc.surfaces", "fills", "surfaces.fills", "call"),
    ("raagcc.surfaces", "find_filling_blocks", "surfaces.find_filling_blocks", "call"),
    ("raagcc.surfaces", "check_window_property", "surfaces.check_window_property", "call"),
    ("raagcc.family", "verify_star", "family.verify_star", "call"),
    ("raagcc.family", "verify_order_window", "family.verify_order_window", "call"),
    ("raagcc.family", "window_constant_check", "family.window_constant_check", "call"),
    ("raagcc.family", "displacement_upper", "family.displacement_upper", "call"),
]
# Names whose input size is recorded, for the scaling fits.
SIZED = {"words.normalize", "words.cyclically_reduce", "words.syllable_order"}
EXPONENTS = ("words.normalize", "words.cyclically_reduce", "words.syllable_order")

# Span fields.
NAME, START, END, PARENT, OP, SIZE, IS_CALL = range(7)


def _letter_count(w) -> int:
    letters = w.letters
    if isinstance(letters, tuple):  # Word
        return len(letters)
    return sum(abs(s.exponent) for s in w.syllables)  # NormalWord, uncached


def _raagcc_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "raagcc" or name.startswith("raagcc."))]


def _rebind(original, replacement, restore: list) -> None:
    """Point every module-level binding of ``original`` at ``replacement``."""
    for module in _raagcc_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                restore.append((module, attr, original))


class Tracer:
    """Records spans around the calls into each layer, plus result counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counters: dict[str, float] = defaultdict(float)
        self.enum_calls: list[list] = []  # [elements, args, kwargs]
        self._restore: list = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str, size: int = 0, is_call: bool = True) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.op, size, is_call])
        self.stack.append(idx)
        self.spans[idx][START] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self.stack.pop()

    def _inside(self, name: str) -> bool:
        return bool(self.stack) and self.spans[self.stack[-1]][NAME] == name

    # -- wrappers ------------------------------------------------------------

    def _wrap_call(self, name: str, fn):
        sized = name in SIZED
        post = _POST.get(name)

        def traced(*args, **kwargs):
            idx = self._open(name, _letter_count(args[0]) if sized else 0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if post is not None:
                post(self.counters, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_gen(self, name: str, fn):
        # A loops generator created by the enumeration generator is the
        # enumeration's own implementation: its time belongs to that span.
        def traced(*args, **kwargs):
            if self._inside("complexes.enum"):
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                inner = fn(*args, **kwargs)
            finally:
                self._close(idx)
            record = [0, args, kwargs]
            if name == "complexes.enum":
                self.enum_calls.append(record)
            return self._timed_iter(name, inner, record)

        traced.__wrapped__ = fn
        return traced

    def _timed_iter(self, name: str, inner, record: list):
        counter = name + ".items"
        while True:
            idx = self._open(name, is_call=False)
            try:
                item = next(inner)
            except StopIteration:
                self._close(idx)
                return
            except BaseException:
                self._close(idx)
                raise
            self._close(idx)
            self.counters[counter] += len(item[1])
            record[0] += len(item[1])
            yield item

    def install(self) -> None:
        for module_name, attr, name, kind in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrap = self._wrap_gen if kind == "gen" else self._wrap_call
            _rebind(original, wrap(name, original), self._restore)
        model_cls = sys.modules["raagcc.surfaces"].SurfaceModel
        original = model_cls.fills_subset
        model_cls.fills_subset = self._wrap_call("surfaces.fills_subset", original)
        self._restore.append((model_cls, "fills_subset", original))

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._restore):
            setattr(obj, attr, original)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("name\tstart\tend\tparent\top\tsize\tcall\n")
            for s in self.spans:
                fh.write(f"{s[NAME]}\t{s[START]:.9f}\t{s[END]:.9f}\t{s[PARENT]}\t"
                         f"{s[OP]}\t{s[SIZE]}\t{int(s[IS_CALL])}\n")

    def layer_metrics(self, passes: int) -> tuple[dict[str, tuple[float, str]], list[str]]:
        """Per-layer metrics, as totals per pass over the workload's ops, and
        human-readable notes (fit points, the certify time breakdown)."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        stages = 0
        for s in self.spans:
            dur = s[END] - s[START]
            total[s[NAME]] += dur
            if s[IS_CALL]:
                calls[s[NAME]] += 1
            if s[PARENT] >= 0:
                child[s[PARENT]] += dur
                if s[NAME] == "complexes.build_core" and self.spans[s[PARENT]][NAME] == "certify":
                    stages += 1
        self_time: dict[str, float] = defaultdict(float)
        for idx, s in enumerate(self.spans):
            self_time[s[NAME]] += s[END] - s[START] - child[idx]

        per = 1.0 / max(passes, 1)
        c = self.counters
        m: dict[str, tuple[float, str]] = {}

        def put(name, value, unit):
            m[name] = (value, unit)

        def calls_s(prefix, span=None):
            span = span or prefix
            put(f"{prefix}.calls", calls[span] * per, "count")
            put(f"{prefix}.s", total[span] * per, "s")

        calls_s("words.normalize")
        put("words.normalize.self_s", self_time["words.normalize"] * per, "s")
        calls_s("words.cyclically_reduce")
        calls_s("words.syllable_order")
        calls_s("words.subword_decompose")
        notes = []
        for name in EXPONENTS:
            slope, points = self._fit(name)
            put(f"{name}.exp", slope, "1")
            if points:
                notes.append(f"{name}.exp = {slope:.3f} over (letters, median s): "
                             + ", ".join(f"({n}, {t:.6f})" for n, t in points))
        calls_s("complexes.build_core")
        put("complexes.build_core.folds", c["folds"] * per, "count")
        put("complexes.build_core.squares_added", c["squares_added"] * per, "count")
        put("complexes.build_core.cells", c["cells"] * per, "count")
        elements = c["complexes.enum.items"]
        put("complexes.enum.s", total["complexes.enum"] * per, "s")
        put("complexes.enum.elements", elements * per, "count")
        put("complexes.enum.elements_per_s",
            elements / total["complexes.enum"] if total["complexes.enum"] else 0.0, "1/s")
        put("complexes.loops.s", total["complexes.loops"] * per, "s")
        put("complexes.loops.loops", c["complexes.loops.items"] * per, "count")
        calls_s("certify")
        put("certify.self_s", self_time["certify"] * per, "s")
        put("certify.stages", stages / calls["certify"] if calls["certify"] else 0.0, "count")
        calls_s("surfaces.fills_subset")
        put("certify.memo_hit_ratio",
            1.0 - calls["surfaces.fills_subset"] / elements if elements else 0.0, "ratio")
        calls_s("complexes.membership")
        calls_s("surfaces.fills")
        put("family.verify_star.s", total["family.verify_star"] * per, "s")
        put("family.verify_star.tested", c["verify_star.tested"] * per, "count")
        put("family.verify_order_window.s", total["family.verify_order_window"] * per, "s")
        put("family.verify_order_window.tested", c["verify_order_window.tested"] * per, "count")
        put("family.window_constant_check.s", total["family.window_constant_check"] * per, "s")
        calls_s("family.displacement_upper")
        put("surfaces.find_filling_blocks.s", total["surfaces.find_filling_blocks"] * per, "s")
        put("surfaces.check_window_property.s", total["surfaces.check_window_property"] * per, "s")

        if calls["certify"]:
            parts = {name: total[name] * per for name in (
                "complexes.build_core", "complexes.enum", "complexes.loops",
                "surfaces.fills_subset")}
            under = defaultdict(float)  # other children of certify spans
            for s in self.spans:
                if s[PARENT] >= 0 and self.spans[s[PARENT]][NAME] == "certify" \
                        and s[NAME] not in parts:
                    under[s[NAME]] += (s[END] - s[START]) * per
            summed = m["certify.self_s"][0] + sum(parts.values())
            notes.append(
                f"certify.s = {m['certify.s'][0]:.4f}; certify.self_s + build_core + enum"
                f" + loops + fills_subset = {summed:.4f}; remainder "
                + (", ".join(f"{k} {v:.4f}" for k, v in sorted(under.items())) or "none"))
        return m, notes

    def _fit(self, name: str) -> tuple[float, list[tuple[int, float]]]:
        """Least-squares slope of log(time) on log(letters) over the direct
        calls from the workload, with the median time per nearest power of
        two as the points to print.  The slope is fitted on the calls, not on
        the points, because a normal form is shorter than the word it came
        from and can fall into the rung below."""
        calls = [(s[SIZE], s[END] - s[START]) for s in self.spans
                 if s[NAME] == name and s[PARENT] < 0 and s[SIZE] > 0]
        buckets: dict[int, list[float]] = defaultdict(list)
        for size, seconds in calls:
            buckets[2 ** round(math.log2(size))].append(seconds)
        points = sorted((n, statistics.median(ts)) for n, ts in buckets.items())
        if len(points) < 2:
            return 0.0, points
        xs = [math.log(size) for size, _ in calls]
        ys = [math.log(seconds) for _, seconds in calls]
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
                 / sum((x - mx) ** 2 for x in xs))
        return slope, points


def _add_diagnostics(counters, core) -> None:
    for key in ("folds", "squares_added", "cells"):
        counters[key] += core.diagnostics[key]


def _add_tested(key):
    def post(counters, report):
        counters[key] += report.tested
    return post


_POST = {
    "complexes.build_core": _add_diagnostics,
    "family.verify_star": _add_tested("verify_star.tested"),
    "family.verify_order_window": _add_tested("verify_order_window.tested"),
}


def enum_peak_mb(tracer: Tracer) -> float:
    """Peak traced memory of the largest enumeration the traced passes made.

    The call is replayed on its own under ``tracemalloc`` after the timed
    passes, because ``tracemalloc`` slows every allocation several-fold and
    would also count the caller's work between elements.
    """
    if not tracer.enum_calls:
        return 0.0
    _, args, kwargs = max(tracer.enum_calls, key=lambda call: call[0])
    enumerate_ = sys.modules["raagcc.complexes"].iter_elements_by_length
    budget_error = sys.modules["raagcc.errors"].BudgetExceededError
    tracemalloc.start()
    try:
        for _ in enumerate_(*args, **kwargs):
            pass
    except budget_error:
        pass
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak / 2**20
