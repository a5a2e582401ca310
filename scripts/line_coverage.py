#!/usr/bin/env python3
"""Print every function-body line of ``src/raagcc`` that a pytest run never
executes, as ``path:line``, then a total.

    python3 scripts/line_coverage.py [pytest arguments]

The arguments go to pytest unchanged (default: the whole ``tests``
directory), and pytest runs in this process under a ``sys.settrace``
tracer.  The executable lines are those of each function's code objects
(``co_lines``), comprehensions and lambdas included; module and class
bodies are left out, since importing runs them.  A function's ``def`` line
counts as run when the function is called.  Nothing is written: no pytest
cache, no benchmark folder and no bytecode files, and hypothesis keeps its
files in a temporary directory that is removed afterwards.

Blind spots: code run in a subprocess (the CLI's ``__main__`` test, the
script and benchmark smoke tests) is not traced, and neither is anything
deselected or skipped.  The internal-error guards in ``UNREACHABLE`` are
printed with ``listed:`` and their reason, and left out of the total.

The whole tier-1 suite takes about 9 minutes under the tracer on a 2-CPU
x86-64 host with CPython 3.11.7, against under 2 minutes untraced.  There
acceptance tests 02 and 03 overrun their wall-clock budgets (46 s of 30 s
and 161 s of 60 s) and fail, so the script exits 1; the lines they ran
still count.  ``test_decompose_contract_on_a_5000_syllable_window``
(``tests/test_words.py``) can overrun its 5 s bound under the tracer too,
depending on the host's speed, so the exit status of a run that takes it
in depends on the host.  The script exits with pytest's exit code.
"""

from __future__ import annotations

import inspect
import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "raagcc"

# Internal-error guards that no input reaches, per module, by their exact
# source text (stripped), each with the reason it cannot run.  An unrun
# line with one of these texts is printed as listed, not counted as unrun.
UNREACHABLE = {
    "complexes.py": {
        'raise InternalError("complex is disconnected")':
            "freeze: every stage grows from the basepoint by folds and attached squares",
    },
    "family.py": {
        'raise InternalError(f"family generator {w.to_text()!r} is not normal")':
            "family: the B M E spelling of each w_i is normal for every n >= 2",
        'raise InternalError("zero B/E subscript from a reduced h-word")':
            "h_word_symbols: free reduction keeps every merged subscript nonzero",
        'raise InternalError(f"block {h_word_text(block)!r} produced an improper span")':
            "displacement_upper: verify_star keeps blocks of at most n//2 generators proper",
        'raise InternalError("block bound exceeded the displacement formula")':
            "displacement_upper: m < 2|h|/n + 1 makes 2m at most 4|h|/n + 2",
        'raise InternalError(f"span of w{i}^{p} alpha is improper")':
            "translation_length_bound: verify_star keeps powers up to n/2 proper",
    },
}


def function_lines(path: Path, source: str) -> set[int]:
    """The lines that the functions of one module's ``source`` execute."""
    lines: set[int] = set()
    stack = [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        if code.co_flags & inspect.CO_OPTIMIZED:  # a function, not a module or class body
            lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack += [c for c in code.co_consts if inspect.iscode(c)]
    return lines


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code on ``args``, and the lines run per module file of
    the package (by real path)."""
    import pytest

    package = str(PACKAGE.resolve()) + os.sep
    ours: dict[object, str | None] = {}  # a package function's code -> its module's real path
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[ours[frame.f_code]].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        if code not in ours:
            path = os.path.realpath(code.co_filename)
            function = code.co_flags & inspect.CO_OPTIMIZED  # not an import's module body
            ours[code] = path if function and path.startswith(package) else None
        path = ours[code]
        if path is None:
            return None
        hits.setdefault(path, set()).add(frame.f_lineno)
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-p", "no:cacheprovider", "-p", "no:benchmark", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def main(argv: list[str]) -> int:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    modules = []  # read before the run, so that an edit made during it shifts no line
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        modules.append((path, text.splitlines(), function_lines(path, text)))
    with tempfile.TemporaryDirectory() as scratch:  # for hypothesis's own files
        os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = scratch
        code, hits = run_traced(argv or [str(ROOT / "tests")])
    unrun = total = 0
    for path, source, lines in modules:
        missed = sorted(lines - hits.get(str(path.resolve()), set()))
        listed = UNREACHABLE.get(path.name, {})
        total += len(lines)
        for line in missed:
            reason = listed.get(source[line - 1].strip())
            unrun += reason is None
            suffix = "" if reason is None else f" listed: {reason}"
            print(f"{path.relative_to(ROOT)}:{line}{suffix}")
    print(f"unrun: {unrun} of {total} function-body lines")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
