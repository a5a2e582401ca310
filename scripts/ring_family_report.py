#!/usr/bin/env python3
"""Tabulate the ring family's certified data: window constants, the span
containment sweep, and the displacement bound table for short products."""

from __future__ import annotations

import argparse
import csv
import sys

from raagcc.errors import ContractError, InputError
from raagcc.family import (
    _h_words_upto,
    alpha_state,
    constants,
    displacement_upper,
    family,
    h_word_text,
    span_apply_h,
    verify_star,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=6, help="ring size (genus is n+1)")
    parser.add_argument("--N", type=int, default=2, dest="big_n",
                        help="number of subgroup generators")
    parser.add_argument("--kmax", type=int, default=None,
                        help="sweep depth (default: n // 2)")
    args = parser.parse_args()

    try:
        fam = family(args.n, args.big_n)
        kmax = args.kmax if args.kmax is not None else fam.n // 2
        report = verify_star(fam, kmax)
    except (InputError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    c = constants(fam)
    print(f"# ring family n={fam.n} (genus {fam.n + 1}), N={fam.N}", file=sys.stderr)
    print(f"# constants: b={c.b} d={c.d} L={c.L} ell'={c.ell_prime} ell={c.ell}",
          file=sys.stderr)
    print(f"# span sweep k<={kmax}: tested={report.tested} "
          f"violations={len(report.violations)} all_proper={report.all_proper}",
          file=sys.stderr)

    writer = csv.writer(sys.stdout)
    writer.writerow(["h", "h_length", "m", "bound", "span_proper"])
    for h in _h_words_upto(fam.N, kmax):
        if not h:
            continue
        m, bound = displacement_upper(h, fam)
        state = span_apply_h(alpha_state(fam), h, fam)
        writer.writerow([h_word_text(h), len(h), m, str(bound), state.is_proper(fam.n)])
    return 0


if __name__ == "__main__":
    sys.exit(main())
