#!/usr/bin/env python3
"""Certify every problem of the benchmark's catalog (``perfbench/zoo_catalog.json``)
at the catalog's budgets and print each report as one JSON line with sorted
keys: the graph's name, the stored verdict, and ``certify``'s
``to_json_dict()``.  The ``certify`` time of each class of problems (graph
and stored verdict, in catalog order) and the total time go to stderr.

Comparing two versions of the package is then one ``diff`` of this output:

    PYTHONPATH=src python3 scripts/catalog_reports.py > after.jsonl

``--limit N`` stops after the first N problems.  The script reads
``perfbench/`` and writes nothing there.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from raagcc import DefiningGraph, SurfaceModel, certify, parse_word

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.dont_write_bytecode = True  # importing zoo.py must leave perfbench/ untouched
sys.path.insert(0, str(PERFBENCH))

from zoo import GRAPHS  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--limit", type=int, default=None)
    args = parser.parse_args()

    catalog = json.loads((PERFBENCH / "zoo_catalog.json").read_text())
    budgets = {"cell_budget": catalog["cell_budget"], "enum_budget": catalog["enum_budget"]}
    problems = []
    for name, strata in catalog["graphs"].items():
        vertices, edges = GRAPHS[name]
        graph = DefiningGraph.build(vertices, edges)
        model = SurfaceModel.build(graph, [list(vertices)], admissible=True)
        for stored, gen_sets in strata.items():
            problems += [(name, stored, graph, model, texts) for texts in gen_sets]

    spent: dict[tuple[str, str], list[float]] = {}
    for name, stored, graph, model, texts in problems[:args.limit]:
        gens = [parse_word(t, graph) for t in texts]
        start = time.perf_counter()
        cert = certify(graph, model, gens, **budgets)
        spent.setdefault((name, stored), []).append(time.perf_counter() - start)
        print(json.dumps({"graph": name, "stored": stored, "report": cert.to_json_dict()},
                         sort_keys=True))
    for (name, stored), times in spent.items():
        print(f"{name} {stored}: {len(times)} problems in {sum(times):.3f} s", file=sys.stderr)
    total = sum(map(sum, spent.values()))
    print(f"{len(problems[:args.limit])} problems through certify in {total:.2f} s",
          file=sys.stderr)


if __name__ == "__main__":
    main()
