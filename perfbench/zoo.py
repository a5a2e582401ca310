"""Fixed data of the certify-zoo workload: its graphs, budgets and worked
examples.  Shared by the workload and by ``make_catalog.py``."""

CATALOG_SEED = 20261017
CELL_BUDGET = 2_000
ENUM_BUDGET = 50_000

# Small defining graphs: name -> (vertices, edges).
GRAPHS = {
    "abc": ("abc", [("b", "c")]),
    "path4": ("abcd", [("a", "b"), ("b", "c"), ("c", "d")]),
    "cycle4": ("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]),
    "sparse4": ("abcd", [("a", "c")]),
}
