"""Regenerate ``reference.json``, the benchmark's table of seed values.

Usage (from the repository root, takes about two minutes):

    python3 perfbench/make_reference.py

Every entry is keyed by ``graphkit.canonical_key``, which shares no code
with sumlab, so a rewrite of ``sumlab.graphs.canonical_form`` cannot change
the keys.  Values come from the program as it stands, with the labelling the
corpus was enumerated in, except that a closed form overrides the sum number
where one is known.  An entry whose value is neither a closed form nor an
exhaustive result is stored with ``"exact": false``: it is an upper bound.
A sigma entry whose seed run raised ``SolverError`` is stored with
``"solver_error": true``; the benchmark counts that error as a failed input,
and an error on any other input as a wrong answer.
Only regenerate the table when the corpus changes; a value that moves is what
the benchmark exists to catch.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import graphkit  # noqa: E402
import workloads  # noqa: E402
from sumlab import Graph, SearchConfig, SolverError, enumerate_connected  # noqa: E402
from sumlab import difference_index, exclusive_sum_number, sum_index, sum_number  # noqa: E402

# Connected counts per vertex number (OEIS A001349).
CONNECTED = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def connected(n: int) -> list[tuple[int, list]]:
    graphs = [(g.n, list(g.edges)) for g in enumerate_connected(n)]
    assert len(graphs) == CONNECTED[n], n
    return graphs


def main() -> None:
    by_n = {n: connected(n) for n in range(1, 8)}
    ref: dict = {"scan6": {}, "exclusive5": {}, "sigma": {}}
    for n in range(1, 7):
        for n_, edges in by_n[n]:
            g = Graph(n_, edges)
            sm, df = sum_index(g), difference_index(g)
            assert sm.exhaustive_within_range and df.exhaustive_within_range
            ref["scan6"][graphkit.canonical_key(n_, edges)] = {"sm": sm.value, "df": df.value}
    cfg = SearchConfig(node_budget=workloads.EXCLUSIVE_BUDGET)
    for n in range(2, 6):
        for n_, edges in by_n[n]:
            res = exclusive_sum_number(Graph(n_, edges), cfg)
            assert res.exhaustive_within_range
            ref["exclusive5"][graphkit.canonical_key(n_, edges)] = {"value": res.value}
    cfg = SearchConfig(node_budget=workloads.SIGMA_BUDGET)
    small = {graphkit.canonical_key(n, e) for k in (2, 3, 4) for n, e in by_n[k]}
    assert small <= {graphkit.canonical_key(n, e) for _, n, e in workloads.SIGMA_GRAPHS}
    for name, n, edges in workloads.SIGMA_GRAPHS:
        closed = graphkit.closed_form("sum_number", n, edges)
        try:
            res = sum_number(Graph(n, edges), cfg)
            seed_value, exhaustive, raised = res.value, res.exhaustive_within_range, False
        except SolverError:
            seed_value, exhaustive, raised = None, False, True
        if exhaustive and closed is not None:
            assert seed_value == closed, name
        value = closed if closed is not None else seed_value
        exact = closed is not None or exhaustive
        ref["sigma"][graphkit.canonical_key(n, edges)] = {
            "name": name, "value": value, "exact": exact, "solver_error": raised,
        }
    keys = sorted(graphkit.canonical_key(n, e) for n, e in by_n[7])
    ref["census7"] = {
        "classes": len(set(keys)),
        "sha256": hashlib.sha256("\n".join(keys).encode()).hexdigest(),
    }
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
