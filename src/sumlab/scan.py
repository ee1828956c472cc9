"""Conjecture scanning over graph corpora.

For each input graph the scan computes the exact sum and difference indices,
the closed-form bounds, and three predicates: df = ceil(sm/2),
ceil(sm/2) <= df <= sm, and df <= sm.  Records whose solves exhausted their
node budget are flagged inconclusive and never counted as counterexamples.

Per-graph work items can be distributed over a process pool; report assembly
preserves input order and record contents are timing-free, so reports are
byte-identical for any worker count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

from .bounds import BoundReport, bound_report
from .graphs import Graph, emit_graph6, is_bipartite, parse_graph6
from .solvers import IndexResult, SearchConfig, difference_index, sum_index

SCHEMA_VERSION = 1

# check name -> (ScanRecord field, report key listing its failures,
# predicate on (sm, df)).  Record fields, report keys and CLI lines follow
# this order.
CHECKS = {
    "conj42": ("conj42_holds", "counterexamples_42",
               lambda sm, df: df == (sm + 1) // 2),
    "conj44": ("conj44_holds", "counterexamples_44",
               lambda sm, df: (sm + 1) // 2 <= df <= sm),
    "dflesm": ("df_le_sm", "counterexamples_df_le_sm",
               lambda sm, df: df <= sm),
}


@dataclass(frozen=True)
class ScanRecord:
    graph6: str
    n: int
    m: int
    bipartite: bool
    sm: dict
    df: dict
    bounds: BoundReport
    conj42_holds: bool | None
    conj44_holds: bool | None
    df_le_sm: bool | None
    inconclusive: bool

    def to_json_dict(self) -> dict:
        return {
            "graph6": self.graph6,
            "n": self.n,
            "m": self.m,
            "bipartite": self.bipartite,
            "sm": self.sm,
            "df": self.df,
            "bounds": self.bounds.to_json_dict(),
            **{field: getattr(self, field) for field, _, _ in CHECKS.values()},
            "inconclusive": self.inconclusive,
        }


@dataclass(frozen=True)
class ScanReport:
    records: tuple[ScanRecord, ...]
    counterexamples: dict[str, tuple[str, ...]]  # selected check -> failing graph6
    config: dict

    @property
    def counterexample_count(self) -> int:
        return sum(len(cexs) for cexs in self.counterexamples.values())

    def to_json_dict(self) -> dict:
        lists = {
            key: list(self.counterexamples.get(name, ()))
            for name, (_, key, _) in CHECKS.items()
        }
        return {
            "schema": SCHEMA_VERSION,
            "config": self.config,
            "totals": {
                "graphs": len(self.records),
                "inconclusive": sum(r.inconclusive for r in self.records),
                **{key: len(cexs) for key, cexs in lists.items()},
            },
            "records": [r.to_json_dict() for r in self.records],
            **lists,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def _result_summary(res: IndexResult) -> dict:
    # an inclusion list keeps wall_ms and any later field out, so scan
    # reports stay timing-free and byte-identical across runs
    full = res.to_json_dict()
    keys = ("value", "witness", "range_used", "exhaustive", "nodes_expanded")
    return {k: full[k] for k in keys}


def scan_record(g: Graph, cfg: SearchConfig | None = None) -> ScanRecord:
    cfg = cfg or SearchConfig()
    sm = sum_index(g, cfg)
    df = difference_index(g, cfg)
    conclusive = sm.exhaustive_within_range and df.exhaustive_within_range
    verdicts = {
        field: holds(sm.value, df.value) if conclusive and g.m > 0 else None
        for field, _, holds in CHECKS.values()
    }
    return ScanRecord(
        graph6=emit_graph6(g),
        n=g.n,
        m=g.m,
        bipartite=is_bipartite(g),
        sm=_result_summary(sm),
        df=_result_summary(df),
        bounds=bound_report(g),
        inconclusive=not conclusive,
        **verdicts,
    )


def _record_from_graph6(args: tuple[str, SearchConfig]) -> ScanRecord:
    line, cfg = args
    return scan_record(parse_graph6(line), cfg)


def scan_conjectures(
    graphs: Iterable[Graph],
    cfg: SearchConfig | None = None,
    checks: Sequence[str] = tuple(CHECKS),
    workers: int = 1,
) -> ScanReport:
    """Scan a graph stream; see the module docstring for record semantics."""
    cfg = cfg or SearchConfig()
    for c in checks:
        if c not in CHECKS:
            raise ValueError(f"unknown check {c!r}; valid: {', '.join(CHECKS)}")
    lines = [emit_graph6(g) for g in graphs]
    if workers > 1 and len(lines) > 1:
        # imported here, so that importing sumlab does not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(
                pool.map(
                    _record_from_graph6,
                    [(line, cfg) for line in lines],
                    chunksize=max(1, len(lines) // (4 * workers)),
                )
            )
    else:
        records = [_record_from_graph6((line, cfg)) for line in lines]
    counterexamples = {
        name: tuple(r.graph6 for r in records if getattr(r, field) is False)
        for name, (field, _, _) in CHECKS.items()
        if name in checks
    }
    # config echo excludes the worker count and lists the checks in table
    # order without repeats: reports must not depend on either
    config = {
        "label_bound": cfg.label_bound,
        "escalate": cfg.escalate,
        "node_budget": cfg.node_budget,
        "checks": [c for c in CHECKS if c in checks],
    }
    return ScanReport(tuple(records), counterexamples, config)
