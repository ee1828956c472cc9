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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

from .bounds import BoundReport, bound_report
from .graphs import Graph, emit_graph6, is_bipartite, parse_graph6
from .solvers import IndexResult, SearchConfig, difference_index, sum_index

SCHEMA_VERSION = 1

ALL_CHECKS = ("conj42", "conj44", "dflesm")


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
            "conj42_holds": self.conj42_holds,
            "conj44_holds": self.conj44_holds,
            "df_le_sm": self.df_le_sm,
            "inconclusive": self.inconclusive,
        }


@dataclass(frozen=True)
class ScanReport:
    records: tuple[ScanRecord, ...]
    counterexamples_42: tuple[str, ...]
    counterexamples_44: tuple[str, ...]
    counterexamples_df_le_sm: tuple[str, ...]
    checks: tuple[str, ...]
    config: dict

    @property
    def counterexample_count(self) -> int:
        return (
            len(self.counterexamples_42)
            + len(self.counterexamples_44)
            + len(self.counterexamples_df_le_sm)
        )

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "config": self.config,
            "totals": {
                "graphs": len(self.records),
                "inconclusive": sum(r.inconclusive for r in self.records),
                "counterexamples_42": len(self.counterexamples_42),
                "counterexamples_44": len(self.counterexamples_44),
                "counterexamples_df_le_sm": len(self.counterexamples_df_le_sm),
            },
            "records": [r.to_json_dict() for r in self.records],
            "counterexamples_42": list(self.counterexamples_42),
            "counterexamples_44": list(self.counterexamples_44),
            "counterexamples_df_le_sm": list(self.counterexamples_df_le_sm),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def _result_summary(res: IndexResult) -> dict:
    # deliberately timing-free so scan reports stay byte-identical across runs
    return {
        "value": res.value,
        "witness": {str(v): x for v, x in res.witness.items},
        "range_used": res.range_used,
        "exhaustive": res.exhaustive_within_range,
        "nodes_expanded": res.nodes_expanded,
    }


def scan_record(g: Graph, cfg: SearchConfig | None = None) -> ScanRecord:
    cfg = cfg or SearchConfig()
    sm = sum_index(g, cfg)
    df = difference_index(g, cfg)
    complete = (
        sm.exhaustive_within_range and df.exhaustive_within_range and g.m > 0
    )
    conj42 = conj44 = dflesm = None
    if complete:
        half = (sm.value + 1) // 2
        conj42 = df.value == half
        conj44 = half <= df.value <= sm.value
        dflesm = df.value <= sm.value
    return ScanRecord(
        graph6=emit_graph6(g),
        n=g.n,
        m=g.m,
        bipartite=is_bipartite(g).bipartite,
        sm=_result_summary(sm),
        df=_result_summary(df),
        bounds=bound_report(g),
        conj42_holds=conj42,
        conj44_holds=conj44,
        df_le_sm=dflesm,
        inconclusive=not (sm.exhaustive_within_range and df.exhaustive_within_range),
    )


def _record_from_graph6(args: tuple[str, SearchConfig]) -> ScanRecord:
    line, cfg = args
    return scan_record(parse_graph6(line), cfg)


def scan_conjectures(
    graphs: Iterable[Graph],
    cfg: SearchConfig | None = None,
    checks: Sequence[str] = ALL_CHECKS,
    workers: int = 1,
) -> ScanReport:
    """Scan a graph stream; see the module docstring for record semantics."""
    cfg = cfg or SearchConfig()
    for c in checks:
        if c not in ALL_CHECKS:
            raise ValueError(f"unknown check {c!r}; valid: {', '.join(ALL_CHECKS)}")
    lines = [emit_graph6(g) for g in graphs]
    if workers > 1 and len(lines) > 1:
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
    cex42 = tuple(
        r.graph6 for r in records if "conj42" in checks and r.conj42_holds is False
    )
    cex44 = tuple(
        r.graph6 for r in records if "conj44" in checks and r.conj44_holds is False
    )
    cexdf = tuple(
        r.graph6 for r in records if "dflesm" in checks and r.df_le_sm is False
    )
    # config echo excludes the worker count: reports must not depend on it
    config = {
        "label_bound": cfg.label_bound,
        "escalate": cfg.escalate,
        "node_budget": cfg.node_budget,
        "checks": list(checks),
    }
    return ScanReport(tuple(records), cex42, cex44, cexdf, tuple(checks), config)
