"""The benchmark's four workloads: seeded inputs, one timed pass, and checks.

Every input graph is given to the program under a vertex relabelling of its
reference form, as graph6 text only, and each workload's seed picks the
input order.  The relabelling is drawn from the workload and graph, not from
the seed: a search's length depends on the vertex order, and seed-drawn
relabellings moved scan6's node count by up to 15% (1.88-2.18M over five
seeds) and left sigma's P8 undecided on about one seed in twenty, so every
seed runs the same searches.  Every value checked here is
isomorphism-invariant.  Checks run after the timed pass; they verify
witnesses with sumlab's labelling code, compare values with closed forms and
with ``reference.json``, and never stop the run.  Passes are timed with
``speedclock.SpeedClock``.

Program functions are looked up on their modules at call time, so that the
traced run can rebind them (see ``tracing.LAYERS``).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from time import perf_counter

import graphkit
from speedclock import SpeedClock
from sumlab import bounds, graphs, labelling, scan, solvers

EXCLUSIVE_BUDGET = 5_000_000
SIGMA_BUDGET = 1_000_000

# The connected graphs on 2-4 vertices, then families with closed-form sum
# numbers (see graphkit.closed_form).  C6, C7 and K5 end in SolverError at
# this budget; they stay so that the benchmark records that failure.
SIGMA_GRAPHS = [
    ("K2", 2, [(0, 1)]),
    ("P3", 3, [(0, 1), (1, 2)]),
    ("K3", 3, [(0, 1), (0, 2), (1, 2)]),
    ("P4", 4, [(0, 1), (1, 2), (2, 3)]),
    ("K1,3", 4, [(0, 1), (0, 2), (0, 3)]),
    ("C4", 4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    ("paw", 4, [(0, 1), (0, 2), (1, 2), (2, 3)]),
    ("K4-e", 4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
    ("K4", 4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    ("C5", 5, [(i, (i + 1) % 5) for i in range(5)]),
    ("C6", 6, [(i, (i + 1) % 6) for i in range(6)]),
    ("C7", 7, [(i, (i + 1) % 7) for i in range(7)]),
    ("K5", 5, [(i, j) for j in range(5) for i in range(j)]),
    ("P8", 8, [(i, i + 1) for i in range(7)]),
    ("K1,5", 6, [(0, i) for i in range(1, 6)]),
    ("T7", 7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]),
]


@dataclass
class Solve:
    """One solver call as the determinism check and the per-layer metrics see it."""

    invariant: str
    exhaustive: bool
    nodes: int
    error: bool = False


@dataclass
class Pass:
    """One pass over the inputs.  ``wall`` and ``latencies`` are seconds at the
    clock's reference speed, ``raw_wall`` the pass as measured without the
    clock's calibrations."""

    clock: SpeedClock
    raw_wall: float
    wall: float
    latencies: list[float]
    outputs: list
    digest: str = ""

    @classmethod
    def timed(cls, clock: SpeedClock, t0: float, t1: float, stamps, outputs, digest=""):
        return cls(clock, clock.work(t0, t1), clock.scaled(t0, t1),
                   [clock.scaled(a, b) for a, b in stamps], outputs, digest)


@dataclass
class Verdict:
    attempted: int = 0
    failed: set = field(default_factory=set)
    decided: int = 0
    problems: list = field(default_factory=list)

    def fail(self, index: int, what: str, wrong: bool = True) -> None:
        self.failed.add(index)
        if wrong:
            self.problems.append(what)


class Workload:
    name = ""
    seeded = True
    # Timed passes per run.  Fixed, so that every commit is measured over the
    # same work whatever its speed.
    passes = 1

    def __init__(self, reference: dict, seed: int):
        self.reference = reference
        keys = sorted(reference[self.name])
        random.Random(f"{self.name}/{seed}").shuffle(keys)
        self.keys = keys
        self.lines = []
        for key in keys:
            n, edges = graphkit.from_graph6(key)
            rng = random.Random(f"{self.name}/{key}")
            self.lines.append(graphkit.to_graph6(n, graphkit.relabel(n, edges, rng)))

    def solves(self, p: Pass) -> list[Solve]:
        raise NotImplementedError

    def run_pass(self) -> Pass:
        raise NotImplementedError

    def check(self, p: Pass) -> Verdict:
        raise NotImplementedError


def _check_value(v: Verdict, i: int, label: str, value: int, exhaustive: bool,
                 expected: int, exact: bool = True) -> bool:
    """Compare with a known value; a non-exhaustive value is an upper bound.

    An inexact ``expected`` is itself an upper bound from a witness.
    Returns whether the input counts as decided.
    """
    if exact:
        ok = value == expected if exhaustive else value >= expected
    else:
        ok = value <= expected if exhaustive else True
    if not ok:
        v.fail(i, f"{label}: value {value} (exhaustive={exhaustive}) vs known {expected}")
    return ok and exhaustive


def _index_witness_ok(g: graphs.Graph, witness: dict, kind, value: int,
                      range_used: int) -> bool:
    try:
        lab = labelling.VertexLabelling.from_dict({int(v): x for v, x in witness.items()})
        edge_labels = labelling.derive_edge_labelling(g, lab, kind)
    except labelling.LabellingError:
        return False
    in_range = all(0 <= x <= range_used for x in witness.values())
    return in_range and labelling.distinct_value_count(edge_labels) == value


class Scan6(Workload):
    """scan_conjectures over the 143 connected graphs on 1-6 vertices."""

    name = "scan6"

    def run_pass(self) -> Pass:
        stamps = []
        inner = scan.scan_record

        def timed_record(g, cfg=None):
            t = perf_counter()
            record = inner(g, cfg)
            stamps.append((t, perf_counter()))
            return record

        scan.scan_record = timed_record
        try:
            with SpeedClock() as clock:
                t0 = perf_counter()
                parsed = [graphs.parse_graph6(line) for line in self.lines]
                report = scan.scan_conjectures(parsed, workers=1)
                text = report.to_json()
                t1 = perf_counter()
        finally:
            scan.scan_record = inner
        digest = hashlib.sha256(text.encode()).hexdigest()
        return Pass.timed(clock, t0, t1, stamps, list(report.records), digest)

    def solves(self, p: Pass) -> list[Solve]:
        out = []
        for r in p.outputs:
            for inv, res in (("sum_index", r.sm), ("difference_index", r.df)):
                out.append(Solve(inv, res["exhaustive"], res["nodes_expanded"]))
        return out

    def check(self, p: Pass) -> Verdict:
        v = Verdict(attempted=len(self.lines))
        if len(p.outputs) != len(self.lines):
            v.fail(-1, f"{len(p.outputs)} records for {len(self.lines)} inputs")
        kinds = {"sm": labelling.LabelKind.SUM, "df": labelling.LabelKind.DIFF}
        for i, (line, key, r) in enumerate(zip(self.lines, self.keys, p.outputs)):
            if r.graph6 != line:
                v.fail(i, f"record {i} is {r.graph6!r}, input was {line!r}")
                continue
            n, edges = graphkit.from_graph6(line)
            g = graphs.Graph(n, edges)
            ref = self.reference["scan6"][key]
            decided = True
            for label, inv, res in (("sm", "sum_index", r.sm), ("df", "difference_index", r.df)):
                if not _index_witness_ok(g, res["witness"], kinds[label], res["value"],
                                         res["range_used"]):
                    v.fail(i, f"{line} {label}: witness does not give {res['value']}")
                known = graphkit.closed_form(inv, n, edges)
                if known is not None:
                    _check_value(v, i, f"{line} {label} closed form", res["value"],
                                 res["exhaustive"], known)
                decided &= _check_value(v, i, f"{line} {label} reference", res["value"],
                                        res["exhaustive"], ref[label])
            b = r.bounds
            if b.best_sm_lower > min(r.sm["value"], ref["sm"]) or \
                    b.best_df_lower > min(r.df["value"], ref["df"]):
                v.fail(i, f"{line}: bound_report lower bounds exceed the values")
            if not r.inconclusive and r.m > 0:
                sm, df = r.sm["value"], r.df["value"]
                half = (sm + 1) // 2
                if (r.conj42_holds, r.conj44_holds, r.df_le_sm) != \
                        (df == half, half <= df <= sm, df <= sm):
                    v.fail(i, f"{line}: conjecture predicates disagree with the values")
            v.decided += decided and i not in v.failed
        return v


class _PerInput(Workload):
    """One solver call per input graph.

    A SolverError is a failed input.  It is also a wrong answer unless the
    reference marks the input as one that raised at the seed.
    """

    invariant = ""
    budget = 0

    def solver(self, g, cfg):
        raise NotImplementedError

    def run_pass(self) -> Pass:
        cfg = solvers.SearchConfig(node_budget=self.budget)
        stamps, outputs = [], []
        with SpeedClock() as clock:
            t0 = perf_counter()
            for line in self.lines:
                t = perf_counter()
                g = graphs.parse_graph6(line)
                try:
                    res = self.solver(g, cfg)
                except solvers.SolverError as exc:
                    res = exc
                stamps.append((t, perf_counter()))
                outputs.append(res)
            t1 = perf_counter()
        return Pass.timed(clock, t0, t1, stamps, outputs)

    def solves(self, p: Pass) -> list[Solve]:
        return [
            Solve(self.invariant, False, 0, error=True)
            if isinstance(res, solvers.SolverError)
            else Solve(self.invariant, res.exhaustive_within_range, res.nodes_expanded)
            for res in p.outputs
        ]

    def check(self, p: Pass) -> Verdict:
        v = Verdict(attempted=len(self.lines))
        for i, (line, key, res) in enumerate(zip(self.lines, self.keys, p.outputs)):
            if isinstance(res, solvers.SolverError):
                known = self.reference[self.name][key].get("solver_error", False)
                v.fail(i, f"{line}: {res}", wrong=not known)
                continue
            n, edges = graphkit.from_graph6(line)
            g = graphs.Graph(n, edges)
            f = res.witness.as_dict()
            if sorted(f) != list(range(n)) or not all(1 <= x <= res.range_used for x in f.values()):
                v.fail(i, f"{line}: witness labels outside 1..{res.range_used}")
                continue
            if not self.witness_ok(g, res):
                v.fail(i, f"{line}: witness does not realise value {res.value}")
            if self.lower_bound(g) > res.value:
                v.fail(i, f"{line}: bound_report lower bound exceeds {res.value}")
            decided = self.check_value(v, i, line, key, n, edges, res)
            v.decided += decided and i not in v.failed
        return v


class Exclusive5(_PerInput):
    """exclusive_sum_number over the 30 connected graphs on 2-5 vertices."""

    name = "exclusive5"
    invariant = "exclusive_sum_number"
    budget = EXCLUSIVE_BUDGET

    def solver(self, g, cfg):
        return solvers.exclusive_sum_number(g, cfg)

    def witness_ok(self, g, res) -> bool:
        w = res.exclusive
        try:
            w.validate(g)
        except solvers.SolverError:
            return False
        return len(w.T) == res.value and dict(w.assignment) == res.witness.as_dict()

    def lower_bound(self, g) -> int:
        return bounds.bound_report(g).best_sm_lower

    def check_value(self, v, i, line, key, n, edges, res) -> bool:
        # the sum index never exceeds the exclusive sum number
        sm = self.reference["scan6"][key]["sm"]
        if res.value < sm:
            v.fail(i, f"{line}: exclusive value {res.value} below sum index {sm}")
        expected = self.reference[self.name][key]["value"]
        return _check_value(v, i, f"{line} reference", res.value,
                            res.exhaustive_within_range, expected)


class Sigma(_PerInput):
    """sum_number over 16 graphs whose sum numbers are known."""

    name = "sigma"
    invariant = "sum_number"
    budget = SIGMA_BUDGET

    def solver(self, g, cfg):
        return solvers.sum_number(g, cfg)

    def witness_ok(self, g, res) -> bool:
        f = res.witness.as_dict()
        iso = set(res.isolated_labels)
        if len(iso) != res.value or iso & set(f.values()):
            return False
        if not all(x >= 1 for x in iso):  # edge sums, so they may exceed the range
            return False
        w = sorted(set(f.values()) | iso)
        gplus = solvers.realize_gplus(w, w)
        pos = {x: k for k, x in enumerate(w)}
        want = sorted(tuple(sorted((pos[f[u]], pos[f[v]]))) for u, v in g.edges)
        return gplus.n == len(w) and list(gplus.edges) == want

    def lower_bound(self, g) -> int:
        # the classical bound sigma(G) >= minimum degree (Gallian's survey, DS6)
        return bounds.bound_report(g).min_degree_bound

    def check_value(self, v, i, line, key, n, edges, res) -> bool:
        exhaustive = res.exhaustive_within_range
        known = graphkit.closed_form("sum_number", n, edges)
        if known is not None:
            _check_value(v, i, f"{line} closed form", res.value, exhaustive, known)
        ref = self.reference[self.name][key]
        return _check_value(v, i, f"{line} reference", res.value, exhaustive,
                            ref["value"], ref["exact"])


class Census7(Workload):
    """enumerate_connected(7): 853 classes; deterministic, so the seed is unused."""

    name = "census7"
    seeded = False
    passes = 2

    def __init__(self, reference: dict, seed: int):
        self.reference = reference
        self.lines, self.keys = [], []

    def run_pass(self) -> Pass:
        stamps, outputs = [], []
        with SpeedClock() as clock:
            t0 = last = perf_counter()
            for g in graphs.enumerate_connected(7):
                now = perf_counter()
                stamps.append((last, now))
                last = now
                outputs.append((g.n, g.edges))
            t1 = perf_counter()
        return Pass.timed(clock, t0, t1, stamps, outputs)

    def solves(self, p: Pass) -> list[Solve]:
        return []

    def check(self, p: Pass) -> Verdict:
        ref = self.reference[self.name]
        v = Verdict(attempted=len(p.outputs))
        seen = set()
        for i, (n, edges) in enumerate(p.outputs):
            if n != 7 or not graphkit.is_connected(n, edges):
                v.fail(i, f"class {i} is not a connected 7-vertex graph")
                continue
            key = graphkit.canonical_key(n, edges)
            if key in seen:
                v.fail(i, f"class {i} ({key}) repeats an earlier class")
                continue
            seen.add(key)
            v.decided += 1
        digest = hashlib.sha256("\n".join(sorted(seen)).encode()).hexdigest()
        if len(seen) != ref["classes"] or digest != ref["sha256"]:
            missing = max(1, ref["classes"] - len(seen))
            v.attempted += missing
            v.failed.update(range(len(p.outputs), len(p.outputs) + missing))
            v.problems.append(f"{len(seen)} classes do not match the reference census")
        return v


WORKLOADS = {w.name: w for w in (Scan6, Exclusive5, Census7, Sigma)}
