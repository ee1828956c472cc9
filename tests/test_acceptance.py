"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import math
import random
import time

import sumlab as sl
from sumlab import LabelKind, SearchConfig


def _report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name}: {detail}"


def _verified_value(g, res, kind):
    e = sl.derive_edge_labelling(g, res.witness, kind)
    assert sl.distinct_value_count(e) == res.value
    return res.value


def test_criterion_1_prism_exactness():
    worst = 0.0
    values = {}
    for n in (3, 4, 5):
        g = sl.prism(n).graph
        t0 = time.perf_counter()
        res = sl.sum_index(g)
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        values[n] = _verified_value(g, res, LabelKind.SUM)
    ok = values == {3: 5, 4: 5, 5: 5} and worst <= 60.0
    _report("1 prism sum index", ok, f"values={values} worst={worst:.1f}s")


def test_criterion_2_subdivided_complete():
    t0 = time.perf_counter()
    results = {}
    for n in (4, 5):
        g = sl.subdivided_complete(n).graph
        df = _verified_value(g, sl.difference_index(g), LabelKind.DIFF)
        sm = _verified_value(g, sl.sum_index(g), LabelKind.SUM)
        results[n] = (df, sm)
    elapsed = time.perf_counter() - t0
    ok = results == {4: (3, 4), 5: (4, 6)} and elapsed <= 120.0
    _report("2 subdivided complete", ok, f"(df, sm)={results} total={elapsed:.1f}s")


def test_criterion_3_conjectured_value_off_by_one():
    g = sl.subdivided_complete(4).graph
    df = sl.difference_index(g).value
    sm = sl.sum_index(g).value
    gap = df - (sm + 1) // 2
    _report("3 off-by-one counterexample", gap == 1, f"df={df} sm={sm} gap={gap}")


def test_criterion_4_subdivided_clique_pair():
    checks = {}
    for n, k in ((5, 2), (9, 3)):
        cert = sl.subdivided_complete_kk(n, k).certificate(LabelKind.SUM)
        verdict = sl.verify_certificate(cert)
        checks[(n, k)] = (verdict.passed, verdict.observed, 2 * n - 2 * k - 1)
    exact = sl.sum_index(sl.subdivided_complete_kk(5, 2).graph).value
    ok = (
        all(passed and obs == want for passed, obs, want in checks.values())
        and exact == 5
    )
    _report("4 subdivided clique pair", ok, f"certs={checks} sum_index(5,2)={exact}")


def test_criterion_5_chained_cycles():
    failures = []
    for k in range(1, 7):
        for s in range(1, 7):
            if 2 * s * k + 1 > 13:
                continue
            g = sl.chained_odd_cycles(k, s).graph
            df = _verified_value(g, sl.difference_index(g), LabelKind.DIFF)
            if df != 2:
                failures.append((k, s, df))
    g12 = sl.chained_odd_cycles(1, 2).graph
    sm = sl.sum_index(g12).value
    bound = sl.odd_cycle_bound(g12, 1)
    # frozen regression value for the two-triangle chain, first established
    # by this exact search
    ok = not failures and sm == 4 and sm >= bound and math.ceil(bound) == 4
    _report("5 chained cycles", ok, f"df failures={failures} sm(1,2)={sm} bound={bound:.3f}")


def test_criterion_6_gnk_certificate():
    inst = sl.gnk(6, 4)
    g = inst.graph
    cert = inst.certificate(LabelKind.SUM)
    verdict = sl.verify_certificate(cert)
    w_degrees = [len(g.adj[v]) for v in range(6, 10)]
    ok = (
        verdict.passed
        and verdict.observed == 10
        and g.n == 13
        and w_degrees == [6, 6, 6, 6]
    )
    _report("6 gnk certificate", ok,
            f"observed={verdict.observed} n={g.n} W degrees={w_degrees}")


def test_criterion_7_soundness_sweep(connected_by_n):
    t0 = time.perf_counter()
    count = 0
    violations = []
    for n in range(1, 7):
        for g in connected_by_n[n]:
            count += 1
            sm = sl.sum_index(g)
            df = sl.difference_index(g)
            _verified_value(g, sm, LabelKind.SUM)
            _verified_value(g, df, LabelKind.DIFF)
            rep = sl.bound_report(g)
            if rep.best_sm_lower > sm.value or rep.best_df_lower > df.value:
                violations.append(("bound", sl.emit_graph6(g)))
            # every sum index is the partition floor, exact at any range
            if not sm.range_free:
                violations.append(("range_free", sl.emit_graph6(g)))
            if g.m == 0:
                continue
            if sl.is_bipartite(g) and df.value < (sm.value + 1) // 2:
                violations.append(("bipartite", sl.emit_graph6(g)))
            if df.value > sm.value:
                violations.append(("df<=sm", sl.emit_graph6(g)))
    elapsed = time.perf_counter() - t0
    ok = count == 143 and not violations and elapsed <= 1800.0
    _report("7 soundness sweep", ok,
            f"graphs={count} violations={violations} elapsed={elapsed:.0f}s")


def test_criterion_8_exclusive_dominance(connected_by_n):
    budget = 5_000_000
    incomplete = 0
    violations = []
    for n in range(2, 6):
        for g in connected_by_n[n]:
            eps = sl.exclusive_sum_number(g, SearchConfig(node_budget=budget))
            if not eps.exhaustive_within_range:
                incomplete += 1
                continue
            eps.exclusive.validate(g)
            if sl.sum_index(g).value > eps.value:
                violations.append(sl.emit_graph6(g))
    k4 = sl.complete_graph(4)
    eq = sl.exclusive_sum_number(k4).value == sl.sum_index(k4).value == 5
    ok = not violations and eq
    _report("8 exclusive dominance", ok,
            f"violations={violations} incomplete={incomplete} eps(K4)=sm(K4)={eq}")


def test_criterion_9_stability_property_suite():
    rng = random.Random(0)
    t0 = time.perf_counter()
    violations = 0
    fired = 0
    for _ in range(10_000):
        a = rng.sample(range(31), rng.randint(1, 8))
        b = rng.sample(range(31), rng.randint(1, 8))
        if len(a) == 1 and len(b) == 1:
            continue
        v = sl.stanchescu_check(a, b)
        if v.hypothesis_holds:
            fired += 1
            if not v.conclusion_holds:
                violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed <= 10.0
    _report("9 stability suite", ok,
            f"violations={violations} fired={fired} elapsed={elapsed:.1f}s")


def test_criterion_10_scan_determinism(connected_by_n):
    corpus = [g for n in range(2, 6) for g in connected_by_n[n]]
    rep1 = sl.scan_conjectures(corpus, workers=1)
    rep8 = sl.scan_conjectures(corpus, workers=8)
    identical = rep1.to_json() == rep8.to_json()
    ok = identical and rep1.counterexamples["dflesm"] == ()
    _report("10 scan determinism", ok,
            f"graphs={len(corpus)} byte-identical={identical} "
            f"df<=sm counterexamples={len(rep1.counterexamples['dflesm'])}")
