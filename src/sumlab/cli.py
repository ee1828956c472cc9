"""Command-line front door.

Subcommands: ``index`` (exact invariants with witnesses), ``bounds``
(closed-form lower bounds), ``family`` (generators with certificates),
``verify`` (re-check stored certificates), ``scan`` (conjecture scanning
over graph6 corpora), and ``sumset stanchescu`` (randomised property run).

Exit codes: 0 on success, 1 when a counterexample / failed certificate /
property violation is reported, 2 on usage or I/O errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from . import families
from .graphs import Graph, parse_edge_list, parse_graph6, emit_graph6
from .bounds import bound_report
from .labelling import certificates_from_json, certificates_to_json, verify_certificate
from .scan import CHECKS, scan_conjectures
from .solvers import (
    SearchConfig,
    difference_index,
    exclusive_sum_number,
    sum_index,
    sum_number,
)
from .sumsets import stanchescu_check


def _read_graphs(path: str, fmt: str) -> list[Graph]:
    text = Path(path).read_text()
    if fmt == "edges":
        return [parse_edge_list(text)]
    return [parse_graph6(line) for line in text.splitlines() if line.strip()]


def _config_from_args(args: argparse.Namespace) -> SearchConfig:
    if args.budget is not None and args.budget < 0:
        raise ValueError(f"--budget must be at least 0, not {args.budget}")
    return SearchConfig(
        label_bound=args.range,
        escalate=getattr(args, "escalate", False),
        node_budget=args.budget,
    )


_INDEX_FNS = {
    "sum": sum_index,
    "diff": difference_index,
    "exclusive": exclusive_sum_number,
    "sumnumber": sum_number,
}


def _cmd_index(args: argparse.Namespace) -> int:
    fn = _INDEX_FNS[args.invariant]
    cfg = _config_from_args(args)
    results = []
    for g in _read_graphs(args.infile, args.format):
        res = fn(g, cfg)
        results.append((g, res))
        witness = " ".join(f"{v}={x}" for v, x in res.witness.items)
        note = "exhaustive" if res.exhaustive_within_range else "budget-limited"
        print(f"{res.invariant} = {res.value}  [{note} within labels <= {res.range_used}]")
        if res.range_free:
            print("  exact at any label range")
        print(f"  witness: {witness}")
        if res.isolated_labels is not None:
            print(f"  isolated labels: {' '.join(map(str, res.isolated_labels))}")
        if res.exclusive is not None:
            print(f"  S = {list(res.exclusive.S)}")
            print(f"  T = {list(res.exclusive.T)}")
    if args.json:
        payload = {
            "schema": 1,
            "results": [
                dict(res.to_json_dict(), graph6=emit_graph6(g)) for g, res in results
            ],
        }
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    if args.max_k is not None and args.max_k < 0:
        raise ValueError(f"--max-k must be at least 0, not {args.max_k}")
    reports = []
    for g in _read_graphs(args.infile, args.format):
        rep = bound_report(g, args.max_k)
        reports.append(rep)
        # the text id of a graph6 line over 64 characters is its first 32
        # and n; --json keeps the whole line
        gid = rep.graph_id
        if len(gid) > 64:
            gid = f"{gid[:32]}...(n={g.n})"
        print(f"{gid}: best_sm_lower={rep.best_sm_lower} "
              f"best_df_lower={rep.best_df_lower} "
              f"sum_degree={rep.sum_degree_bound} diff_degree={rep.diff_degree_bound} "
              f"min_degree={rep.min_degree_bound}")
        for k, val in rep.odd_cycle_bounds.items():
            print(f"  odd-cycle k={k}: {val:.6f}")
    if args.json:
        payload = {"schema": 1, "reports": [r.to_json_dict() for r in reports]}
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
    return 0


# family name -> (generator, its parameters in call order)
_FAMILIES = {
    "chained-cycles": (families.chained_odd_cycles, ("k", "s")),
    "prism": (families.prism, ("n",)),
    "subdivided-complete": (families.subdivided_complete, ("n",)),
    "subdivided-complete-kk": (families.subdivided_complete_kk, ("n", "k")),
    "gnk": (families.gnk, ("n", "k")),
}


def _cmd_family(args: argparse.Namespace) -> int:
    generate, params = _FAMILIES[args.family]
    missing = [p for p in params if getattr(args, p) is None]
    if missing:
        raise ValueError(
            f"family {args.family} requires --{' --'.join(missing)}"
        )
    inst = generate(*(getattr(args, p) for p in params))
    g = inst.graph
    print(f"{inst.name} {inst.params}: n={g.n} m={g.m} "
          f"certificates={len(inst.certificates)} (all verified)")
    if args.emit:
        Path(args.emit).write_text(emit_graph6(g) + "\n")
    if args.cert:
        Path(args.cert).write_text(certificates_to_json(list(inst.certificates)))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    graph = parse_graph6(Path(args.graph).read_text())
    certs = certificates_from_json(Path(args.cert).read_text())
    failures = 0
    for i, cert in enumerate(certs):
        if cert.graph != graph:
            print(f"certificate {i}: graph mismatch")
            failures += 1
            continue
        verdict = verify_certificate(cert)
        status = "pass" if verdict.passed else "FAIL"
        print(f"certificate {i} ({cert.claim_kind.value}): {status} "
              f"claimed={verdict.claimed} observed={verdict.observed}")
        failures += not verdict.passed
    return 1 if failures else 0


def _cmd_scan(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise ValueError(f"--workers must be at least 1, not {args.workers}")
    cfg = _config_from_args(args)
    graphs = _read_graphs(args.infile, "g6")
    checks = tuple(args.checks.split(",")) if args.checks else tuple(CHECKS)
    report = scan_conjectures(graphs, cfg, checks=checks, workers=args.workers)
    if args.out:
        Path(args.out).write_text(report.to_json())
    totals = report.to_json_dict()["totals"]
    print(f"scanned {totals['graphs']} graphs "
          f"({totals['inconclusive']} inconclusive)")
    for name, cexs in report.counterexamples.items():
        print(f"  {name}: {len(cexs)} counterexample(s)"
              + (f": {' '.join(cexs)}" if cexs else ""))
    if args.fail_on_counterexample and report.counterexample_count:
        return 1
    return 0


def _cmd_sumset(args: argparse.Namespace) -> int:
    if args.trials < 0:
        raise ValueError(f"--trials must be at least 0, not {args.trials}")
    if args.max_elem < 0:
        raise ValueError(f"--max-elem must be at least 0, not {args.max_elem}")
    if not 1 <= args.max_size <= args.max_elem + 1:
        # each set is drawn without repeats from 0..max_elem
        raise ValueError(f"--max-size must be between 1 and --max-elem + 1 = "
                         f"{args.max_elem + 1}, not {args.max_size}")
    rng = random.Random(args.seed)
    violations = 0
    hypothesis_hits = 0
    for _ in range(args.trials):
        size_a = rng.randint(1, args.max_size)
        size_b = rng.randint(1, args.max_size)
        a = rng.sample(range(args.max_elem + 1), size_a)
        b = rng.sample(range(args.max_elem + 1), size_b)
        if len(a) == 1 and len(b) == 1:
            continue  # common difference undefined
        verdict = stanchescu_check(a, b)
        if verdict.hypothesis_holds:
            hypothesis_hits += 1
            if not verdict.conclusion_holds:
                violations += 1
                print(f"VIOLATION: A={sorted(a)} B={sorted(b)}")
    print(f"{args.trials} trials, {hypothesis_hits} with the hypothesis true, "
          f"{violations} violation(s)")
    return 1 if violations else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumlab",
        description="Exact sum/difference-index laboratory for small graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="compute an invariant with witness")
    p_index.add_argument("invariant", choices=sorted(_INDEX_FNS))
    p_index.add_argument("--in", dest="infile", required=True)
    p_index.add_argument("--format", choices=("g6", "edges"), default="g6")
    p_index.add_argument("--range", type=int, default=None, help="label bound B")
    p_index.add_argument("--escalate", action="store_true",
                         help="double B until the value is range-free or two rounds agree")
    p_index.add_argument("--budget", type=int, default=None, help="node budget")
    p_index.add_argument("--json", default=None, help="write JSON results here")
    p_index.set_defaults(fn=_cmd_index)

    p_bounds = sub.add_parser("bounds", help="evaluate closed-form bounds")
    p_bounds.add_argument("--in", dest="infile", required=True)
    p_bounds.add_argument("--format", choices=("g6", "edges"), default="g6")
    p_bounds.add_argument("--max-k", dest="max_k", type=int, default=None)
    p_bounds.add_argument("--json", default=None)
    p_bounds.set_defaults(fn=_cmd_bounds)

    p_family = sub.add_parser("family", help="generate a graph family instance")
    p_family.add_argument("family", choices=tuple(_FAMILIES))
    p_family.add_argument("--n", type=int, default=None)
    p_family.add_argument("--k", type=int, default=None)
    p_family.add_argument("--s", type=int, default=None)
    p_family.add_argument("--emit", default=None, help="write graph6 here")
    p_family.add_argument("--cert", default=None, help="write certificate JSON here")
    p_family.set_defaults(fn=_cmd_family)

    p_verify = sub.add_parser("verify", help="verify stored certificates")
    p_verify.add_argument("--graph", required=True)
    p_verify.add_argument("--cert", required=True)
    p_verify.set_defaults(fn=_cmd_verify)

    p_scan = sub.add_parser("scan", help="scan a graph6 corpus for conjecture failures")
    p_scan.add_argument("--in", dest="infile", required=True)
    p_scan.add_argument("--checks", default=",".join(CHECKS))
    p_scan.add_argument("--out", default=None)
    p_scan.add_argument("--range", type=int, default=None)
    p_scan.add_argument("--budget", type=int, default=None)
    p_scan.add_argument("--workers", type=int, default=1)
    p_scan.add_argument("--fail-on-counterexample", action="store_true")
    p_scan.set_defaults(fn=_cmd_scan)

    p_sumset = sub.add_parser("sumset", help="sumset property runs")
    sumset_sub = p_sumset.add_subparsers(dest="property", required=True)
    p_stan = sumset_sub.add_parser("stanchescu")
    p_stan.add_argument("--trials", type=int, default=10000)
    p_stan.add_argument("--seed", type=int, default=0)
    p_stan.add_argument("--max-elem", dest="max_elem", type=int, default=30)
    p_stan.add_argument("--max-size", dest="max_size", type=int, default=8)
    p_stan.set_defaults(fn=_cmd_sumset)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # GraphError and SolverError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
