"""sumlab benchmark: one seeded workload per run, checked answers, one JSON line.

Run from the repository root:

    python3 perfbench/run.py --workload scan6 --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json and perfbench/README.md): scan6, exclusive5,
census7 and sigma.  Each runs single-process through sumlab's public API.

--trace 0 makes the workload's fixed number of timed passes over its inputs
(``Workload.passes``; --seconds is accepted but does not change it, so every
commit is measured over the same work) and reports the end-to-end metrics.
--trace 1 makes one untraced and one traced pass and reports the per-layer
metrics of the traced one.  Every pass is checked after it is timed; the
human-readable report comes first and the last line of standard output is
the JSON result.  Times are seconds at a reference CPU speed, read from
``speedclock.SpeedClock`` (set-ups, passes, latencies and traced self
times); the report also prints the raw pass time.  The exit code is 1 when
any answer is wrong or a count is not deterministic, and 2 when the program
sources are missing.
Spans and the count record of each seed and program version go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from speedclock import SpeedClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 11
TAIL_BEYOND = 10
SOLVERS = ("sum_index", "difference_index", "exclusive_sum_number", "sum_number")
SELF_TIMED = ("graphs.canonical_form", "graphs.enumerate_connected", "graphs.parse_graph6",
              "scan.scan_record", "scan.to_json", "bounds.bound_report")


def setup(workload: str, seed: int):
    """Import the program, load the reference table and build the seeded inputs."""
    with SpeedClock() as clock:
        t0 = perf_counter()
        sys.path.insert(0, str(ROOT / "src"))
        import workloads

        reference = json.loads((HERE / "reference.json").read_text())
        wl = workloads.WORKLOADS[workload](reference, seed)
        t1 = perf_counter()
    return wl, clock.scaled(t0, t1)


def setup_in_fresh_process(args) -> float:
    cmd = [sys.executable, __file__, "--setup-only", "--workload", args.workload,
           "--seed", str(args.seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_latency(latencies: list[float], failed: set) -> tuple[float, int]:
    """Latency with TAIL_BEYOND samples beyond it, and the sample count.

    A failed input misses any latency limit, so it ranks above every success.
    """
    ranked = sorted((i in failed, t) for i, t in enumerate(latencies))
    return ranked[max(0, len(ranked) - 1 - TAIL_BEYOND)][1], len(ranked)


def count_record(wl, p) -> dict:
    """Counts that must repeat exactly for one seed."""
    counts = {"outputs": len(p.outputs)}
    for s in wl.solves(p):
        key = f"solvers.{s.invariant}"
        for k, v in (("calls", 1), ("nodes", s.nodes), ("errors", s.error),
                     ("budget_hits", not s.exhaustive and not s.error)):
            counts[f"{key}.{k}"] = counts.get(f"{key}.{k}", 0) + int(v)
    if p.digest:
        counts["report_sha256"] = p.digest
    return counts


def program_version() -> str:
    """SHA-256 over the sumlab sources, so that only runs of one program compare."""
    digest = hashlib.sha256()
    src = ROOT / "src" / "sumlab"
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def check_against_earlier_runs(workload: str, seed: int, counts: dict) -> list[str]:
    """Compare with the counts an earlier run of this seed and program recorded,
    then record.  A changed program starts a new record: its counts may differ."""
    path = OUT / f"counts-{workload}-seed{seed}-{program_version()}.json"
    earlier = json.loads(path.read_text()) if path.exists() else {}
    problems = [f"{k}: {counts[k]!r} now, {earlier[k]!r} in an earlier run"
                for k in sorted(counts.keys() & earlier.keys()) if counts[k] != earlier[k]]
    path.write_text(json.dumps({**earlier, **counts}, indent=1, sort_keys=True) + "\n")
    return problems


def layer_metrics(totals: dict, solves: list, overhead: float) -> dict:
    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def self_s(name):
        return totals.get(name, (0, 0.0))[1]

    m = {"graphs.canonical_form.calls": (calls("graphs.canonical_form"), "count"),
         "bounds.count_cycles.calls": (calls("bounds.count_cycles"), "count")}
    for name in SELF_TIMED:
        m[f"{name}.self_s"] = (self_s(name), "s")
    for inv in SOLVERS:
        name = f"solvers.{inv}"
        mine = [s for s in solves if s.invariant == inv]
        nodes = sum(s.nodes for s in mine)
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
        m[f"{name}.nodes"] = (nodes, "count")
        m[f"{name}.nodes_per_s"] = (nodes / self_s(name) if self_s(name) else 0.0, "1/s")
        m[f"{name}.exhaustive_ratio"] = (
            sum(s.exhaustive for s in mine) / len(mine) if mine else 0.0, "share")
    sigma = [s for s in solves if s.invariant == "sum_number"]
    m["solvers.sum_number.budget_hits"] = (
        sum(not s.exhaustive and not s.error for s in sigma), "count")
    m["solvers.sum_number.errors"] = (sum(s.error for s in sigma), "count")
    m["trace.overhead_share"] = (overhead, "share")
    return m


def run(args) -> int:
    wl, first_setup = setup(args.workload, args.seed)
    if args.setup_only:
        print(repr(first_setup))
        return 0
    OUT.mkdir(exist_ok=True)
    problems = []
    notes = [] if wl.seeded else [f"{wl.name} is deterministic: the seed has no effect"]

    if args.trace:
        import tracing

        passes = [wl.run_pass()]
        tracer = tracing.Tracer()
        with tracer.installed():
            passes.append(wl.run_pass())
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        base, traced = passes
        totals = tracer.layer_totals(traced.clock.scaled)
        solves = wl.solves(traced)
        for inv in SOLVERS:
            spans = totals.get(f"solvers.{inv}", (0, 0.0))[0]
            calls = sum(s.invariant == inv for s in solves)
            if spans != calls:
                problems.append(f"{inv}: {spans} spans for {calls} results")
        metrics = layer_metrics(totals, solves, (traced.wall - base.wall) / base.wall)
        span_counts = {k: v[0] for k, v in metrics.items() if k.endswith(".calls")}
    else:
        setups = [first_setup] + [setup_in_fresh_process(args)
                                  for _ in range(SETUP_SAMPLES - 1)]
        passes = [wl.run_pass() for _ in range(wl.passes)]
        rss = peak_rss_mb()
        span_counts = {}

    verdicts = [wl.check(p) for p in passes]
    for v in verdicts:
        problems.extend(v.problems)
    records = [count_record(wl, p) for p in passes]
    if any(r != records[0] for r in records):
        problems.append("counts or scan report differ between passes of one run")
    problems += check_against_earlier_runs(args.workload, args.seed, {**records[0], **span_counts})

    attempted = sum(v.attempted for v in verdicts)
    failed = sum(len(v.failed) for v in verdicts)
    # Printed but not in the JSON result: failed_share is 0 on most workloads,
    # and with 16 or 30 inputs a pass the tail rank lands on small graphs whose
    # searches take a few ms, so timer and machine noise dominate them.
    extra = {"failed_share": (failed / attempted, "share")}
    if not args.trace:
        tails = [tail_latency(p.latencies, v.failed) for p, v in zip(passes, verdicts)]
        extra["solve_tail_ms"] = (statistics.median(t for t, _ in tails) * 1000.0, "ms")
        extra["raw_wall_s"] = (statistics.median(p.raw_wall for p in passes), "s")
        extra["calibration_ms"] = (
            statistics.median(p.clock.calibration_s() for p in passes) * 1000.0, "ms")
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_ref_s": (statistics.median(p.wall for p in passes), "s"),
            "decided_share": (sum(v.decided for v in verdicts) / attempted, "share"),
            "peak_rss_mb": (rss, "MB"),
        }
        notes.append(f"solve_tail_ms: per-pass latency with {TAIL_BEYOND} inputs beyond it, "
                     f"of {tails[0][1]} per pass, median over {len(passes)} pass(es)")
        notes.append(f"setup_s: median of {len(setups)} set-ups, {len(setups) - 1} "
                     "in fresh processes")

    correct = not problems
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(passes)} pass(es)")
    for note in notes:
        print(f"  note: {note}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:44s} {value:>16.6g} {unit}")
    print(f"  {failed} of {attempted} attempted inputs failed")
    for problem in problems[:50]:
        print(f"  WRONG: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("scan6", "exclusive5", "census7", "sigma"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (ROOT / "src" / "sumlab" / "__init__.py").is_file():
        print(f"perfbench: no sumlab sources under {ROOT / 'src'}; "
              "run from a repository checkout", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
