import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sumlab as sl
from sumlab import SearchConfig
from sumlab.cli import main


@pytest.fixture(scope="module")
def small_corpus(connected_by_n):
    graphs = [g for n in range(2, 5) for g in connected_by_n[n]]
    graphs.append(sl.subdivided_complete(4).graph)
    return graphs


def test_scan_finds_known_conj42_counterexample(small_corpus):
    report = sl.scan_conjectures(small_corpus)
    khat4 = sl.emit_graph6(sl.subdivided_complete(4).graph)
    assert khat4 in report.counterexamples["conj42"]
    assert report.counterexamples["conj44"] == ()
    assert report.counterexamples["dflesm"] == ()


def test_scan_record_invariants(small_corpus):
    report = sl.scan_conjectures(small_corpus)
    for rec in report.records:
        if rec.conj42_holds:
            assert rec.conj44_holds
        if rec.bipartite and not rec.inconclusive:
            assert rec.df["value"] >= (rec.sm["value"] + 1) // 2
        assert rec.bounds.best_sm_lower <= rec.sm["value"]
        assert rec.bounds.best_df_lower <= rec.df["value"]


def test_scan_worker_determinism(small_corpus):
    rep1 = sl.scan_conjectures(small_corpus, workers=1)
    rep2 = sl.scan_conjectures(small_corpus, workers=2)
    assert rep1.to_json() == rep2.to_json()


def test_scan_budget_marks_inconclusive(small_corpus):
    graphs = [g for g in small_corpus if g.n == 4]
    report = sl.scan_conjectures(graphs, SearchConfig(node_budget=3))
    assert all(r.inconclusive for r in report.records)
    assert all(r.conj42_holds is None for r in report.records)
    assert report.counterexample_count == 0


def test_scan_rejects_unknown_check(small_corpus):
    with pytest.raises(ValueError):
        sl.scan_conjectures(small_corpus[:1], checks=("conj41",))


def test_scan_report_bytes_are_pinned(connected_by_n):
    """The n <= 6 scan report, every graph6 string in it included, is byte
    for byte the one pinned here.  Node counts are left out of the digest
    and pinned apart as totals, so a change that moves only node counts
    fails on the totals, not on the digest."""
    graphs = [g for n in range(1, 7) for g in connected_by_n[n]]
    assert len(graphs) == 143
    data = sl.scan_conjectures(graphs, workers=1).to_json_dict()
    nodes = {"sm": 0, "df": 0}
    for rec in data["records"]:
        for key in nodes:
            nodes[key] += rec[key].pop("nodes_expanded")
    digest = hashlib.sha256((json.dumps(data, indent=2) + "\n").encode()).hexdigest()
    assert digest == "8d196c6bf5e8560a45a3b29c7bd74f0e5727b24058f3e4fe4900e3adc3bf7425"
    assert nodes == {"sm": 107_024, "df": 44_950}


def test_scan_schema(small_corpus):
    data = sl.scan_conjectures(small_corpus[:3]).to_json_dict()
    assert data["schema"] == 1
    assert data["totals"]["graphs"] == 3
    assert len(data["records"]) == 3
    assert "worker" not in json.dumps(data["config"])


def test_import_leaves_out_multiprocessing():
    """The process pool is imported only by a scan with workers > 1."""
    src = Path(sl.__file__).resolve().parent.parent
    probe = "import sys, sumlab; print('multiprocessing' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_benchmark_trace_hooks_still_bind(monkeypatch):
    """The benchmark's traced run rebinds these module names; a scan must
    still call through every one of them."""
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    with tracer.installed():
        report = sl.scan_conjectures([sl.complete_graph(3), sl.path_graph(4)])
        report.to_json()
    assert {span[0] for span in tracer.spans} >= {
        "scan.scan_record",
        "scan.to_json",
        "solvers.sum_index",
        "solvers.difference_index",
        "bounds.bound_report",
        "bounds.count_cycles",
        "graphs.parse_graph6",
    }


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _write_g6(path, graphs):
    path.write_text("".join(sl.emit_graph6(g) + "\n" for g in graphs))


def test_cli_index_sum_prism(tmp_path, capsys):
    infile = tmp_path / "prism3.g6"
    _write_g6(infile, [sl.prism(3).graph])
    out = tmp_path / "res.json"
    rc = main(["index", "sum", "--in", str(infile), "--json", str(out)])
    assert rc == 0
    assert "sum_index = 5" in capsys.readouterr().out
    data = json.loads(out.read_text())
    assert data["results"][0]["value"] == 5
    assert data["results"][0]["exhaustive"] is True


def test_cli_index_exclusive_says_range_free(tmp_path, capsys):
    # eps(Ds{) = 5, sm(Eq~w) = 7 and sigma(Dus) = 4 are the least targets
    # the partition refutations leave, so they are exact at any range;
    # df(Es^w) = 4 lies above its lower bound 3, so it is exact only within
    # the range
    for g6, invariant, printed_value, range_free in (
        ("Ds{", "exclusive", "exclusive_sum_number = 5", True),
        ("Eq~w", "sum", "sum_index = 7", True),
        ("Dus", "sumnumber", "sum_number = 4", True),
        ("Es^w", "diff", "difference_index = 4", False),
    ):
        infile = tmp_path / "g.g6"
        _write_g6(infile, [sl.parse_graph6(g6)])
        out = tmp_path / "res.json"
        rc = main(["index", invariant, "--in", str(infile), "--json", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert printed_value in printed
        assert ("exact at any label range" in printed) is range_free
        res = json.loads(out.read_text())["results"][0]
        assert res["range_free"] is range_free
        if invariant == "exclusive":
            assert res["exclusive"] == {
                "S": [1, 2, 3, 4, 6],
                "T": [3, 4, 5, 7, 9],
                "assignment": res["witness"],
            }
        assert ("isolated_labels" in res) is (invariant == "sumnumber")


def test_cli_index_sumnumber_and_bounds_json(tmp_path, capsys):
    # sigma(P3) = 1: labels 3, 1, 2 give edge sums 4 and 3, and 4 needs an
    # isolated vertex
    infile = tmp_path / "p3.g6"
    _write_g6(infile, [sl.path_graph(3)])
    out = tmp_path / "res.json"
    assert main(["index", "sumnumber", "--in", str(infile), "--json", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "sum_number = 1" in printed
    assert "  isolated labels: 4\n" in printed
    res = json.loads(out.read_text())["results"][0]
    assert res["isolated_labels"] == [4]
    assert res["witness"] == {"0": 3, "1": 1, "2": 2}
    assert "exclusive" not in res

    out = tmp_path / "bounds.json"
    assert main(["bounds", "--in", str(infile), "--json", str(out)]) == 0
    assert "Bg: best_sm_lower=2 best_df_lower=1" in capsys.readouterr().out
    assert json.loads(out.read_text()) == {
        "schema": 1,
        "reports": [{
            "graph_id": "Bg",
            "odd_cycle_bounds": {"1": 1.0},
            "diff_degree_bound": 1,
            "sum_degree_bound": 1,
            "min_degree_bound": 1,
            "best_sm_lower": 2,
            "best_df_lower": 1,
        }],
    }


def test_cli_index_edges_format(tmp_path, capsys):
    infile = tmp_path / "k2.edges"
    infile.write_text("n 2\n0 1\n")
    rc = main(["index", "diff", "--in", str(infile), "--format", "edges"])
    assert rc == 0
    assert "difference_index = 1" in capsys.readouterr().out


def test_cli_family_emit_and_verify(tmp_path, capsys):
    g6 = tmp_path / "cc.g6"
    cert = tmp_path / "cc.json"
    rc = main(["family", "chained-cycles", "--k", "2", "--s", "3",
               "--emit", str(g6), "--cert", str(cert)])
    assert rc == 0
    assert sl.parse_graph6(g6.read_text()).n == 13
    rc = main(["verify", "--graph", str(g6), "--cert", str(cert)])
    assert rc == 0
    assert "pass" in capsys.readouterr().out


def test_cli_verify_fails_on_bad_claim(tmp_path, capsys):
    g6 = tmp_path / "kk.g6"
    cert = tmp_path / "kk.json"
    main(["family", "subdivided-complete-kk", "--n", "5", "--k", "2",
          "--emit", str(g6), "--cert", str(cert)])
    data = json.loads(cert.read_text())
    data[0]["claimed"] = 4
    cert.write_text(json.dumps(data))
    rc = main(["verify", "--graph", str(g6), "--cert", str(cert)])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


_K2_CERT = {"graph6": "A_", "labelling": {"0": 0, "1": 1}, "kind": "SUM", "claimed": 1}


@pytest.mark.parametrize("records, message", [
    ([{"labelling": {"0": 1}}], "certificate 0: record has no 'graph6' field"),
    ([1, 2], "certificate 0: record is not a JSON object: 1"),
    ([_K2_CERT, dict(_K2_CERT, labelling=[0, 1])],
     "certificate 1: field 'labelling': 'list' object has no attribute 'items'"),
    ([{"graph6": "A_", "labelling": {"0": 0.9, "1": 1.5}, "kind": "SUM", "claimed": 1.7}],
     "certificate 0: field 'labelling': 0.9 is not an integer"),
    ([dict(_K2_CERT, labelling={"0": True, "1": 5})],
     "certificate 0: field 'labelling': True is not an integer"),
    ([dict(_K2_CERT, claimed=1.7)], "certificate 0: field 'claimed': 1.7 is not an integer"),
    ([dict(_K2_CERT, claimed=True)], "certificate 0: field 'claimed': True is not an integer"),
])
def test_cli_verify_rejects_malformed_certificates(tmp_path, capsys, records, message):
    # a malformed file is an input error (2), not a failed certificate (1)
    g6 = tmp_path / "k2.g6"
    cert = tmp_path / "k2.json"
    g6.write_text("A_\n")
    cert.write_text(json.dumps(records))
    assert main(["verify", "--graph", str(g6), "--cert", str(cert)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_verify_reports_graph_mismatch(tmp_path, capsys):
    g6 = tmp_path / "k3.g6"
    cert = tmp_path / "k2.json"
    g6.write_text("Bw\n")
    cert.write_text(json.dumps([_K2_CERT]))
    assert main(["verify", "--graph", str(g6), "--cert", str(cert)]) == 1
    assert capsys.readouterr().out == "certificate 0: graph mismatch\n"


def test_cli_scan_exit_codes(tmp_path, connected_by_n):
    infile = tmp_path / "corpus.g6"
    _write_g6(infile, connected_by_n[4] + [sl.subdivided_complete(4).graph])
    out = tmp_path / "report.json"
    rc = main(["scan", "--in", str(infile), "--out", str(out)])
    assert rc == 0
    rc = main(["scan", "--in", str(infile), "--fail-on-counterexample"])
    assert rc == 1
    report = json.loads(out.read_text())
    assert report["schema"] == 1
    assert report["totals"]["counterexamples_42"] == 1


def test_cli_scan_check_selection(tmp_path, capsys):
    infile = tmp_path / "corpus.g6"
    _write_g6(infile, [sl.subdivided_complete(4).graph])
    rc = main(["scan", "--in", str(infile), "--checks", "dflesm",
               "--fail-on-counterexample"])
    assert rc == 0  # the conj42 failure is not among the selected checks


def test_cli_scan_selected_checks_output(tmp_path, capsys):
    # K^4 fails conj42 only; Eqjo fails conj42 and conj44
    graphs = [sl.subdivided_complete(4).graph, sl.parse_graph6("Eqjo")]
    infile = tmp_path / "corpus.g6"
    _write_g6(infile, graphs)
    out = tmp_path / "report.json"
    rc = main(["scan", "--in", str(infile), "--checks", "dflesm,conj42",
               "--out", str(out)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    khat4 = sl.emit_graph6(graphs[0])
    assert lines[1:] == [f"  conj42: 2 counterexample(s): {khat4} Eqjo",
                         "  dflesm: 0 counterexample(s)"]
    report = json.loads(out.read_text())
    assert report["config"]["checks"] == ["conj42", "dflesm"]
    assert report["totals"] == {"graphs": 2, "inconclusive": 0, "counterexamples_42": 2,
                                "counterexamples_44": 0, "counterexamples_df_le_sm": 0}
    assert report["records"][1]["conj44_holds"] is False
    assert report["counterexamples_44"] == []
    selected = sl.scan_conjectures(graphs, checks=("dflesm", "conj42"))
    assert selected.counterexample_count == 2
    assert sl.scan_conjectures(graphs).counterexample_count == 3


@pytest.mark.parametrize("first, second", [
    ("conj44,conj44", "conj44"),
    ("dflesm,conj42", "conj42,dflesm"),
])
def test_cli_scan_report_ignores_check_order_and_repeats(tmp_path, capsys, first, second):
    infile = tmp_path / "corpus.g6"
    _write_g6(infile, [sl.subdivided_complete(4).graph, sl.parse_graph6("Eqjo")])
    reports = []
    for checks in (first, second):
        out = tmp_path / f"{checks}.json"
        assert main(["scan", "--in", str(infile), "--checks", checks,
                     "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_cli_bounds_prints_max_degree_floor(tmp_path, capsys):
    infile = tmp_path / "k13.g6"
    infile.write_text("Cs\n")  # K1,3
    assert main(["bounds", "--in", str(infile)]) == 0
    assert "best_sm_lower=3 " in capsys.readouterr().out


def test_cli_bounds_prints_a_bounded_id(tmp_path, capsys):
    # 201 vertices: a graph6 line of over 3,000 characters
    g = sl.chained_odd_cycles(1, 100).graph
    line = sl.emit_graph6(g)
    assert len(line) > 3000
    infile = tmp_path / "chain.g6"
    _write_g6(infile, [g, sl.path_graph(3)])
    out = tmp_path / "bounds.json"
    assert main(["bounds", "--max-k", "1", "--in", str(infile), "--json", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith(f"{line[:32]}...(n={g.n}): best_sm_lower=")
    assert printed[2].startswith("Bg: best_sm_lower=2 ")
    assert max(map(len, printed)) < 200
    ids = [r["graph_id"] for r in json.loads(out.read_text())["reports"]]
    assert ids == [line, "Bg"]


def test_cli_stanchescu(capsys):
    # with elements up to 10 the hypothesis holds in 19 of the 500 trials,
    # so the conclusion is checked; at 30 it held in none
    rc = main(["sumset", "stanchescu", "--trials", "500", "--seed", "7",
               "--max-elem", "10", "--max-size", "8"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out == "500 trials, 19 with the hypothesis true, 0 violation(s)\n"


def test_cli_stanchescu_reports_a_violation(monkeypatch, capsys):
    # the theorem never fails, so a verdict that breaks it is faked here
    monkeypatch.setattr("sumlab.cli.stanchescu_check",
                        lambda a, b: sl.StanchescuVerdict(True, 2, 2, 1, 1, False))
    rc = main(["sumset", "stanchescu", "--trials", "1", "--seed", "0",
               "--max-elem", "10", "--max-size", "8"])
    assert rc == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("VIOLATION: A=[")
    assert out[1] == "1 trials, 1 with the hypothesis true, 1 violation(s)"


def test_cli_usage_errors(tmp_path):
    assert main(["nosuchcommand"]) == 2
    assert main(["index", "sum", "--in", str(tmp_path / "missing.g6")]) == 2
    assert main(["index", "sum", "--in", __file__]) == 2  # not graph6


@pytest.mark.parametrize("argv, text, message", [
    (["index", "sum"], "B@\n", "nonzero padding bits"),
    (["index", "sum", "--format", "edges"], "\n", "missing 'n <count>' header"),
    (["index", "sum", "--format", "edges"], "n x\n0 1\n", "bad vertex count 'x'"),
    (["index", "sum", "--format", "edges"], "n -1\n", "vertex count must be nonnegative"),
    (["family", "prism"], None, "family prism requires --n"),
    (["sumset", "stanchescu", "--trials", "-1"], None, "--trials must be at least 0, not -1"),
    (["sumset", "stanchescu", "--max-elem", "-1"], None, "--max-elem must be at least 0, not -1"),
    (["sumset", "stanchescu", "--max-elem", "3", "--max-size", "8"], None,
     "--max-size must be between 1 and --max-elem + 1 = 4, not 8"),
    (["sumset", "stanchescu", "--max-size", "0"], None,
     "--max-size must be between 1 and --max-elem + 1 = 31, not 0"),
    # flag values are checked before the input is read: "B@" is not graph6
    (["index", "sum", "--budget", "-1"], "B@\n", "--budget must be at least 0, not -1"),
    (["scan", "--budget", "-1"], "B@\n", "--budget must be at least 0, not -1"),
    (["scan", "--workers", "0"], "B@\n", "--workers must be at least 1, not 0"),
    (["scan", "--workers", "-2"], "B@\n", "--workers must be at least 1, not -2"),
    (["bounds", "--max-k", "-1"], "B@\n", "--max-k must be at least 0, not -1"),
])
def test_cli_rejects_malformed_input(tmp_path, capsys, argv, text, message):
    if text is not None:
        infile = tmp_path / "input"
        infile.write_text(text)
        argv = argv + ["--in", str(infile)]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_cli_sumnumber_rejects_disconnected(tmp_path):
    infile = tmp_path / "two.g6"
    _write_g6(infile, [sl.Graph(3, [(0, 1)])])
    assert main(["index", "sumnumber", "--in", str(infile)]) == 2


def test_python_dash_m_runs_the_cli(tmp_path):
    src = Path(sl.__file__).resolve().parent.parent
    infile = tmp_path / "k2.g6"
    _write_g6(infile, [sl.complete_graph(2)])
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "sumlab", "index", "sumnumber", "--in", str(infile)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0
    assert "sum_number = 1" in done.stdout
    done = subprocess.run([sys.executable, "-m", "sumlab", "nosuchcommand"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 2


def test_repository_certificates_match_regeneration(tmp_path):
    """The shipped certificate data files are exactly what the generators
    produce today."""
    repo = Path(__file__).resolve().parent.parent / "data" / "certificates"
    cases = [
        ("chained_cycles_k2_s3", ["family", "chained-cycles", "--k", "2", "--s", "3"]),
        ("subdivided_complete_n5", ["family", "subdivided-complete", "--n", "5"]),
        ("subdivided_complete_kk_n5_k2",
         ["family", "subdivided-complete-kk", "--n", "5", "--k", "2"]),
        ("gnk_n6_k4", ["family", "gnk", "--n", "6", "--k", "4"]),
    ]
    for stem, argv in cases:
        g6 = tmp_path / f"{stem}.g6"
        cert = tmp_path / f"{stem}.json"
        assert main(argv + ["--emit", str(g6), "--cert", str(cert)]) == 0
        assert g6.read_text() == (repo / f"{stem}.g6").read_text()
        assert cert.read_text() == (repo / f"{stem}.json").read_text()
