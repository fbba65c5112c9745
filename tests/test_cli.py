"""End-to-end CLI behavior: outputs, manifests, exit codes, reproducibility."""

import hashlib
import json

import numpy as np
import pytest

from cimwalk.cli import _mec_from_graph_json, main
from cimwalk.scoring import LocalScoreCache, load_csv, score_mec, stats_from_csv
from cimwalk.simulate import assign_weights, make_rng, random_dag, sample


def _run(*argv):
    return main(list(argv))


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _simulate(tmp_path, p=5, d=1.5, n=500, seed=7):
    data = tmp_path / "data.csv"
    truth = tmp_path / "truth.json"
    code = _run("simulate", "--p", str(p), "--d", str(d), "--n", str(n),
                "--seed", str(seed), "--out", str(data), "--truth", str(truth))
    assert code == 0
    return data, truth


def test_simulate_outputs_and_manifest(tmp_path):
    data, truth = _simulate(tmp_path, p=4, d=1.0, n=50, seed=3)
    rows = data.read_text().strip().split("\n")
    assert len(rows) == 50
    assert all(len(r.split(",")) == 4 for r in rows)

    truth_obj = json.loads(truth.read_text())
    assert truth_obj["p"] == 4
    for tail, head, weight in truth_obj["weights"]:
        assert [tail, head] in truth_obj["arcs"]
        assert 0.25 <= abs(weight) <= 1.0

    manifest = json.loads((tmp_path / "data.csv.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 3
    assert manifest["config"]["n"] == 50
    assert set(manifest["versions"]) == {"cimwalk", "python", "numpy"}
    assert manifest["output_hashes"][str(data)] == _sha256(data)
    assert manifest["output_hashes"][str(truth)] == _sha256(truth)
    assert manifest["wall_clock_seconds"] >= 0


def test_simulate_is_byte_reproducible(tmp_path):
    for name in ("a", "b", "c"):
        (tmp_path / name).mkdir()
    a_data, a_truth = _simulate(tmp_path / "a", p=5, d=2.0, n=80, seed=11)
    b_data, b_truth = _simulate(tmp_path / "b", p=5, d=2.0, n=80, seed=11)
    assert a_data.read_bytes() == b_data.read_bytes()
    assert a_truth.read_bytes() == b_truth.read_bytes()
    c_data, _ = _simulate(tmp_path / "c", p=5, d=2.0, n=80, seed=12)
    assert a_data.read_bytes() != c_data.read_bytes()


def test_simulate_validation_errors(tmp_path):
    out = str(tmp_path / "x.csv")
    truth = str(tmp_path / "x.json")
    assert _run("simulate", "--p", "0", "--d", "0", "--n", "5",
                "--out", out, "--truth", truth) == 2
    assert _run("simulate", "--p", "3", "--d", "9", "--n", "5",
                "--out", out, "--truth", truth) == 2
    assert _run("simulate", "--p", "3", "--d", "1", "--n", "0",
                "--out", out, "--truth", truth) == 2
    # argparse rejects the missing required flag with its own exit code
    assert _run("simulate", "--p", "3", "--d", "1") == 2
    assert _run("no-such-command") == 2


def test_simulate_rejects_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert _run("simulate", "--p", "3", "--d", "1", "--n", "5", "--seed", "-1",
                "--out", str(out), "--truth", str(tmp_path / "x.json")) == 2
    err = capsys.readouterr().err
    assert "--seed" in err and "runtime error" not in err
    assert not out.exists()


def _unwritable_argv(tmp_path, command):
    """argv for command with one output path that cannot be opened: a file in
    a missing directory, or for simulate's truth a directory."""
    data, truth = _simulate(tmp_path, p=3, d=1.0, n=50, seed=6)
    missing = str(tmp_path / "missing" / "out.json")
    graph = tmp_path / "graph.txt"
    graph.write_text("p 3\n0 -> 1\n")
    result = tmp_path / "result.json"
    result.write_text(json.dumps({"essential_graph": _graph(3, arcs=[[0, 1]])}))
    return {
        "simulate-out": ["simulate", "--p", "3", "--d", "1", "--n", "5",
                         "--out", missing, "--truth", str(tmp_path / "t.json")],
        "simulate-truth": ["simulate", "--p", "3", "--d", "1", "--n", "5",
                           "--out", str(tmp_path / "d.csv"), "--truth", str(tmp_path)],
        "discover": ["discover", "--algo", "greedy-cim", "--data", str(data),
                     "--out", missing],
        "score": ["score", "--data", str(data), "--graph", str(graph), "--out", missing],
        "analyze-polytope": ["analyze-polytope", "--p", "3", "--out", missing],
        "compare": ["compare", "--result", str(result), "--truth", str(truth),
                    "--out", missing],
    }[command]


@pytest.mark.parametrize("command", ["simulate-out", "simulate-truth", "discover",
                                     "score", "analyze-polytope", "compare"])
def test_unwritable_output_is_a_validation_error(tmp_path, capsys, command):
    argv = _unwritable_argv(tmp_path, command)
    capsys.readouterr()
    assert _run(*argv) == 2
    err = capsys.readouterr().err
    assert "cannot write" in err and "runtime error" not in err


@pytest.mark.parametrize("bad", ["truth-dir", "out-dir", "truth-missing-dir", "same-file"])
def test_a_failed_simulate_leaves_no_file_behind(tmp_path, capsys, bad):
    out, truth = tmp_path / "d.csv", tmp_path / "t.json"
    (tmp_path / "sub").mkdir()
    if bad == "truth-dir":
        truth = tmp_path / "sub"
    elif bad == "out-dir":
        out = tmp_path / "sub"
    elif bad == "truth-missing-dir":
        truth = tmp_path / "missing" / "t.json"
    else:
        truth = out
    assert _run("simulate", "--p", "3", "--d", "1", "--n", "5",
                "--out", str(out), "--truth", str(truth)) == 2
    assert "runtime error" not in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.rglob("*")) == ["sub"]


def test_discover_compare_roundtrip(tmp_path):
    data, truth = _simulate(tmp_path, p=5, d=1.5, n=800, seed=7)
    result = tmp_path / "result.json"
    assert _run("discover", "--algo", "greedy-cim", "--data", str(data),
                "--out", str(result)) == 0

    obj = json.loads(result.read_text())
    assert obj["algo"] == "greedy-cim"
    assert obj["p"] == 5
    assert isinstance(obj["score"], float)
    graph = obj["essential_graph"]
    assert set(graph) == {"p", "arcs", "edges", "text"}
    for step in obj["trace"]:
        assert step["score_after"] > step["score_before"]

    manifest = json.loads((tmp_path / "result.json.manifest.json").read_text())
    assert manifest["input_hashes"][str(data)] == _sha256(data)

    compare = tmp_path / "compare.json"
    assert _run("compare", "--result", str(result), "--truth", str(truth),
                "--out", str(compare)) == 0
    report = json.loads(compare.read_text())
    assert set(report) == {"shd", "recovered"}
    assert isinstance(report["shd"], int) and report["shd"] >= 0
    assert isinstance(report["recovered"], bool)
    if report["recovered"]:
        assert report["shd"] == 0


def test_compare_echoes_report(tmp_path, capsys):
    data, truth = _simulate(tmp_path, p=4, d=1.0, n=600, seed=2)
    result = tmp_path / "result.json"
    assert _run("discover", "--algo", "greedy-cim", "--data", str(data),
                "--out", str(result)) == 0
    assert _run("compare", "--result", str(result), "--truth", str(truth),
                "--out", str(tmp_path / "cmp.json")) == 0
    echoed = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert set(echoed) == {"shd", "recovered"}


def test_all_algorithms_run(tmp_path):
    data, _ = _simulate(tmp_path, p=4, d=1.0, n=400, seed=5)
    for algo in ("greedy-cim", "skeletal-greedy-cim", "recurrent-cim"):
        out = tmp_path / f"{algo}.json"
        assert _run("discover", "--algo", algo, "--data", str(data),
                    "--out", str(out)) == 0
        assert json.loads(out.read_text())["algo"] == algo


def test_discover_is_byte_reproducible(tmp_path):
    data, _ = _simulate(tmp_path, p=5, d=1.5, n=500, seed=9)
    first = tmp_path / "r1.json"
    second = tmp_path / "r2.json"
    for out in (first, second):
        assert _run("discover", "--algo", "greedy-cim", "--data", str(data),
                    "--strategy", "best-improvement", "--out", str(out)) == 0
    assert first.read_bytes() == second.read_bytes()


def test_discover_validation_errors(tmp_path):
    data, _ = _simulate(tmp_path, p=3, d=1.0, n=50, seed=1)
    assert _run("discover", "--algo", "greedy-cim",
                "--data", str(tmp_path / "absent.csv")) == 2
    assert _run("discover", "--algo", "made-up", "--data", str(data)) == 2
    assert _run("discover", "--algo", "greedy-cim", "--data", str(data),
                "--alpha", "2.0", "--out", str(tmp_path / "r.json")) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\n3.0\n")
    assert _run("discover", "--algo", "greedy-cim", "--data", str(bad),
                "--out", str(tmp_path / "r.json")) == 2


def test_discover_takes_no_seed(tmp_path):
    # the search is deterministic given the data, so there is no seed to set
    data, _ = _simulate(tmp_path, p=3, d=1.0, n=50, seed=1)
    out = tmp_path / "r.json"
    assert _run("discover", "--algo", "greedy-cim", "--data", str(data),
                "--seed", "1", "--out", str(out)) == 2
    assert not out.exists()
    assert _run("discover", "--algo", "greedy-cim", "--data", str(data),
                "--out", str(out)) == 0
    manifest = json.loads((tmp_path / "r.json.manifest.json").read_text())
    assert manifest["seed"] is None and "seed" not in manifest["config"]


def test_score_command(tmp_path):
    data, _ = _simulate(tmp_path, p=3, d=1.0, n=200, seed=4)
    graph = tmp_path / "graph.txt"
    graph.write_text("p 3\n0 -> 1\n1 -> 2\n")
    out = tmp_path / "score.json"
    assert _run("score", "--data", str(data), "--graph", str(graph),
                "--out", str(out)) == 0
    obj = json.loads(out.read_text())
    assert obj["p"] == 3 and isinstance(obj["score"], float)

    undirected = tmp_path / "und.txt"
    undirected.write_text("p 3\n0 -- 1\n")
    assert _run("score", "--data", str(data), "--graph", str(undirected),
                "--out", str(out)) == 2
    small = tmp_path / "small.txt"
    small.write_text("p 2\n0 -> 1\n")
    assert _run("score", "--data", str(data), "--graph", str(small),
                "--out", str(out)) == 2


def test_analyze_polytope_full(tmp_path):
    out = tmp_path / "census.json"
    assert _run("analyze-polytope", "--p", "3", "--threads", "1",
                "--out", str(out)) == 0
    census = json.loads(out.read_text())
    assert census["vertices"] == 11
    assert census["total_edges"] == 33
    assert census["turn_pairs"] == 3
    assert census["edge_pairs"] == 21
    assert census["moves_not_certified"] == []


def test_analyze_polytope_skeleton(tmp_path):
    skel = tmp_path / "skel.txt"
    skel.write_text("p 3\n0 -- 1\n1 -- 2\n")
    out = tmp_path / "census.json"
    assert _run("analyze-polytope", "--skeleton", str(skel), "--threads", "1",
                "--out", str(out)) == 0
    census = json.loads(out.read_text())
    assert census["vertices"] == 2
    assert census["total_edges"] == 1
    assert census["v_structure_additions"] == 1
    assert census["same_skeleton_edges"] == 1


def test_analyze_polytope_validation(tmp_path):
    out = str(tmp_path / "census.json")
    assert _run("analyze-polytope", "--out", out) == 2
    assert _run("analyze-polytope", "--p", "3", "--skeleton", "x", "--out", out) == 2
    assert _run("analyze-polytope", "--p", "7", "--out", out) == 2
    directed = tmp_path / "dir.txt"
    directed.write_text("p 3\n0 -> 1\n")
    assert _run("analyze-polytope", "--skeleton", str(directed), "--out", out) == 2


@pytest.mark.parametrize("header", ["p 1 x", "p 3 3", "p", "p3", "q 3"])
def test_analyze_polytope_rejects_a_header_that_is_not_p_n(tmp_path, capsys, header):
    skel = tmp_path / "skel.txt"
    skel.write_text(f"{header}\n")
    out = tmp_path / "census.json"
    assert _run("analyze-polytope", "--skeleton", str(skel), "--out", str(out)) == 2
    assert "first line must be 'p <n>'" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_polytope_rejects_p5_with_its_size(tmp_path, capsys):
    out = tmp_path / "census.json"
    assert _run("analyze-polytope", "--p", "5", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "8,782 vertices" in err and "38,557,371 vertex pairs" in err
    assert "--skeleton" in err
    assert not out.exists()


def test_compare_validation(tmp_path):
    data, truth = _simulate(tmp_path, p=3, d=1.0, n=50, seed=6)
    result = tmp_path / "result.json"
    assert _run("discover", "--algo", "greedy-cim", "--data", str(data),
                "--out", str(result)) == 0

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert _run("compare", "--result", str(broken), "--truth", str(truth),
                "--out", str(tmp_path / "c.json")) == 2

    hollow = tmp_path / "hollow.json"
    hollow.write_text(json.dumps({"algo": "greedy-cim"}))
    assert _run("compare", "--result", str(hollow), "--truth", str(truth),
                "--out", str(tmp_path / "c.json")) == 2

    bad_truth = tmp_path / "bad_truth.json"
    bad_truth.write_text(json.dumps({"p": 3, "arcs": [[0, 1], [1, 0]]}))
    assert _run("compare", "--result", str(result), "--truth", str(bad_truth),
                "--out", str(tmp_path / "c.json")) == 2


def _graph(p, arcs=(), edges=()):
    return {"p": p, "arcs": [list(a) for a in arcs],
            "edges": [list(e) for e in edges], "text": ""}


@pytest.mark.parametrize("graph", [
    _graph(3, arcs=[[0, 1, 2]]),
    _graph(3, arcs=[["a", 1]]),
    _graph(3, arcs=[[0, 5]]),
    _graph(3, arcs=[[True, 1]]),
    _graph(3, arcs=[[0.0, 1]]),
    _graph(3, edges=[[1]]),
    _graph(3, edges=[[-1, 2]]),
    _graph(3, edges="0 -- 1"),
    _graph(True),
    _graph("3"),
    [0, 1],
    _graph(3, arcs=[[0, 1], [1, 2], [2, 0]]),
], ids=["triple", "string-node", "out-of-range", "bool-node", "float-node",
        "single-node", "negative-node", "edges-not-a-list", "bool-p", "string-p",
        "not-an-object", "cyclic-arcs"])
def test_compare_rejects_malformed_result_graph(tmp_path, capsys, graph):
    _, truth = _simulate(tmp_path, p=3, d=1.0, n=50, seed=6)
    result = tmp_path / "result.json"
    result.write_text(json.dumps({"essential_graph": graph}))
    assert _run("compare", "--result", str(result), "--truth", str(truth),
                "--out", str(tmp_path / "c.json")) == 2
    assert "runtime error" not in capsys.readouterr().err


@pytest.mark.parametrize("truth", [
    {"p": 3, "arcs": [[0, 1, 5]]},
    {"p": 3, "arcs": [["0", 1]]},
    {"p": 3, "arcs": [[0, 3]]},
    {"p": 3, "arcs": {"0": 1}},
    {"p": "3", "arcs": []},
    {"p": False, "arcs": []},
    "p 3",
], ids=["triple", "string-node", "out-of-range", "arcs-not-a-list", "string-p",
        "bool-p", "not-an-object"])
def test_compare_rejects_malformed_truth(tmp_path, capsys, truth):
    result = tmp_path / "result.json"
    result.write_text(json.dumps({"essential_graph": _graph(3, arcs=[[0, 1]])}))
    truth_path = tmp_path / "truth.json"
    truth_path.write_text(json.dumps(truth))
    assert _run("compare", "--result", str(result), "--truth", str(truth_path),
                "--out", str(tmp_path / "c.json")) == 2
    assert "runtime error" not in capsys.readouterr().err


def test_compare_accepts_hand_written_graphs(tmp_path):
    result = tmp_path / "result.json"
    result.write_text(json.dumps({"essential_graph": _graph(3, arcs=[[0, 1], [2, 1]])}))
    truth = tmp_path / "truth.json"
    truth.write_text(json.dumps({"p": 3, "arcs": [[0, 1], [2, 1]]}))
    out = tmp_path / "c.json"
    assert _run("compare", "--result", str(result), "--truth", str(truth),
                "--out", str(out)) == 0
    assert json.loads(out.read_text()) == {"shd": 0, "recovered": True}


@pytest.mark.parametrize("threads", ["0", "-1", "-64"])
def test_analyze_polytope_rejects_non_positive_threads(tmp_path, capsys, threads):
    out = tmp_path / "census.json"
    assert _run("analyze-polytope", "--p", "3", "--threads", threads,
                "--out", str(out)) == 2
    assert "--threads must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_polytope_threads_are_recorded_and_change_no_byte(tmp_path):
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"census-{threads}.json"
        assert _run("analyze-polytope", "--p", "4", "--threads", threads,
                    "--out", str(out)) == 0
        manifest = json.loads((tmp_path / f"census-{threads}.json.manifest.json").read_text())
        assert manifest["config"]["threads"] == int(threads)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_version_flag():
    assert _run("--version") == 0


def test_simulate_csv_round_trips_bit_exactly(tmp_path):
    data_path, _ = _simulate(tmp_path, p=6, d=2.0, n=300, seed=21)
    rng = make_rng(21)
    model = assign_weights(random_dag(6, 2.0, rng), rng)
    data, _ = sample(model, 300, rng)
    assert load_csv(data_path).tobytes() == data.tobytes()


@pytest.mark.parametrize("algo", ["greedy-cim", "skeletal-greedy-cim"])
def test_discover_rejects_non_finite_input(tmp_path, capsys, algo):
    data, _ = _simulate(tmp_path, p=5, d=1.5, n=200, seed=7)
    rows = data.read_text().split("\n")
    cells = rows[41].split(",")
    cells[3] = "nan"
    rows[41] = ",".join(cells)
    data.write_text("\n".join(rows))
    out = tmp_path / "r.json"
    assert _run("discover", "--algo", algo, "--data", str(data),
                "--out", str(out)) == 2
    assert "non-finite value nan at line 42, column 4" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("algo", ["greedy-cim", "skeletal-greedy-cim",
                                  "recurrent-cim"])
def test_degenerate_data_is_rejected_before_any_search(tmp_path, capsys, algo):
    rng = np.random.default_rng(4)
    short = tmp_path / "short.csv"
    np.savetxt(short, rng.standard_normal((6, 8)), delimiter=",")
    collinear = tmp_path / "collinear.csv"
    columns = rng.standard_normal((300, 5))
    columns[:, 4] = columns[:, 1] - 0.5 * columns[:, 3]
    np.savetxt(collinear, columns, delimiter=",")
    for path, named in ((short, "columns [5, 6, 7]"), (collinear, "columns [4]")):
        out = tmp_path / "r.json"
        assert _run("discover", "--algo", algo, "--data", str(path),
                    "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "rank deficient" in err and named in err
        assert not out.exists()


def _assert_discovers_a_realizable_class(data, algo, p):
    out = data.parent / f"{algo}.json"
    assert _run("discover", "--algo", algo, "--data", str(data),
                "--out", str(out)) == 0
    result = json.loads(out.read_text())
    assert result["p"] == p and result["trace"]
    mec = _mec_from_graph_json(result["essential_graph"])  # realizable or raises
    stats = stats_from_csv(str(data))
    assert result["score"] == score_mec(mec, stats, LocalScoreCache(stats))


@pytest.mark.parametrize("algo", ["greedy-cim", "skeletal-greedy-cim",
                                  "recurrent-cim"])
def test_discover_runs_past_sixteen_columns(tmp_path, algo):
    data, _ = _simulate(tmp_path, p=18, d=2.0, n=200, seed=3)
    _assert_discovers_a_realizable_class(data, algo, 18)


def test_skeletal_discover_runs_at_fifty_columns(tmp_path):
    data, _ = _simulate(tmp_path, p=50, d=2.0, n=2000, seed=3)
    _assert_discovers_a_realizable_class(data, "skeletal-greedy-cim", 50)


def test_analyze_polytope_manifest_records_stage_seconds(tmp_path):
    out = tmp_path / "census.json"
    assert _run("analyze-polytope", "--p", "3", "--threads", "1",
                "--out", str(out)) == 0
    manifest = json.loads((tmp_path / "census.json.manifest.json").read_text())
    stages = manifest["stage_seconds"]
    assert set(stages) == {"enumerate", "prefilter", "certify", "classify"}
    assert all(t >= 0 for t in stages.values())
    assert "seconds" not in out.read_text()
