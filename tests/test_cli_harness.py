"""The run harness in `cli.main`: each command's declared files are read
through one decoder, checked before the command runs, and recorded by one
manifest writer."""

import argparse
import json

import pytest

from cimwalk import cli

# argv of each command that reads files, with {name} for each input file
_ARGV = {
    "discover": ["discover", "--algo", "greedy-cim", "--data", "{data}"],
    "score": ["score", "--data", "{data}", "--graph", "{graph}"],
    "analyze-polytope": ["analyze-polytope", "--skeleton", "{skeleton}"],
    "compare": ["compare", "--result", "{result}", "--truth", "{truth}"],
}
_INPUTS = [("discover", "data"), ("score", "data"), ("score", "graph"),
           ("analyze-polytope", "skeleton"), ("compare", "result"),
           ("compare", "truth")]


def _input_files(tmp_path):
    """One valid input file of each kind, all on three nodes."""
    folder = tmp_path / "in"
    folder.mkdir()
    data, truth = folder / "data.csv", folder / "truth.json"
    assert cli.main(["simulate", "--p", "3", "--d", "1", "--n", "50", "--seed", "6",
                     "--out", str(data), "--truth", str(truth)]) == 0
    files = {"data": data, "truth": truth, "graph": folder / "graph.txt",
             "skeleton": folder / "skeleton.txt", "result": folder / "result.json"}
    files["graph"].write_text("p 3\n0 -> 1\n")
    files["skeleton"].write_text("p 3\n0 -- 1\n1 -- 2\n")
    essential = {"p": 3, "arcs": [[0, 1], [2, 1]], "edges": [], "text": ""}
    files["result"].write_text(json.dumps({"essential_graph": essential}))
    return files


def _argv(command, files, out):
    return [arg.format(**{k: str(v) for k, v in files.items()})
            for arg in _ARGV[command]] + ["--out", str(out)]


def _snapshot(folder):
    return {path: path.read_bytes() for path in folder.rglob("*") if path.is_file()}


@pytest.mark.parametrize("command, flag", _INPUTS)
def test_an_input_that_is_not_utf8_exits_2_and_writes_nothing(tmp_path, capsys,
                                                                command, flag):
    files = _input_files(tmp_path)
    files[flag].write_bytes(b"\xff\xfe p 3\n\xff")
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert cli.main(_argv(command, files, out)) == 2
    err = capsys.readouterr().err
    assert f"cannot read {files[flag]}" in err and "runtime error" not in err
    assert not out.exists() and not (tmp_path / "out.json.manifest.json").exists()


@pytest.mark.parametrize("command, flag", _INPUTS)
def test_a_byte_order_mark_changes_no_output(tmp_path, command, flag):
    files = _input_files(tmp_path)
    plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
    assert cli.main(_argv(command, files, plain)) == 0
    files[flag].write_bytes(b"\xef\xbb\xbf" + files[flag].read_bytes())
    assert cli.main(_argv(command, files, marked)) == 0
    assert marked.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize("command, flag", [("discover", "data"), ("score", "graph"),
                                           ("compare", "truth"),
                                           ("analyze-polytope", "skeleton")])
@pytest.mark.parametrize("clash", ["out", "manifest"])
def test_an_output_that_names_an_input_is_rejected_before_any_work(
        tmp_path, capsys, command, flag, clash):
    files = _input_files(tmp_path)
    if clash == "out":
        out = files[flag]
    else:
        out = tmp_path / "in" / "out.json"
        files[flag] = files[flag].rename(tmp_path / "in" / "out.json.manifest.json")
    before = _snapshot(tmp_path)
    capsys.readouterr()
    assert cli.main(_argv(command, files, out)) == 2
    assert "name the same file" in capsys.readouterr().err
    assert _snapshot(tmp_path) == before


def test_an_unwritable_discover_out_is_rejected_before_the_search(tmp_path, capsys,
                                                                  monkeypatch):
    files = _input_files(tmp_path)

    def search(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(cli, "greedy_cim", search)
    out = tmp_path / "missing" / "r.json"
    capsys.readouterr()
    assert cli.main(_argv("discover", files, out)) == 2
    assert f"cannot write {out}: no such directory" in capsys.readouterr().err


_MANIFESTS = {
    "simulate": ({"p", "d", "n", "seed", "out", "truth"}, 6),
    "discover": ({"algo", "data", "alpha", "strategy", "subset_cap", "tree_moves",
                  "out"}, None),
    "score": ({"data", "graph", "out"}, None),
    "analyze-polytope": ({"p", "skeleton", "threads", "out"}, None),
    "compare": ({"result", "truth", "out"}, None),
}


@pytest.mark.parametrize("command", sorted(_MANIFESTS))
def test_each_manifest_records_the_command_config_seed_and_files(tmp_path, command):
    files = _input_files(tmp_path)
    if command == "simulate":
        out, truth = tmp_path / "d.csv", tmp_path / "t.json"
        argv = ["simulate", "--p", "3", "--d", "1", "--n", "5", "--seed", "6",
                "--out", str(out), "--truth", str(truth)]
        reads, writes = [], [out, truth]
    else:
        out = tmp_path / "out.json"
        argv = _argv(command, files, out)
        reads = [files[flag] for name, flag in _INPUTS if name == command]
        writes = [out]
    assert cli.main(argv) == 0
    manifest = json.loads((tmp_path / f"{out.name}.manifest.json").read_text())
    keys, seed = _MANIFESTS[command]
    assert manifest["command"] == command
    assert set(manifest["config"]) == keys and manifest["seed"] == seed
    assert set(manifest["input_hashes"]) == {str(path) for path in reads}
    assert set(manifest["output_hashes"]) == {str(path) for path in writes}


def test_every_command_declares_its_files_among_its_own_flags():
    (commands,) = [action for action in cli._build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    assert set(commands.choices) == set(_MANIFESTS)
    for name, parser in commands.choices.items():
        flags = {flag for action in parser._actions for flag in action.option_strings}
        reads, writes = parser.get_default("reads"), parser.get_default("writes")
        assert reads is not None and writes, name
        assert {f"--{dest}" for dest in (*reads, *writes)} <= flags, name
        assert not set(reads) & set(writes), name


def test_discover_help_names_the_ignored_flags(capsys):
    assert cli.main(["discover", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "ignored by greedy-cim and recurrent-cim" in text  # --alpha
    assert "ignored by recurrent-cim, which always takes the best improvement" in text
