"""The run harness in `cli.main`: each command's declared files are
checked before the command runs, each input is read once through one
decoder, each output is written once, and the manifest hashes exactly the
bytes read and written."""

import argparse
import ast
import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from cimwalk import cli

SRC = Path(cli.__file__).resolve().parent

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


@pytest.mark.parametrize("command, flag", [("discover", "data"), ("score", "graph"),
                                           ("compare", "truth"),
                                           ("analyze-polytope", "skeleton")])
def test_an_out_hard_linked_to_an_input_is_rejected(tmp_path, capsys, command, flag):
    files = _input_files(tmp_path)
    out = tmp_path / "in" / "hard.json"
    os.link(files[flag], out)
    before = _snapshot(tmp_path)
    capsys.readouterr()
    assert cli.main(_argv(command, files, out)) == 2
    assert f"--out and --{flag} name the same file" in capsys.readouterr().err
    assert _snapshot(tmp_path) == before


@pytest.mark.parametrize("where", ["input", "output"])
def test_a_nul_byte_in_a_path_exits_2(tmp_path, capsys, where):
    files = _input_files(tmp_path)
    out = tmp_path / "out.json"
    argv = _argv("score", files, out)
    argv[argv.index("--data" if where == "input" else "--out") + 1] += "\0x"
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "embedded null byte" in err and "runtime error" not in err
    assert not out.exists()


# One JSON document that is both a result and its truth on two nodes
_BOTH = {"essential_graph": {"p": 2, "arcs": [], "edges": [[0, 1]], "text": ""},
         "p": 2, "arcs": [[0, 1]]}


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
@pytest.mark.parametrize("command", ["discover", "compare"])
def test_a_fifo_input_is_read_once_and_hashed(tmp_path, command):
    fifo, out = tmp_path / "in.fifo", tmp_path / "r.json"
    if command == "discover":
        raw = _input_files(tmp_path)["data"].read_bytes()
        argv = ["discover", "--algo", "greedy-cim", "--data", str(fifo)]
    else:  # one pipe named by two flags
        raw = json.dumps(_BOTH).encode()
        argv = ["compare", "--result", str(fifo), "--truth", str(fifo)]
    os.mkfifo(fifo)

    def feed():
        try:
            with open(fifo, "wb") as handle:
                handle.write(raw)
        except OSError:  # the reader went away
            pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    try:
        # A second read of the FIFO would wait for a writer that never comes.
        run = subprocess.run([sys.executable, "-m", "cimwalk.cli", *argv, "--out", str(out)],
                             capture_output=True, text=True, timeout=60, env=env)
    except subprocess.TimeoutExpired:
        pytest.fail(f"{command} on a FIFO input did not finish")
    finally:
        # Let a writer still waiting for a reader open the FIFO and fail.
        os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert run.returncode == 0, run.stderr
    manifest = json.loads((tmp_path / "r.json.manifest.json").read_text())
    assert manifest["input_hashes"] == {str(fifo): hashlib.sha256(raw).hexdigest()}


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_one_fifo_named_by_two_spellings_is_read_once(tmp_path):
    raw = json.dumps(_BOTH).encode()
    os.mkfifo(tmp_path / "x.fifo")

    def feed():
        try:
            with open(tmp_path / "x.fifo", "wb") as handle:
                handle.write(raw)
        except OSError:  # the reader went away
            pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    argv = ["compare", "--result", "x.fifo", "--truth", "./x.fifo", "--out", "r.json"]
    try:
        # A read per spelling would wait in the second open for a writer that never comes.
        run = subprocess.run([sys.executable, "-m", "cimwalk.cli", *argv], cwd=tmp_path,
                             capture_output=True, text=True, timeout=60, env=env)
    except subprocess.TimeoutExpired:
        pytest.fail("compare on one FIFO named twice did not finish")
    finally:
        os.close(os.open(tmp_path / "x.fifo", os.O_RDONLY | os.O_NONBLOCK))
        writer.join(timeout=10)
    assert run.returncode == 0, run.stderr
    assert json.loads((tmp_path / "r.json").read_text()) == {"recovered": True, "shd": 0}
    manifest = json.loads((tmp_path / "r.json.manifest.json").read_text())
    digest = hashlib.sha256(raw).hexdigest()
    assert manifest["input_hashes"] == {"x.fifo": digest, "./x.fifo": digest}


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_a_dev_fd_input_is_hashed_as_read(tmp_path):
    raw = _input_files(tmp_path)["data"].read_bytes()
    assert len(raw) < 4096  # fits the pipe buffer, so the write does not block
    out = tmp_path / "r.json"
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, raw)
        os.close(write_end)
        data = f"/dev/fd/{read_end}"
        assert cli.main(["discover", "--algo", "greedy-cim", "--data", data,
                         "--out", str(out)]) == 0
    finally:
        os.close(read_end)
    manifest = json.loads((tmp_path / "r.json.manifest.json").read_text())
    assert manifest["input_hashes"] == {data: hashlib.sha256(raw).hexdigest()}


_ENDINGS = {"crlf": lambda raw: raw.replace(b"\n", b"\r\n"),
            "cr": lambda raw: raw.replace(b"\n", b"\r"),
            "bom-crlf": lambda raw: b"\xef\xbb\xbf" + raw.replace(b"\n", b"\r\n")}


@pytest.mark.parametrize("ending", sorted(_ENDINGS))
@pytest.mark.parametrize("command, flag", _INPUTS)
def test_line_endings_change_no_output(tmp_path, command, flag, ending):
    files = _input_files(tmp_path)
    if flag == "result":  # spread the one-line JSON over several lines
        files[flag].write_text(json.dumps(json.loads(files[flag].read_text()), indent=2))
    raw = files[flag].read_bytes()
    assert b"\n" in raw
    plain, variant = tmp_path / "plain.json", tmp_path / "variant.json"
    assert cli.main(_argv(command, files, plain)) == 0
    files[flag].write_bytes(_ENDINGS[ending](raw))
    assert cli.main(_argv(command, files, variant)) == 0
    assert variant.read_bytes() == plain.read_bytes()


def test_only_the_one_reader_and_the_one_writer_open_files():
    """Every input goes through `scoring.read_input` and every output
    through `cli._write_text`, so each file is opened once per run."""
    calls = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name in ("open", "read_text", "read_bytes", "write_text",
                                "write_bytes"):
                        calls.add((path.stem, getattr(top, "name", None), name))
    assert calls == {("scoring", "read_input", "open"), ("cli", "_write_text", "open")}
