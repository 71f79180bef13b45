"""Command line behavior: exit codes, output, and file handling.

Commands run in-process through main(argv) so stdout/stderr and exit
codes can be asserted cheaply. One test runs the `stmrnav` entry point
declared in pyproject.toml in a subprocess, the way a generated
console-script launcher does, so the packaging target is proven to resolve
from a source checkout; when an installed `stmrnav` is on PATH it runs that
executable as well.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import requests
from hypothesis import example, given, settings
from hypothesis import strategies as st

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    import tomli as tomllib

from stmrnav import evaluation, planner
from stmrnav.cli import (
    _CONFIG_KEYS,
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    _ascii_map,
    _pgm_map,
    main,
)
from stmrnav.mapping import TopDownMap, map_snapshot, parse_snapshot
from stmrnav.planner import STOP_RESPONSE
from reference_dump_map import (
    ascii_map_reference,
    parse_snapshot_reference,
    pgm_map_reference,
)

SCENE_TEXT = """\
stmr-scene v1
cell_size 5
legend 1 road
legend 2 building
legend 4 grass
under_label 1

height 4 4
0 12 0 0
0 12 0 0
0 12 0 0
0 12 0 0
label 4 4
4 2 1 4
4 2 1 4
4 2 1 4
4 2 1 4
clearance 4 4
0 0 0 0
0 0 0 0
0 0 0 0
0 0 0 0
"""

EP_TMPL = """\
stmr-episode v1
id {eid}
instruction head to the road, then stop.
start 2.5 2.5 10.0 0.0 0.0 0.0
goal {gx} {gy} {gz}
max_actions 4
path 2.5 2.5 10.0 0.0 0.0 0.0
path 2.5 7.5 10.0 0.0 0.0 0.0
"""

# A UTF-16 byte-order mark, a NUL, then "bad": not decodable as UTF-8.
NOT_UTF8 = bytes.fromhex("fffe00626164")


# (file, good line, bad line, field named in the error): each bad line
# must fail at the parser, not as a ValueError from deep inside the run.
BAD_NUMBERS = [
    ("scene", "cell_size 5", "cell_size abc", "cell_size"),
    ("scene", "legend 1 road", "legend x road", "legend"),
    ("scene", "height 4 4", "height a 4", "height"),
    ("scene", "under_label 1", "under_label q", "under_label"),
    ("scene", "4 2 1 4", "4 2 1 999999999999999999999", "label"),
    ("scene", "legend 1 road", "legend 9223372036854775808 road", "legend"),
    ("scene", "under_label 1", "under_label -9223372036854775809",
     "under_label"),
    ("episode", "goal 12.5 12.5 5.0", "goal 12.5 abc 5.0", "goal"),
    ("episode", "goal 12.5 12.5 5.0", "goal 12.5 nan 5.0", "goal"),
    ("episode", "max_actions 4", "max_actions ten", "max_actions"),
]
BAD_NUMBER_IDS = [bad for _, _, bad, _ in BAD_NUMBERS]


def spoil(data_dir, which, good, bad):
    """Swap ``good`` for ``bad`` in the scene or ep_a's episode file; return
    the file and the number of the spoiled line."""
    path = (data_dir / "riverside.scene" if which == "scene"
            else data_dir / "eps" / "ep_a.episode")
    lines = path.read_text(encoding="utf-8").split("\n")
    line = lines.index(good)
    lines[line] = bad
    path.write_text("\n".join(lines), encoding="utf-8")
    return path, line + 1


def write_episode(path, eid, gx=12.5, gy=12.5, gz=5.0):
    path.write_text(EP_TMPL.format(eid=eid, gx=gx, gy=gy, gz=gz),
                    encoding="utf-8")
    return path


@pytest.fixture()
def data_dir(tmp_path):
    (tmp_path / "riverside.scene").write_text(SCENE_TEXT, encoding="utf-8")
    eps = tmp_path / "eps"
    eps.mkdir()
    write_episode(eps / "ep_a.episode", "ep_a")
    write_episode(eps / "ep_b.episode", "ep_b")
    return tmp_path


def run_cli(*argv):
    return main(list(argv))


class TestRun:
    def test_echo_suite_prints_a_summary_and_writes_traces(self, data_dir,
                                                           capsys):
        out = data_dir / "out"
        code = run_cli("run", "--scene", str(data_dir / "riverside.scene"),
                       "--episodes", str(data_dir / "eps" / "*.episode"),
                       "--backend", "echo", "--out", str(out))
        captured = capsys.readouterr()
        assert code == EXIT_OK
        lines = captured.out.splitlines()
        assert lines[0] == "episodes      NE/m      SR/%     OSR/%"
        assert lines[1].split()[0] == "2"
        assert f"traces and results written to {out}" in captured.out
        assert (out / "results.csv").is_file()
        assert (out / "summary.txt").is_file()
        assert (out / "ep_a" / "step_0" / "prompt.txt").is_file()
        assert (out / "ep_b" / "step_0" / "matrix.txt").is_file()

    def test_crashing_episode_exits_1_and_names_it(self, data_dir, capsys,
                                                   monkeypatch):
        real_query = evaluation.query
        calls = []

        def query(backend, bundle):
            calls.append(backend)
            if calls[0] is not backend:
                raise RuntimeError("bug in a stage")
            return real_query(backend, bundle)

        monkeypatch.setattr(evaluation, "query", query)
        out = data_dir / "out"
        code = run_cli("run", "--scene", str(data_dir / "riverside.scene"),
                       "--episodes", str(data_dir / "eps" / "*.episode"),
                       "--backend", "echo", "--out", str(out))
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert "RuntimeError: bug in a stage" in err
        assert "raised in episode ep_b; 1 of 2 episodes finished" in err
        assert f"finished episodes written to {out}" in err
        assert sorted(p.name for p in out.iterdir()) == [
            "ep_a", "results.csv", "summary.txt"]

    def test_missing_scene_is_a_data_error(self, data_dir, capsys):
        code = run_cli("run", "--scene", str(data_dir / "nope.scene"),
                       "--episodes",
                       str(data_dir / "eps" / "ep_a.episode"))
        assert code == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("which, good, bad, field", BAD_NUMBERS,
                             ids=BAD_NUMBER_IDS)
    def test_bad_number_is_a_data_error(self, data_dir, capsys, which, good,
                                        bad, field):
        _, line = spoil(data_dir, which, good, bad)
        out = data_dir / "out"
        code = run_cli("run", "--scene", str(data_dir / "riverside.scene"),
                       "--episodes", str(data_dir / "eps" / "ep_a.episode"),
                       "--backend", "echo", "--out", str(out))
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.startswith(f"data error: line {line}: field '{field}': ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("eid", ["../esc", "results.csv"])
    def test_unsafe_episode_id_is_a_data_error(self, data_dir, capsys, eid):
        write_episode(data_dir / "eps" / "ep_a.episode", eid)
        out = data_dir / "out"
        code = run_cli("run", "--scene", str(data_dir / "riverside.scene"),
                       "--episodes", str(data_dir / "eps" / "*.episode"),
                       "--backend", "echo", "--out", str(out))
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.startswith("data error: line 2: field 'id': ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists() and not (data_dir / "esc").exists()

    def test_repeated_episode_id_is_a_data_error(self, data_dir, capsys):
        eps = data_dir / "eps"
        write_episode(eps / "ep_b.episode", "ep_a")
        out = data_dir / "out"
        code = run_cli("run", "--scene", str(data_dir / "riverside.scene"),
                       "--episodes", str(eps / "*.episode"),
                       "--backend", "echo", "--out", str(out))
        assert code == EXIT_DATA
        assert capsys.readouterr().err == (
            f"data error: {eps / 'ep_b.episode'}: id 'ep_a' is already "
            f"used by {eps / 'ep_a.episode'}\n")
        assert not out.exists()

    def test_unmatched_episode_glob_is_a_data_error(self, data_dir,
                                                    capsys):
        code = run_cli("run", "--scene", str(data_dir / "riverside.scene"),
                       "--episodes", str(data_dir / "eps" / "z*.episode"))
        assert code == EXIT_DATA

    def test_unknown_backend_is_a_usage_error(self, data_dir, capsys):
        code = run_cli("run", "--scene", str(data_dir / "riverside.scene"),
                       "--episodes",
                       str(data_dir / "eps" / "ep_a.episode"),
                       "--backend", "ouija")
        assert code == EXIT_USAGE
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("option, spec, code, prefix", [
        ("--backend", "scripted:{data}/no/such.txt", EXIT_DATA,
         "data error: "),
        ("--backend", "remote:notaurl", EXIT_USAGE, "configuration error: "),
        ("--backend", "remote:ftp://localhost/v1", EXIT_USAGE,
         "configuration error: "),
        ("--perceptor", "degraded:1.5:0", EXIT_USAGE,
         "configuration error: "),
        ("--perceptor", "degraded:nan:0", EXIT_USAGE,
         "configuration error: "),
        ("--perceptor", "degradedfoo:0.5:1", EXIT_USAGE,
         "configuration error: "),
        ("--backend", "echo:junk", EXIT_USAGE, "configuration error: "),
        ("--backend", "random:junk", EXIT_USAGE, "configuration error: "),
    ])
    def test_bad_spec_fails_before_the_run(self, data_dir, capsys, option,
                                           spec, code, prefix):
        out = data_dir / "out"
        got = run_cli("run", "--scene", str(data_dir / "riverside.scene"),
                      "--episodes", str(data_dir / "eps" / "ep_a.episode"),
                      option, spec.format(data=data_dir), "--out", str(out))
        err = capsys.readouterr().err
        assert got == code
        assert err.startswith(prefix)
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ("--matrix-size", "100000"),
        ("--matrix-size", "1" + "0" * 30),
        ("--r", "1e308"),
        ("--matrix-size", "1026"),
        ("--matrix-size", "4", "--r", "1285"),
        ("--config", "{data}/huge.json"),
    ])
    def test_window_beyond_the_cap_is_a_usage_error(self, data_dir, capsys,
                                                    flags):
        # The scene is missing, so a window that passed the check would
        # stop at the scene as a data error, before any allocation.
        (data_dir / "huge.json").write_text(
            json.dumps({"matrix_size": 10**30}), encoding="utf-8")
        code = run_cli("run", "--scene", str(data_dir / "missing.scene"),
                       "--episodes", str(data_dir / "eps" / "ep_a.episode"),
                       *(flag.format(data=data_dir) for flag in flags))
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("configuration error: ")
        assert f"at most {evaluation.MAX_WINDOW_CELLS} cells" in err

    def test_out_of_range_tau_is_a_usage_error(self, data_dir, capsys):
        code = run_cli("run", "--scene", str(data_dir / "riverside.scene"),
                       "--episodes",
                       str(data_dir / "eps" / "ep_a.episode"),
                       "--tau", "2.0")
        assert code == EXIT_USAGE

    def test_nonpositive_parallel_is_a_usage_error(self, data_dir):
        code = run_cli("run", "--scene", str(data_dir / "riverside.scene"),
                       "--episodes",
                       str(data_dir / "eps" / "ep_a.episode"),
                       "--parallel", "0")
        assert code == EXIT_USAGE

    def test_config_file_keys_take_effect(self, data_dir, capsys):
        config = data_dir / "loop.json"
        config.write_text(json.dumps({"max_actions": 1}), encoding="utf-8")
        out = data_dir / "out"
        code = run_cli("run", "--scene", str(data_dir / "riverside.scene"),
                       "--episodes",
                       str(data_dir / "eps" / "ep_a.episode"),
                       "--backend", "random", "--config", str(config),
                       "--out", str(out))
        assert code == EXIT_OK
        assert (out / "ep_a" / "step_0").is_dir()
        assert not (out / "ep_a" / "step_1").exists()

    def test_unknown_config_key_is_a_usage_error(self, data_dir, capsys):
        config = data_dir / "loop.json"
        config.write_text(json.dumps({"banana": 1}), encoding="utf-8")
        code = run_cli("run", "--scene", str(data_dir / "riverside.scene"),
                       "--episodes",
                       str(data_dir / "eps" / "ep_a.episode"),
                       "--config", str(config))
        assert code == EXIT_USAGE
        assert "unknown config keys: banana" in capsys.readouterr().err

    def test_template_config_key_takes_effect(self, data_dir, capsys):
        config = data_dir / "loop.json"
        config.write_text(json.dumps({
            "template": "custom prompt: {instruction}", "max_actions": 1}),
            encoding="utf-8")
        out = data_dir / "out"
        code = run_cli("run", "--scene", str(data_dir / "riverside.scene"),
                       "--episodes",
                       str(data_dir / "eps" / "ep_a.episode"),
                       "--backend", "random", "--config", str(config),
                       "--out", str(out))
        assert code == EXIT_OK
        prompt = (out / "ep_a" / "step_0" / "prompt.txt").read_text(
            encoding="utf-8")
        assert prompt.startswith(
            "custom prompt: head to the road, then stop.")

    def test_unknown_template_placeholder_is_a_usage_error(self, data_dir,
                                                          capsys):
        config = data_dir / "loop.json"
        config.write_text(json.dumps({
            "template": "go {nowhere}", "max_actions": 1}), encoding="utf-8")
        out = data_dir / "out"
        code = run_cli("run", "--scene", str(data_dir / "riverside.scene"),
                       "--episodes",
                       str(data_dir / "eps" / "ep_a.episode"),
                       "--backend", "echo", "--config", str(config),
                       "--out", str(out))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "configuration error: bad template placeholder: 'nowhere'\n")
        assert not out.exists()

    @pytest.mark.parametrize("values", [
        {"matrix_size": 20.0},
        {"matrix_size": True},
        {"max_actions": True},
        {"tau": "0.8"},
        {"max_actions": 3.0},
        {"mount": None},
        {"template": 7},
        {"r": float("inf")},
    ])
    def test_mistyped_config_value_is_a_usage_error(self, data_dir, capsys,
                                                    values):
        config = data_dir / "loop.json"
        config.write_text(json.dumps(values), encoding="utf-8")
        code = run_cli("run", "--scene", str(data_dir / "riverside.scene"),
                       "--episodes",
                       str(data_dir / "eps" / "ep_a.episode"),
                       "--backend", "random", "--config", str(config))
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("configuration error: ")
        assert "Traceback" not in err

    def test_non_object_config_is_a_usage_error(self, data_dir, capsys):
        config = data_dir / "loop.json"
        config.write_text("[1, 2]", encoding="utf-8")
        code = run_cli("run", "--scene", str(data_dir / "riverside.scene"),
                       "--episodes",
                       str(data_dir / "eps" / "ep_a.episode"),
                       "--config", str(config))
        assert code == EXIT_USAGE

    def test_missing_config_file_is_a_data_error(self, data_dir, capsys):
        code = run_cli("run", "--scene", str(data_dir / "riverside.scene"),
                       "--episodes",
                       str(data_dir / "eps" / "ep_a.episode"),
                       "--config", str(data_dir / "ghost.json"))
        assert code == EXIT_DATA
        assert "cannot read config" in capsys.readouterr().err

    @pytest.mark.parametrize("bad, prefix", [
        ("scene", "data error: "),
        ("episode", "data error: "),
        ("script", "data error: "),
        ("config", "cannot read config: "),
    ], ids=["scene", "episode", "script", "config"])
    def test_file_that_is_not_utf8_is_a_data_error(self, data_dir, capsys,
                                                   bad, prefix):
        paths = {"scene": data_dir / "riverside.scene",
                 "episode": data_dir / "eps" / "ep_a.episode",
                 "script": data_dir / "script.txt",
                 "config": data_dir / "loop.json"}
        paths["script"].write_text(STOP_RESPONSE,
                                   encoding="utf-8")
        paths["config"].write_text("{}", encoding="utf-8")
        paths[bad].write_bytes(NOT_UTF8)
        out = data_dir / "out"
        code = run_cli("run", "--scene", str(paths["scene"]),
                       "--episodes", str(paths["episode"]),
                       "--backend", f"scripted:{paths['script']}",
                       "--config", str(paths["config"]), "--out", str(out))
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.startswith(prefix)
        assert "not valid UTF-8" in err and str(paths[bad]) in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("reply, note", [
        ("Plan:\n" + "9" * 5000 + ". (Completed) head to the road\n"
         "1. (In Process) head to the road\n"
         "Action: (straight), (0 degrees), (5 meters)",
         "model echoed 1 plan items, ledger has 2"),
        ("Action: (straight), (0 degrees), (" + "9" * 400 + " meters)",
         "clamped distance inf -> 10"),
        (None, "malformed completion payload"),
    ], ids=["plan-item-of-5000-digits", "distance-of-400-digits",
            "null-content"])
    def test_a_bad_model_reply_loses_no_episode(self, data_dir, capsys,
                                                monkeypatch, reply, note):
        if reply is None:
            # what a chat-completions server sends for a refusal
            null = requests.Response()
            null.status_code = 200
            null._content = json.dumps(
                {"choices": [{"message": {"content": None}}]}).encode()
            monkeypatch.setattr(requests, "post", lambda *a, **k: null)
            backend = "remote:http://localhost:1/v1"
        else:
            (data_dir / "reply.txt").write_text(reply, encoding="utf-8")
            backend = f"scripted:{data_dir / 'reply.txt'}"
        out = data_dir / "out"
        code = run_cli("run", "--scene", str(data_dir / "riverside.scene"),
                       "--episodes", str(data_dir / "eps" / "ep_a.episode"),
                       "--backend", backend, "--out", str(out),
                       "--max-actions", "1")
        err = capsys.readouterr().err
        assert code == EXIT_OK
        assert "Traceback" not in err
        notes = (out / "ep_a" / "step_0" / "notes.txt").read_text(
            encoding="utf-8")
        assert note in notes

    @pytest.mark.parametrize("script", [NOT_UTF8, None],
                             ids=["not-utf8", "missing"])
    def test_unreadable_per_episode_script_fails_the_run(self, data_dir,
                                                         capsys, script):
        scripts = data_dir / "scripts"
        scripts.mkdir()
        if script is not None:
            (scripts / "ep_a.txt").write_bytes(script)
        code = run_cli("run", "--scene", str(data_dir / "riverside.scene"),
                       "--episodes", str(data_dir / "eps" / "ep_a.episode"),
                       "--backend", f"scripted:{scripts}")
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.startswith("run failed: ")
        assert str(scripts / "ep_a.txt") in err
        assert err.count("\n") == 1 and "Traceback" not in err


    def test_out_that_cannot_be_a_directory_fails_before_any_episode(
            self, data_dir, capsys, monkeypatch):
        real_factory = planner.backend_factory
        built = []

        def backend_factory(spec, seed):
            factory = real_factory(spec, seed)

            def counted(episode, index):
                built.append(index)
                return factory(episode, index)
            return counted

        monkeypatch.setattr(planner, "backend_factory", backend_factory)
        out = data_dir / "out"
        out.write_text("a file, not a directory\n", encoding="utf-8")
        code = run_cli("run", "--scene", str(data_dir / "riverside.scene"),
                       "--episodes", str(data_dir / "eps" / "*.episode"),
                       "--backend", "echo", "--parallel", "2",
                       "--out", str(out))
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.startswith("run failed: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert built == []


class TestValidate:
    def test_clean_files_report_zero_violations(self, data_dir, capsys):
        code = run_cli("validate", str(data_dir / "riverside.scene"),
                       str(data_dir / "eps" / "ep_a.episode"))
        assert code == EXIT_OK
        assert capsys.readouterr().out == "0 violations\n"

    def test_out_of_bounds_goal_is_flagged(self, data_dir, capsys):
        bad = write_episode(data_dir / "far.episode", "far", gx=50.0,
                            gy=50.0)
        code = run_cli("validate", str(data_dir / "riverside.scene"),
                       str(bad))
        assert code == EXIT_DATA
        out = capsys.readouterr().out
        assert "goal (50, 50) outside scene bounds 20 x 20" in out
        assert out.endswith("1 violations\n")

    def test_underground_goal_is_flagged(self, data_dir, capsys):
        bad = write_episode(data_dir / "deep.episode", "deep", gz=0.0)
        code = run_cli("validate", str(data_dir / "riverside.scene"),
                       str(bad))
        assert code == EXIT_DATA
        assert "goal altitude 0 is not above ground" in \
            capsys.readouterr().out

    def test_unrecognized_header_is_flagged(self, data_dir, capsys):
        stray = data_dir / "notes.txt"
        stray.write_text("just some notes\n", encoding="utf-8")
        code = run_cli("validate", str(stray))
        assert code == EXIT_DATA
        assert "unrecognized header" in capsys.readouterr().out

    def test_malformed_scene_is_reported_with_its_path(self, data_dir,
                                                       capsys):
        broken = data_dir / "broken.scene"
        broken.write_text(SCENE_TEXT.replace("0 12 0 0\n", "0 12 0\n", 1),
                          encoding="utf-8")
        code = run_cli("validate", str(broken))
        assert code == EXIT_DATA
        out = capsys.readouterr().out
        assert str(broken) in out
        assert out.strip().endswith("1 violations")

    @pytest.mark.parametrize("which, good, bad, field", BAD_NUMBERS,
                             ids=BAD_NUMBER_IDS)
    def test_bad_number_is_flagged(self, data_dir, capsys, which, good, bad,
                                   field):
        path, line = spoil(data_dir, which, good, bad)
        code = run_cli("validate", str(data_dir / "riverside.scene"),
                       str(data_dir / "eps" / "ep_a.episode"))
        assert code == EXIT_DATA
        out = capsys.readouterr().out
        assert out.startswith(f"{path}: line {line}: field '{field}': ")
        assert out.endswith("\n1 violations\n")

    def test_unsafe_id_is_flagged(self, data_dir, capsys):
        path = write_episode(data_dir / "eps" / "ep_a.episode", "../esc")
        code = run_cli("validate", str(data_dir / "riverside.scene"),
                       str(path))
        assert code == EXIT_DATA
        assert capsys.readouterr().out == (
            f"{path}: line 2: field 'id': id must be one token that names "
            "a directory, got '../esc'\n1 violations\n")

    @pytest.mark.parametrize("line", ["goal 1 1 1", "max_actions 1"])
    def test_repeated_directive_is_flagged(self, data_dir, capsys, line):
        path = data_dir / "eps" / "ep_a.episode"
        with open(path, "a", encoding="utf-8") as f:
            f.write(line + "\n")
        code = run_cli("validate", str(data_dir / "riverside.scene"),
                       str(path))
        assert code == EXIT_DATA
        field = line.split()[0]
        assert capsys.readouterr().out == (
            f"{path}: line 9: field '{field}': duplicate {field} "
            "directive\n1 violations\n")

    def test_file_that_is_not_utf8_is_flagged(self, data_dir, capsys):
        bad = data_dir / "garbled.episode"
        bad.write_bytes(NOT_UTF8)
        code = run_cli("validate", str(data_dir / "riverside.scene"),
                       str(bad))
        assert code == EXIT_DATA
        out = capsys.readouterr().out
        assert out.startswith(f"{bad}: unreadable (")
        assert "not valid UTF-8" in out
        assert out.endswith("\n1 violations\n")

    def test_episodes_without_a_scene_skip_bounds_checks(self, data_dir,
                                                         capsys):
        code = run_cli("validate", str(data_dir / "eps" / "ep_a.episode"))
        assert code == EXIT_OK
        assert capsys.readouterr().out == "0 violations\n"


class TestDumpMap:
    @pytest.fixture()
    def trace_dir(self, data_dir, capsys):
        out = data_dir / "out"
        assert run_cli("run", "--scene",
                       str(data_dir / "riverside.scene"),
                       "--episodes",
                       str(data_dir / "eps" / "ep_a.episode"),
                       "--backend", "echo", "--out", str(out)) == EXIT_OK
        capsys.readouterr()
        return out / "ep_a"

    def test_ascii_shows_matrix_then_map_with_the_uav(self, trace_dir,
                                                      capsys):
        code = run_cli("dump-map", "--trace", str(trace_dir), "--step",
                       "0")
        assert code == EXIT_OK
        out = capsys.readouterr().out
        matrix_text = (trace_dir / "step_0" / "matrix.txt").read_text(
            encoding="utf-8")
        assert out.startswith(matrix_text)
        assert "@" in out

    def test_pgm_output_is_a_plain_graymap(self, trace_dir, capsys):
        code = run_cli("dump-map", "--trace", str(trace_dir), "--step",
                       "0", "--format", "pgm")
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "P2"
        ncols, nrows = (int(v) for v in lines[1].split())
        assert lines[2] == "255"
        assert len(lines) == 3 + nrows
        for row in lines[3:]:
            values = [int(v) for v in row.split()]
            assert len(values) == ncols
            assert all(0 <= v <= 255 for v in values)

    def test_a_pose_with_no_cell_is_drawn_outside_the_box(self, trace_dir,
                                                          capsys):
        # the pose over a 1e-320 m cell overflows a float: it has no cell
        path = trace_dir / "step_0" / "map.txt"
        path.write_text(re.sub(r"^cell_size .*$", "cell_size 1e-320",
                               path.read_text(encoding="utf-8"), flags=re.M),
                        encoding="utf-8")
        code = run_cli("dump-map", "--trace", str(trace_dir), "--step",
                       "0")
        out, err = capsys.readouterr()
        matrix_text = (trace_dir / "step_0" / "matrix.txt").read_text(
            encoding="utf-8")
        assert code == EXIT_OK
        assert err == ""
        assert out.startswith(matrix_text)
        assert "@" not in out[len(matrix_text):]

    def test_missing_step_is_a_usage_error(self, trace_dir, capsys):
        code = run_cli("dump-map", "--trace", str(trace_dir), "--step",
                       "9")
        assert code == EXIT_USAGE
        assert "no step 9" in capsys.readouterr().err

    def test_incomplete_step_directory_is_a_data_error(self, trace_dir,
                                                       capsys):
        (trace_dir / "step_0" / "matrix.txt").unlink()
        code = run_cli("dump-map", "--trace", str(trace_dir), "--step",
                       "0")
        assert code == EXIT_DATA
        assert "cannot read trace" in capsys.readouterr().err

    @pytest.mark.parametrize("name, damage", [
        ("map.txt", lambda t: re.sub(r"^size .*$", "size x 3", t,
                                     flags=re.M)),
        ("map.txt", lambda t: t.rstrip("\n").rsplit("\n", 1)[0] + "\n"),
        ("map.txt", lambda t: t.replace("cell_size", "cellsize")),
        ("pose.txt", lambda t: "abc\n"),
        ("pose.txt", lambda t: "1.0\n"),
    ], ids=["map-size-not-a-number", "map-row-missing", "map-no-cell-size",
            "pose-not-a-number", "pose-one-value"])
    @pytest.mark.parametrize("fmt", ["ascii", "pgm"])
    def test_damaged_step_file_is_a_data_error(self, trace_dir, capsys,
                                               name, damage, fmt):
        path = trace_dir / "step_0" / name
        path.write_text(damage(path.read_text(encoding="utf-8")),
                        encoding="utf-8")
        code = run_cli("dump-map", "--trace", str(trace_dir), "--step",
                       "0", "--format", fmt)
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.startswith("cannot read trace: ")
        assert err.count("\n") == 1


CELL = st.tuples(st.integers(-12, 12), st.integers(-12, 12))
LABEL = st.one_of(st.integers(-3, 12).filter(bool),
                  st.sampled_from([-2**62, 2**62 - 1, 2**62]))


class TestDumpMapMatchesReference:
    """The drawing from the snapshot's own grids prints what the per-cell
    redraw of a rebuilt ``TopDownMap`` printed."""

    @given(cell_size=st.sampled_from([0.5, 2.5, 5.0]),
           labels=st.dictionaries(CELL, LABEL, max_size=40),
           trajectory=st.sets(CELL, max_size=15),
           legend=st.dictionaries(
               st.one_of(st.integers(1, 40), st.just(2**62)),
               st.sampled_from(["road", "river", "grass"]), max_size=5),
           uav_xy=st.tuples(st.floats(-80, 80), st.floats(-80, 80)))
    @example(cell_size=5.0, labels={}, trajectory=set(), legend={},
             uav_xy=(2.0, 2.0))
    @example(cell_size=5.0, labels={}, trajectory={(-3, -7), (2, 4)},
             legend={1: "road"}, uav_xy=(12.0, 22.0))
    @example(cell_size=5.0, labels={(0, 0): 2**62, (1, 1): -2**62},
             trajectory=set(), legend={1: "road"}, uav_xy=(50.0, -50.0))
    @settings(max_examples=300, deadline=None)
    def test_byte_equal(self, cell_size, labels, trajectory, legend,
                        uav_xy):
        text = map_snapshot(
            TopDownMap(cell_size, labels=labels, trajectory=trajectory),
            legend)
        tdmap, back_legend = parse_snapshot_reference(text)
        snapshot = parse_snapshot(text)
        assert _ascii_map(snapshot, uav_xy) == ascii_map_reference(tdmap,
                                                                   uav_xy)
        assert _pgm_map(snapshot) == pgm_map_reference(tdmap, back_legend)


REPO_ROOT = Path(__file__).resolve().parent.parent

# What a console-script launcher does with a `module:attr` target: import
# the module, look up the (possibly dotted) attribute, call it and exit
# with its return value.
LAUNCHER = """\
import importlib
import sys

module, _, attr = sys.argv.pop(1).partition(":")
func = importlib.import_module(module)
for name in attr.split("."):
    func = getattr(func, name)
sys.argv[0] = "stmrnav"
sys.exit(func())
"""


def declared_entry_point(name):
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


class TestReadmeContract:
    """What README.md says of ``run`` is what the code accepts."""

    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")

    def test_config_keys_and_mounts_are_the_accepted_ones(self):
        listed = re.search(r"`--config` takes a JSON object with any "
                           r"`LoopConfig`\s+field \(([^)]*)\)", self.readme)
        assert listed, "README lost its --config key list"
        assert set(re.findall(r"`(\w+)`", listed.group(1))) == _CONFIG_KEYS
        mounts = " or ".join(f"`{m}`" for m in evaluation.MOUNTS)
        assert f"`mount` is {mounts}." in " ".join(self.readme.split())

    @pytest.mark.parametrize("flag, table", [
        ("--plan-mode", evaluation.PLAN_MODES),
        ("--map-format", evaluation.MAP_FORMATS),
    ])
    def test_choices_are_the_evaluation_tables(self, capsys, flag, table):
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        assert f"{flag} {{{','.join(table)}}}" in capsys.readouterr().out
        assert f"[{flag} {'|'.join(table)}]" in self.readme


def assert_clean_validate(proc):
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 violations\n", proc.stderr


class TestConsoleScript:
    def test_installed_entry_point_resolves(self, data_dir):
        scene = str(data_dir / "riverside.scene")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", LAUNCHER, declared_entry_point("stmrnav"),
             "validate", scene],
            cwd=data_dir, env=env, capture_output=True, text=True,
            timeout=60)
        assert_clean_validate(proc)

        exe = shutil.which("stmrnav")
        if exe is not None:
            proc = subprocess.run(
                [exe, "validate", scene], cwd=data_dir, env=env,
                capture_output=True, text=True, timeout=60)
            assert_clean_validate(proc)


class TestStartUp:
    def test_importing_the_package_loads_no_submodule(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p)
        code = ("import stmrnav, sys\n"
                "print(sorted(m for m in sys.modules"
                " if m.startswith('stmrnav.')))\n")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_only_the_remote_backend_loads_requests_and_nothing_scipy(self):
        # Start-up pays for every import; scipy is never needed,
        # requests only once a remote backend is built, and
        # concurrent.futures only by a run with --parallel above 1.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p)
        loaded = ("print(sorted(m for m in ('scipy', 'requests',"
                  " 'concurrent.futures') if m in sys.modules))\n")
        code = ("import sys\n"
                "import stmrnav, stmrnav.cli\n" + loaded +
                "stmrnav.planner.RemoteBackend('http://x')\n" + loaded)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]", "['requests']"]


# Python source run in a subprocess whose address space is capped, so
# that a run that allocates without bound stops with a MemoryError
# instead of taking the machine's memory.
AS_LIMIT = 1 << 30
CAP = ("import resource\n"
       f"resource.setrlimit(resource.RLIMIT_AS, ({AS_LIMIT}, {AS_LIMIT}))\n")
CLI = ("import sys\n"
       "from stmrnav.cli import main\n"
       "sys.exit(main(sys.argv[1:]))\n")
FIXTURES = REPO_ROOT / "src" / "stmrnav" / "fixtures"


def run_capped(source, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", CAP + source, *map(str, argv)], env=env,
        capture_output=True, text=True, timeout=60)


def run_cli_capped(*argv):
    return run_capped(CLI, *argv)


class TestBoundaryUnderAMemoryCap:
    def test_run_refuses_a_start_outside_the_scene(self, tmp_path):
        # Flown, the first action clips the pose into the scene, and the
        # trail is then marked every 2.5 m across 1e12 m.
        far = "1e12 100.0 30.0 0.0 0.0 0.0"
        text = (FIXTURES / "ep001.episode").read_text(encoding="utf-8")
        text = re.sub(r"^start .*$", f"start {far}", text, flags=re.M)
        text = re.sub(r"^path .*$", f"path {far}", text, count=1,
                      flags=re.M)
        episode = tmp_path / "far.episode"
        episode.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        proc = run_cli_capped(
            "run", "--scene", FIXTURES / "riverside.scene",
            "--episodes", episode, "--out", out,
            "--backend", f"scripted:{FIXTURES / 'scripts' / 'ep001.txt'}")
        assert proc.returncode == EXIT_DATA
        assert proc.stderr == (f"data error: {episode}: start (1e+12, 100) "
                               "outside scene bounds 600 x 600\n")
        assert not out.exists()

    @pytest.mark.parametrize("tiny", [0.001, 1e-320])
    def test_a_tiny_voxel_size_is_an_unknown_key(self, tmp_path, tiny):
        config = tmp_path / "loop.json"
        config.write_text(json.dumps({"voxel_size": tiny, "r": tiny}),
                          encoding="utf-8")
        proc = run_cli_capped(
            "run", "--scene", FIXTURES / "riverside.scene",
            "--episodes", FIXTURES / "ep001.episode", "--config", config)
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr == (
            "configuration error: unknown config keys: voxel_size\n")


# Values of every JSON kind, with the edge cases of each: bools (an int
# subclass), huge and negative ints, floats near 0 and 1e308, subnormals,
# non-finite floats, strings and nested lists.
JSON_VALUE = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.text(max_size=6),
        st.integers(-2**70, 2**70),
        st.sampled_from([0, 10**400, -10**30]),
        st.floats(),
        st.sampled_from([5e-324, 1e-310, 1e308, -1e308])),
    lambda inner: st.lists(inner, max_size=3), max_leaves=4)
# Accepted values, so that some runs get past the config to the episode.
GOOD_VALUES = {
    "tau": st.floats(0.05, 0.95),
    "r": st.sampled_from([5, 10.0, 1280.0]),
    "matrix_size": st.sampled_from([2, 20, 1024]),
    "mount": st.sampled_from(list(evaluation.MOUNTS)),
    "plan_mode": st.sampled_from(evaluation.PLAN_MODES),
    "map_format": st.sampled_from(evaluation.MAP_FORMATS),
    "max_actions": st.integers(1, 3),
    "template": st.sampled_from(["go {instruction}", "go {nowhere}"]),
}
CONFIG = st.one_of(
    st.fixed_dictionaries({}, optional={
        key: st.one_of(good, good, JSON_VALUE)
        for key, good in GOOD_VALUES.items()}),
    st.dictionaries(st.sampled_from(sorted(_CONFIG_KEYS)
                                    + ["voxel_size", "banana"]),
                    JSON_VALUE, max_size=3))
# Points inside the 600 m riverside scene, or with any coordinate far
# outside it, below the ground or at its edge.
COORD = st.sampled_from([-1e300, -1e12, -1.0, 0.0, 600.0, 1e12, 1e300])
POINT = st.one_of(
    st.tuples(st.floats(1.0, 599.0), st.floats(1.0, 599.0),
              st.floats(1.0, 200.0)),
    st.tuples(st.one_of(COORD, st.floats(1.0, 599.0)),
              st.one_of(COORD, st.floats(1.0, 599.0)),
              st.one_of(COORD, st.floats(-10.0, 10.0))))


class TestFuzzedRunInput:
    @given(config=CONFIG, start=POINT, goal=POINT,
           backend=st.sampled_from(["echo", "random"]))
    @settings(max_examples=35, deadline=None, derandomize=True,
              database=None)
    def test_exits_with_a_documented_code_and_no_traceback(
            self, tmp_path_factory, config, start, goal, backend):
        work = tmp_path_factory.mktemp("fuzz")
        (work / "loop.json").write_text(json.dumps(config),
                                        encoding="utf-8")
        pose = " ".join(map(repr, start)) + " 0.0 0.0 0.0"
        (work / "fz.episode").write_text(
            "stmr-episode v1\nid fz\ninstruction fly to the road\n"
            f"start {pose}\ngoal {' '.join(map(repr, goal))}\n"
            f"max_actions 3\npath {pose}\n", encoding="utf-8")
        proc = run_cli_capped(
            "run", "--scene", FIXTURES / "riverside.scene",
            "--episodes", work / "fz.episode", "--config",
            work / "loop.json", "--backend", backend, "--max-actions", "1")
        assert proc.returncode in (EXIT_OK, EXIT_DATA, EXIT_USAGE)
        assert "Traceback" not in proc.stderr


# What a mutation puts in place of a number: non-finite, huge, tiny and
# negative-zero floats, integers beyond int64, and forms that float() or
# int() reads in ways a file format may not mean (hex, underscores,
# non-ASCII digits) or refuses.
WEIRD_NUMBER = st.sampled_from([
    "nan", "-nan", "inf", "-inf", "1e308", "-1e308", "1e999", "1e-320",
    "5e-324", "-0", "-0.0", "999999999999999999999",
    "-9223372036854775809", "0x10", "1_000", "+3", "٣", "abc", ""])
NUMBER = re.compile(r"[-+]?[0-9.]+(e[-+]?[0-9]+)?")
# A cut at any character, a repeated or deleted line, or a number made
# weird.  Lines are picked among the first 16, where the headers and
# directives are, as often as among all.
MUTATIONS = st.lists(
    st.tuples(st.sampled_from(["cut", "repeat", "delete", "number"]),
              st.one_of(st.integers(0, 15), st.integers(0, 10**6)),
              st.integers(0, 10**6), WEIRD_NUMBER),
    min_size=1, max_size=3)


def mutate(text, mutations):
    lines = text.split("\n")
    for kind, line, at, weird in mutations:
        i = line % len(lines)
        if kind == "cut":
            text = "\n".join(lines)
            lines = text[:at % (len(text) + 1)].split("\n")
        elif kind == "repeat":
            lines.insert(i, lines[i])
        elif kind == "delete" and len(lines) > 1:
            del lines[i]
        elif kind == "number":
            tokens = lines[i].split(" ")
            numbers = [k for k, token in enumerate(tokens)
                       if NUMBER.fullmatch(token)]
            if numbers:
                tokens[numbers[at % len(numbers)]] = weird
                lines[i] = " ".join(tokens)
    return "\n".join(lines)


@pytest.fixture(scope="module")
def fixture_step(tmp_path_factory):
    """A step of ep001's trace, flown with its script."""
    out = tmp_path_factory.mktemp("trace")
    scripts = FIXTURES / "scripts" / "ep001.txt"
    assert main(["run", "--scene", str(FIXTURES / "riverside.scene"),
                 "--episodes", str(FIXTURES / "ep001.episode"),
                 "--backend", f"scripted:{scripts}",
                 "--out", str(out)]) == EXIT_OK
    return out / "ep001" / "step_3"


def assert_documented_exit(proc):
    assert proc.returncode in (EXIT_OK, EXIT_DATA, EXIT_USAGE)
    assert "Traceback" not in proc.stderr


class TestFuzzedFiles:
    @given(mutations=MUTATIONS)
    @example(mutations=[("number", 2, 0, "1e-320")])
    @example(mutations=[("cut", 0, 300, "")])
    @settings(max_examples=16, deadline=None, derandomize=True,
              database=None)
    def test_validate_a_mutated_scene(self, tmp_path_factory, mutations):
        path = tmp_path_factory.mktemp("fuzz") / "riverside.scene"
        path.write_text(mutate((FIXTURES / "riverside.scene").read_text(
            encoding="utf-8"), mutations), encoding="utf-8")
        assert_documented_exit(run_cli_capped("validate", path))

    @given(mutations=MUTATIONS, fmt=st.sampled_from(["ascii", "pgm"]))
    @example(mutations=[("number", 10, 0, "1e308")], fmt="ascii")
    @example(mutations=[("number", 11, 1, "-9223372036854775809")],
             fmt="pgm")
    @settings(max_examples=16, deadline=None, derandomize=True,
              database=None)
    def test_dump_map_of_a_mutated_map(self, tmp_path_factory, fixture_step,
                                       mutations, fmt):
        trace = tmp_path_factory.mktemp("fuzz")
        shutil.copytree(fixture_step, trace / "step_0")
        path = trace / "step_0" / "map.txt"
        path.write_text(mutate(path.read_text(encoding="utf-8"), mutations),
                        encoding="utf-8")
        assert_documented_exit(run_cli_capped(
            "dump-map", "--trace", trace, "--step", "0", "--format", fmt))
