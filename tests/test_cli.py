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

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    import tomli as tomllib

from stmrnav import evaluation
from stmrnav.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main

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
        {"requery_limit": True},
        {"max_unparseable": True},
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
