"""Self-test of the benchmark: python3 -m pytest -q perfbench

Smoke runs fly one or two short episodes per workload.  They check
that every metric BENCHMARK.json names is emitted with its unit, that
traced passes reproduce the untraced digests, that a renamed layer
stops the traced run, and that the benchmark refuses to report a
result where the program is missing.
"""

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import survey  # noqa: E402
import tracer as tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


def _smoke(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    digests = [x for x in lines if x.startswith("digests ")]
    return json.loads(lines[-1]), digests


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric_and_tracing_keeps_outputs(workload):
    untraced, digests_0 = _smoke(workload, 0)
    traced, digests_1 = _smoke(workload, 1)
    for result, group in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert result["correct"] is True
        assert result["failed"] == 0
        assert result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[group]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want
        assert all(isinstance(v["value"], (int, float))
                   for v in result["metrics"].values())
    # a traced run fails any episode whose traced digest differs from
    # the untraced one, and both runs see the same outputs
    assert digests_0 == digests_1 and len(digests_0) == 1
    assert traced["metrics"]["world.render.calls"]["value"] > 0


def test_tracer_refuses_a_missing_layer_and_restores_wrappers():
    from stmrnav import evaluation

    fake = types.ModuleType("fake_evaluation")
    for attr in tracing.LAYERS:
        setattr(fake, attr, getattr(evaluation, attr))
    del fake.pool_to_matrix
    with pytest.raises(tracing.TracingError, match="pool_to_matrix"):
        with tracing.Tracer(fake):
            pass

    originals = {a: getattr(evaluation, a) for a in tracing.LAYERS}
    with pytest.raises(KeyError):
        with tracing.Tracer(evaluation):
            assert all(getattr(evaluation, a) is not originals[a]
                       for a in tracing.LAYERS)
            raise KeyError("leave the block early")
    assert all(getattr(evaluation, a) is originals[a]
               for a in tracing.LAYERS)


def test_self_time_excludes_children():
    parent = tracing.Span("outer", None, None, "ep", 0)
    child = tracing.Span("inner", parent, None, "ep", 0)
    parent.start, child.start, child.end, parent.end = 1.0, 1.5, 2.25, 3.0
    parent.child = child.duration
    assert parent.self_time == pytest.approx(1.25)
    assert child.self_time == pytest.approx(0.75)


def test_survey_is_seeded_and_valid(tmp_path):
    from stmrnav import cli

    a = survey.generate(5, str(tmp_path / "a"), flights=2)
    b = survey.generate(5, str(tmp_path / "b"), flights=2)
    c = survey.generate(6, str(tmp_path / "c"), flights=2)

    def read(paths):
        return [open(p, encoding="utf-8").read() for p in paths]

    assert read(a) == read(b)
    assert read(a) != read(c)
    scene = os.path.join(ROOT, "src", "stmrnav", "fixtures",
                         "riverside.scene")
    assert cli.main(["validate", scene, *a, *c]) == 0


def test_without_the_program_there_is_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds",
                "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not any(line.startswith("{")
                   for line in done.stdout.splitlines())
