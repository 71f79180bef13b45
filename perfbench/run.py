"""Outside-in benchmark of the stmrnav control loop.

Run from the repository root:

    python3 perfbench/run.py --workload suite-forward --seed 1 \\
        --seconds 20 --trace 0

The loop runs through the public API, ``evaluation.run_suite``, with
backends built here.  Nothing under ``src/`` is changed.  A run
repeats whole passes over its workload until ``--seconds`` have gone
by, checks every pass's outputs against recorded digests, and prints
one JSON object as its last line:

    {"correct": true, "attempted": 30, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of untraced passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, plus the tracing overhead.
``--smoke`` runs one or two short episodes instead, for the
benchmark's own tests.  perfbench/README.md gives the workloads and
what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import glob
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(SRC, "stmrnav", "fixtures")
SCENE = os.path.join(FIXTURES, "riverside.scene")
WORK = os.path.join(ROOT, ".perfbench_work")
REFERENCE = os.path.join(HERE, "reference.json")

sys.path.insert(0, HERE)
import survey  # noqa: E402
import tracer as tracing  # noqa: E402

WORKLOADS = ("suite-forward", "survey-down", "suite-parallel")
SURVEY_FLIGHTS = 2
SETUP_PROBES = 5
# Every workload's pilot is scripted to stop exactly on its goal.
EXPECTED_QUALITY = {"mean_ne_m": "0.000", "sr_pct": 100.0,
                    "osr_pct": 100.0}


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result."""


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    episode_paths: tuple[str, ...]
    script_dir: str
    mount: str
    parallel: int
    write_tree: bool


def build_workload(name: str, seed: int, smoke: bool,
                   work_dir: str) -> Workload:
    """Inputs of one workload.  Only survey-down depends on the seed."""
    if not os.path.isfile(SCENE):
        raise BenchError(f"no scene at {SCENE}")
    if name == "survey-down":
        inputs = os.path.join(work_dir, "inputs")
        paths = survey.generate(seed, inputs,
                                flights=1 if smoke else SURVEY_FLIGHTS,
                                short=smoke)
        return Workload(name, tuple(paths), os.path.join(inputs, "scripts"),
                        "down", 1, False)
    fixtures = sorted(glob.glob(os.path.join(FIXTURES, "ep*.episode")))
    if not fixtures:
        raise BenchError(f"no fixture episodes under {FIXTURES}")
    scripts = os.path.join(FIXTURES, "scripts")
    if name == "suite-forward":
        return Workload(name, tuple(fixtures[:1] if smoke else fixtures),
                        scripts, "forward", 1, False)
    return Workload(name, tuple(fixtures[:2] if smoke else fixtures),
                    scripts, "forward", 2, True)


class LatencyProbe:
    """Backend wrapper that times each step's decision latency.

    A sample is the gap from the end of the previous backend call (or
    from the backend's creation, just before its episode starts) to the
    first query of the next step, so backend time is excluded.  A
    re-query repeats its step's prompt, and only a new prompt starts a
    new step, because every step adds to the action history.
    """

    def __init__(self, backend):
        self._backend = backend
        self._last_prompt = None
        self.samples: list[float] = []
        self._mark = time.perf_counter()

    def complete(self, prompt: str) -> str:
        start = time.perf_counter()
        if prompt != self._last_prompt:
            self.samples.append(start - self._mark)
            self._last_prompt = prompt
        try:
            return self._backend.complete(prompt)
        finally:
            self._mark = time.perf_counter()


# ---------------------------------------------------------------------------
# output digests
# ---------------------------------------------------------------------------

def episode_digest(result) -> str:
    """Hash of every step's prompt, matrix, map snapshot and pose."""
    h = hashlib.sha256()
    for t in result.step_traces:
        pose = " ".join(repr(v) for v in (t.pose.x, t.pose.y, t.pose.z,
                                          t.pose.pitch, t.pose.roll,
                                          t.pose.yaw))
        for part in (str(t.index), t.prompt, t.matrix_text, t.map_text,
                     pose):
            h.update(part.encode("utf-8"))
            h.update(b"\0")
    return h.hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def tree_digest(root: str) -> str:
    """Hash of every file's relative path and bytes under ``root``."""
    h = hashlib.sha256()
    files = []
    for dirpath, _, names in os.walk(root):
        for n in names:
            full = os.path.join(dirpath, n)
            files.append((os.path.relpath(full, root).replace(os.sep, "/"),
                          full))
    for rel, full in sorted(files):
        h.update(rel.encode("utf-8"))
        h.update(b"\0")
        with open(full, "rb") as f:
            h.update(f.read())
        h.update(b"\0")
    return h.hexdigest()


def workload_digest(episodes: dict[str, str], csv_digest: str) -> str:
    body = json.dumps({"episodes": episodes, "results_csv": csv_digest},
                      sort_keys=True)
    return text_digest(body)


def load_reference(name: str, seed: int, smoke: bool):
    """The recorded digests for this run, or None when none apply.

    The fixture suites do not depend on the seed; survey-down's
    reference holds for its recorded seed only.
    """
    if smoke or not os.path.isfile(REFERENCE):
        return None
    with open(REFERENCE, encoding="utf-8") as f:
        ref = json.load(f).get(name)
    if ref is None or ref.get("seed") not in (None, seed):
        return None
    return ref


# ---------------------------------------------------------------------------
# one pass over the workload
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Pass:
    traced: bool
    wall: float
    cpu: float
    steps: int
    latencies: list[float]
    digests: dict[str, str]
    stopped_by: dict[str, str]
    csv_digest: str
    tree: str | None
    summary: object
    spans: list


class Bench:
    """Loaded inputs plus the program's modules, ready to run passes."""

    def __init__(self, workload: Workload, work_dir: str):
        from stmrnav import evaluation, planner, world

        self.evaluation = evaluation
        self.planner = planner
        self.workload = workload
        self.work_dir = work_dir
        self.scene = world.load_scene(SCENE)
        self.episodes = [world.load_episode(p)
                         for p in workload.episode_paths]
        self.config = evaluation.LoopConfig(mount=workload.mount)

    def _backend(self, episode, index):
        return self.planner.ScriptedBackend.from_file(os.path.join(
            self.workload.script_dir, f"{episode.episode_id}.txt"))

    def warm_up(self) -> None:
        """A few untimed steps, so lazy set-up is done before timing."""
        self.evaluation.run_suite(
            self.scene, self.episodes[:1], self._backend,
            config=dataclasses.replace(self.config, max_actions=3))

    def serial_tree(self) -> str:
        """Trace-tree digest of a serial run that writes to disk."""
        out_dir = tempfile.mkdtemp(prefix="serial-", dir=self.work_dir)
        try:
            self.evaluation.run_suite(self.scene, self.episodes,
                                      self._backend, config=self.config,
                                      parallel=1, out_dir=out_dir)
            return tree_digest(out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def run_pass(self, traced: bool) -> Pass:
        probes: list[LatencyProbe] = []

        def factory(episode, index):
            probe = LatencyProbe(self._backend(episode, index))
            probes.append(probe)
            return probe

        out_dir = (tempfile.mkdtemp(prefix="trace-", dir=self.work_dir)
                   if self.workload.write_tree else None)
        tracer = tracing.Tracer(self.evaluation) if traced else None
        try:
            with tracer or contextlib.nullcontext():
                cpu0 = time.process_time()
                t0 = time.perf_counter()
                results = self.evaluation.run_suite(
                    self.scene, self.episodes, factory, config=self.config,
                    parallel=self.workload.parallel, out_dir=out_dir)
                wall = time.perf_counter() - t0
                cpu = time.process_time() - cpu0
            tree = tree_digest(out_dir) if out_dir else None
        finally:
            if out_dir:
                shutil.rmtree(out_dir, ignore_errors=True)
        return Pass(
            traced=traced, wall=wall, cpu=cpu,
            steps=sum(r.steps for r in results),
            latencies=[s for p in probes for s in p.samples],
            digests={r.episode_id: episode_digest(r) for r in results},
            stopped_by={r.episode_id: r.stopped_by for r in results},
            csv_digest=text_digest(
                self.evaluation.results_csv_text(results)),
            tree=tree,
            summary=self.evaluation.aggregate(results),
            spans=tracer.spans if tracer else [])


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------

def measure_setup(workload: Workload, probes: int) -> float:
    """Median set-up seconds over ``probes`` fresh interpreters."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), SCENE,
           workload.script_dir, *workload.episode_paths]
    times = []
    for _ in range(probes):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=False)
        if done.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{done.stderr}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def _validate_inputs(workload: Workload) -> None:
    from stmrnav import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["validate", SCENE, *workload.episode_paths])
    if code != 0:
        raise BenchError(f"inputs fail validation:\n{buf.getvalue()}")


def _check_pass(p: Pass, expected: dict, expected_csv: str | None,
                expected_tree: str | None) -> tuple[int, list[str]]:
    """Failed episodes of one pass, and every problem found."""
    problems = []
    failed = 0
    for eid, digest in p.digests.items():
        why = []
        if p.stopped_by[eid] == "error":
            why.append("stopped by error")
        if digest != expected.get(eid):
            why.append(f"digest {digest[:12]} is not the expected "
                       f"{str(expected.get(eid))[:12]}")
        if why:
            failed += 1
            problems.append(f"{eid}: " + ", ".join(why))
    if expected_csv is not None and p.csv_digest != expected_csv:
        problems.append("results.csv digest differs")
    if expected_tree is not None and p.tree != expected_tree:
        problems.append("trace tree digest differs from a serial write")
    s = p.summary
    quality = {"mean_ne_m": f"{s.mean_ne:.3f}", "sr_pct": s.sr,
               "osr_pct": s.osr}
    if quality != EXPECTED_QUALITY:
        problems.append(f"quality {quality} != {EXPECTED_QUALITY}")
    return failed, problems


def run(args, work_dir: str) -> dict:
    from stmrnav import evaluation

    if args.trace:
        missing = tracing.missing_layers(evaluation)
        if missing:
            raise BenchError("cannot trace: stmrnav.evaluation has no "
                             + ", ".join(missing))
    workload = build_workload(args.workload, args.seed, args.smoke,
                              work_dir)
    _validate_inputs(workload)
    setup_s = measure_setup(workload, 1 if args.smoke else SETUP_PROBES)
    bench = Bench(workload, work_dir)
    bench.warm_up()

    ref = load_reference(args.workload, args.seed, args.smoke)
    expected = dict(ref["episodes"]) if ref else {}
    expected_csv = ref["results_csv"] if ref else None
    expected_tree = None
    if workload.write_tree:
        expected_tree = ref["tree"] if ref else bench.serial_tree()

    passes: list[Pass] = []
    attempted = failed = 0
    problems: list[str] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        try:
            p = bench.run_pass(traced)
        except Exception:  # noqa: BLE001 - a fault fails its episodes
            traceback.print_exc()
            attempted += len(workload.episode_paths)
            failed += len(workload.episode_paths)
            problems.append("a pass raised")
            break
        if not expected:
            expected = dict(p.digests)
            expected_csv = p.csv_digest
        n_failed, found = _check_pass(p, expected, expected_csv,
                                      expected_tree)
        attempted += len(p.digests)
        failed += n_failed
        problems += [f"{'traced' if traced else 'untraced'} pass "
                     f"{len(passes) + 1}: {x}" for x in found]
        passes.append(p)
        # stop when one more pass of the usual length would overrun
        enough = not args.trace or len(passes) >= 2
        usual = statistics.median(x.wall for x in passes)
        if enough and time.perf_counter() + usual > deadline:
            break

    untraced = [p for p in passes if not p.traced]
    traced_passes = [p for p in passes if p.traced]
    if not untraced or (args.trace and not traced_passes):
        raise BenchError("no pass completed:\n" + "\n".join(problems))

    digests = {"seed": args.seed if args.workload == "survey-down" else None,
               "digest": workload_digest(untraced[0].digests,
                                         untraced[0].csv_digest),
               "episodes": untraced[0].digests,
               "results_csv": untraced[0].csv_digest}
    if workload.write_tree:
        digests["tree"] = untraced[0].tree
    checked = "checked against" if ref else "no"
    print(f"{args.workload} seed {args.seed}: digest {digests['digest']} "
          f"({checked} recorded reference)")
    print("digests " + json.dumps(digests, sort_keys=True))
    for x in problems:
        print(f"problem: {x}")

    wall = statistics.median(p.wall for p in untraced)
    print("pass walls (s): " + " ".join(
        f"{p.wall:.3f}{'t' if p.traced else ''}" for p in passes))
    if args.trace:
        metrics = tracing.summarize(
            [s for p in traced_passes for s in p.spans], len(traced_passes))
        metrics["evaluation.run_suite.cores_busy"] = (
            statistics.median(p.cpu / p.wall for p in untraced), "ratio")
        traced_wall = statistics.median(p.wall for p in traced_passes)
        metrics["trace.overhead_pct"] = (
            100.0 * (traced_wall - wall) / wall, "%")
    else:
        def step_ms(q):
            return statistics.median(
                tracing.percentile([x * 1e3 for x in p.latencies], q)
                for p in untraced)

        s = untraced[0].summary
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall, "s"),
            "steps_per_s": (untraced[0].steps / wall, "1/s"),
            "step_ms_p50": (step_ms(50), "ms"),
            "step_ms_p95": (step_ms(95), "ms"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "sr_pct": (s.sr, "%"),
            "osr_pct": (s.osr, "%"),
        }
        print(f"{len(untraced)} passes of {untraced[0].steps} steps, "
              f"{len(untraced[0].latencies)} latency samples a pass, "
              f"mean NE {s.mean_ne:.3f} m")
    return {"correct": not problems, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=survey.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one or two short episodes, for self-tests")
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, SRC)
    try:
        import stmrnav.evaluation  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import stmrnav from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        result = run(args, work_dir)
    except (BenchError, tracing.TracingError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
