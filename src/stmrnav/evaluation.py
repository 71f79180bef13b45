"""Episode runner and metrics: navigation error, success, oracle success.

One step of the loop: render the view, perceive masks, keep the ones
matching instruction landmarks, back-project them to labeled points,
accumulate the voxel grid, project the top-down map with the current
sub-goal's labels prioritized, cut and pool the matrix, advance the
plan ledger, build the prompt, query the backend, parse the reply, and
apply the action with collision clipping.  Every step leaves a full
trace (prompt, response, matrix, map snapshot, pose) so failures can be
replayed from text alone.  The ``topo`` map format's places are the
distinct map cells of the trajectory flown so far, in first-visit order.

Metrics: navigation error is the 3D distance from the stop position to
the goal; an episode succeeds only when the agent deliberately stopped
within the success radius (default 20 m); oracle success asks whether
the trajectory ever entered that radius, evaluated along the segments
between poses, not just at their endpoints, since a single action can
step through the whole ball.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import os
import pickle
import shutil
import threading
from dataclasses import dataclass, fields
from typing import NamedTuple, get_args, get_type_hints

import numpy as np

from . import planner
from .errors import (
    ActionParseError,
    StmrNavError,
    UnparseableResponseError,
    read_text,
)
from .geometry import (
    DOWNWARD_MOUNT,
    FORWARD_MOUNT,
    CameraIntrinsics,
    UavPose,
    backproject_image,
)
from .mapping import (
    TopDownMap,
    VoxelGrid,
    insert_points,
    map_snapshot,
    mark_waypoint,
    project_top_down,
)
from .perception import (
    OraclePerceptor,
    extract_landmarks,
    filter_masks,
    masks_to_label_image,
    perceive,
)
from .plan import (
    current_subgoal_labels,
    decompose_instruction,
    reconcile_plan,
    serialize_plan,
    update_plan_state,
)
from .planner import (
    Action,
    build_prompt,
    format_history,
    load_template,
    parse_response,
    query,
)
from .stmr import (
    encode_metric,
    encode_topo,
    extract_local_window,
    legend_line,
    pool_to_matrix,
    serialize_matrix,
)
from .world import Episode, Scene, apply_action, place_violations, render

DEFAULT_INTRINSICS = CameraIntrinsics(fx=40.0, fy=40.0, cx=31.5, cy=23.5,
                                      width=64, height=48)
SUCCESS_RADIUS = 20.0              # meters, for SR and OSR

# The choices of LoopConfig's string fields, each listed only here.
MOUNTS = {"forward": FORWARD_MOUNT, "down": DOWNWARD_MOUNT}
PLAN_MODES = ("state", "stateless")   # stateless regenerates each step
MAP_FORMATS = ("stmr", "topo", "metric")
MAX_WINDOW_CELLS = 1024    # widest window side, matrix_size * block cells
VOXEL_SIZE = 5.0           # meters, the map's cell side; r is a multiple
REQUERY_LIMIT = 2          # extra queries after a bad response
MAX_UNPARSEABLE = 3        # consecutive fallbacks before aborting


@dataclass
class LoopConfig:
    """The loop's tunables, defaulting to the headline setup.  What no
    caller varies is a module constant: VOXEL_SIZE, REQUERY_LIMIT,
    MAX_UNPARSEABLE, ``geometry.MAX_RANGE`` and ``world.MARGIN``."""

    tau: float = 0.8               # caption/landmark similarity threshold
    r: float = VOXEL_SIZE          # meters per matrix cell
    matrix_size: int = 20
    mount: str = "forward"         # a key of MOUNTS
    plan_mode: str = "state"       # one of PLAN_MODES
    map_format: str = "stmr"       # one of MAP_FORMATS
    max_actions: int | None = None  # None = use the episode's own cap
    template: str | None = None     # None = packaged default

    def validate(self) -> None:
        for f in fields(self):
            _check_type(f.name, getattr(self, f.name),
                        _LOOP_CONFIG_TYPES[f.name])
        if not (0.0 < self.tau < 1.0):
            raise ValueError(f"tau must be in (0, 1), got {self.tau}")
        if self.matrix_size < 2 or self.matrix_size % 2:
            raise ValueError("matrix_size must be even and at least 2")
        if not (self.matrix_size <= MAX_WINDOW_CELLS and self.matrix_size
                * self.r / VOXEL_SIZE <= MAX_WINDOW_CELLS):
            raise ValueError(
                f"the window side, matrix_size * r / {VOXEL_SIZE:g}, must "
                f"be at most {MAX_WINDOW_CELLS} cells")
        if self.block < 1 or abs(self.block * VOXEL_SIZE - self.r) > 1e-9:
            raise ValueError(
                f"r must be a whole multiple of {VOXEL_SIZE:g}, got {self.r}")
        if self.mount not in MOUNTS:
            raise ValueError(f"unknown mount {self.mount!r}")
        if self.plan_mode not in PLAN_MODES:
            raise ValueError(f"unknown plan_mode {self.plan_mode!r}")
        if self.map_format not in MAP_FORMATS:
            raise ValueError(f"unknown map_format {self.map_format!r}")
        if self.max_actions is not None and self.max_actions < 1:
            raise ValueError("max_actions must be positive")
        if self.template is not None:
            # TemplateError for an unknown placeholder before any episode;
            # via the module, as the loop's ``build_prompt`` is a seam.
            planner.build_prompt("", "", "", "", "", template=self.template)

    @property
    def block(self) -> int:
        return round(self.r / VOXEL_SIZE)

    @property
    def mount_matrix(self) -> np.ndarray:
        return MOUNTS[self.mount]


_LOOP_CONFIG_TYPES = get_type_hints(LoopConfig)


def _check_type(name: str, value, hint) -> None:
    """Reject a config value that does not fit its field's annotation.

    Float fields take ints as well (a JSON file may write 5 for 5.0) and
    must be finite.  No field is a bool, so bools are refused although
    bool subclasses int.
    """
    allowed = get_args(hint) or (hint,)
    if value is None and type(None) in allowed:
        return
    kind = allowed[0]
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise TypeError(f"{name} must be {kind.__name__}, got {value!r}")
    if kind is float and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class StepTrace:
    """Everything one step put into and got out of the backend."""

    index: int
    pose: UavPose                  # pose the prompt was built from
    prompt: str
    response: str
    action: Action | None
    matrix_text: str
    map_text: str
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class EpisodeResult:
    episode_id: str
    trajectory: tuple[UavPose, ...]
    stop_pose: UavPose
    stopped_by: str                # stop-action | max-actions | error
    ne: float
    success: bool
    oracle_success: bool
    step_traces: tuple[StepTrace, ...] = ()

    @property
    def steps(self) -> int:
        return len(self.step_traces)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def navigation_error(stop, goal) -> float:
    """3D Euclidean distance from the stop point to the goal."""
    sx, sy, sz = float(stop[0]), float(stop[1]), float(stop[2])
    gx, gy, gz = float(goal[0]), float(goal[1]), float(goal[2])
    if not all(math.isfinite(v) for v in (sx, sy, sz, gx, gy, gz)):
        raise ValueError("positions must be finite")
    return math.dist((sx, sy, sz), (gx, gy, gz))


def success(ne: float, stopped_by: str,
            radius: float = SUCCESS_RADIUS) -> bool:
    """Strictly inside the radius AND ended by a deliberate stop action."""
    return ne < radius and stopped_by == "stop-action"


def point_segment_distance(p, a, b) -> float:
    """Distance from point p to the closed segment ab (3D)."""
    p = np.asarray(p, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.linalg.norm(p - a))
    t = min(max(float((p - a) @ ab) / denom, 0.0), 1.0)
    return float(np.linalg.norm(p - (a + t * ab)))


def oracle_success(trajectory, goal,
                   radius: float = SUCCESS_RADIUS) -> bool:
    """Did the flight ever pass strictly within the radius of the goal?

    Evaluated on every inter-pose segment, so fast flythroughs count.
    """
    if not trajectory:
        raise ValueError("trajectory is empty")
    points = [t.position if isinstance(t, UavPose) else np.asarray(t)
              for t in trajectory]
    goal = np.asarray(goal, dtype=np.float64)
    if len(points) == 1:
        return float(np.linalg.norm(points[0] - goal)) < radius
    return any(point_segment_distance(goal, a, b) < radius
               for a, b in zip(points, points[1:]))


@dataclass(frozen=True)
class Summary:
    count: int
    mean_ne: float
    sr: float    # percent
    osr: float   # percent


def aggregate(results) -> Summary:
    results = list(results)
    if not results:
        raise ValueError("no results to aggregate")
    n = len(results)
    return Summary(
        count=n,
        mean_ne=sum(r.ne for r in results) / n,
        sr=100.0 * sum(r.success for r in results) / n,
        osr=100.0 * sum(r.oracle_success for r in results) / n)


def format_summary(summary: Summary) -> str:
    """Human-readable one-row table with the standard metric columns."""
    return ("episodes      NE/m      SR/%     OSR/%\n"
            f"{summary.count:8d}  {summary.mean_ne:8.3f}  "
            f"{summary.sr:8.1f}  {summary.osr:8.1f}\n")


def results_csv_text(results) -> str:
    """The text of ``results.csv``: a header row, then one row per episode."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["episode_id", "ne_m", "success", "oracle_success",
                     "steps", "stopped_by"])
    for r in results:
        writer.writerow([r.episode_id, f"{r.ne:.3f}", int(r.success),
                         int(r.oracle_success), r.steps, r.stopped_by])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# episode loop
# ---------------------------------------------------------------------------

def _mark_segment(tdmap: TopDownMap, pose_a: UavPose,
                  pose_b: UavPose) -> None:
    """Mark waypoints along the motion so the trail has no gaps."""
    dist = math.hypot(pose_b.x - pose_a.x, pose_b.y - pose_a.y)
    steps = max(1, math.ceil(dist / (tdmap.cell_size / 2.0)))
    for s in range(1, steps + 1):
        f = s / steps
        tdmap.trajectory.add(tdmap.cell_of(
            pose_a.x + f * (pose_b.x - pose_a.x),
            pose_a.y + f * (pose_b.y - pose_a.y)))


def _topo_text(trajectory, tdmap: TopDownMap, legend) -> str:
    captions = []
    for i, j in dict.fromkeys(tdmap.cell_of(p.x, p.y) for p in trajectory):
        lab = tdmap.label_at(i, j)
        name = legend.get(lab, "unexplored ground")
        captions.append(f"{name} at cell ({i}, {j})")
    return encode_topo(captions)


def _metric_text(tdmap: TopDownMap, pose: UavPose, legend,
                 half_span: float) -> str:
    nearest: dict[int, tuple[float, float, float]] = {}
    cs = tdmap.cell_size
    # Only cells in the span count.  The scan runs one cell wider on each
    # side so rounding in cell_of cannot drop a cell the test below
    # keeps, and in (i, j) order, so ties go to the cell a sorted scan of
    # every labelled cell would meet first.
    i0, j0 = tdmap.cell_of(pose.x - half_span, pose.y - half_span)
    i1, j1 = tdmap.cell_of(pose.x + half_span, pose.y + half_span)
    for i, j in itertools.product(range(i0 - 1, i1 + 2),
                                  range(j0 - 1, j1 + 2)):
        lab = tdmap.labels.get((i, j))
        if lab is None:
            continue
        x = (i + 0.5) * cs
        y = (j + 0.5) * cs
        if abs(x - pose.x) > half_span or abs(y - pose.y) > half_span:
            continue
        d2 = (x - pose.x) ** 2 + (y - pose.y) ** 2
        best = nearest.get(lab)
        if best is None or d2 < best[0]:
            nearest[lab] = (d2, x, y)
    landmarks = [(legend[lab], x, y)
                 for lab, (_, x, y) in sorted(nearest.items())]
    return encode_metric(landmarks, pose)


def run_episode(scene: Scene, episode: Episode, backend,
                perceptor=None, config: LoopConfig | None = None, *,
                turn=None, on_step=None) -> EpisodeResult:
    """Fly one episode to completion and return its result with traces.

    ``turn`` is a lock the caller holds, shared by episodes that run in
    threads: it is released only while the backend answers, so at most
    one of them computes at a time while the others wait on their
    backends.  With the default None nothing is released.

    ``on_step``, if given, is called with each ``StepTrace`` as soon as
    it is recorded, the trace of a step that ended in an error included.
    """
    config = config if config is not None else LoopConfig()
    config.validate()
    if perceptor is None:
        perceptor = OraclePerceptor(scene.legend)

    k = DEFAULT_INTRINSICS
    mount = config.mount_matrix
    legend_names = list(scene.legend.values())
    template = (config.template if config.template is not None
                else load_template())
    landmarks = extract_landmarks(episode.instruction,
                                  extra_vocab=legend_names)
    plan = decompose_instruction(episode.instruction,
                                 extra_vocab=legend_names)
    grid = VoxelGrid(voxel_size=VOXEL_SIZE,
                     known_labels=frozenset(scene.legend))
    # one map for the whole flight: each step re-projects only the
    # columns its points touched, and waypoints are marked after the
    # step's snapshot, so a step sees the trail up to its own pose
    tdmap = TopDownMap(cell_size=VOXEL_SIZE)
    mark_waypoint(tdmap, episode.start)

    pose = episode.start
    trajectory = [pose]
    traces: list[StepTrace] = []
    history: list[tuple[Action, bool]] = []
    max_actions = (config.max_actions if config.max_actions is not None
                   else episode.max_actions)
    stopped_by = "max-actions"
    consecutive_bad = 0
    noted_warnings: set[str] = set()   # stateless mode re-warns each step

    for step in range(max_actions):
        notes: list[str] = []
        try:
            depth, semantic = render(scene, pose, k, mount)
            masks = perceive(perceptor, depth, semantic)
            kept = filter_masks(masks, landmarks, tau=config.tau,
                                legend=scene.legend)
            label_img = masks_to_label_image(kept, semantic.shape)
            seen_depth = np.where(label_img > 0, depth, 0.0)
            cloud = backproject_image(seen_depth, label_img, k, pose, mount)
            insert_points(grid, cloud)

            if config.plan_mode == "stateless":
                plan = decompose_instruction(episode.instruction,
                                             extra_vocab=legend_names)
            subgoal_ids = current_subgoal_labels(plan, scene.legend,
                                                 tau=config.tau)
            project_top_down(grid, subgoal_ids, onto=tdmap)
            window = extract_local_window(tdmap, pose,
                                          size=config.matrix_size,
                                          block=config.block)
            matrix = pool_to_matrix(window, pose, scene.legend,
                                    subgoal_ids, size=config.matrix_size,
                                    cell_metric=config.r)
            plan = update_plan_state(plan, matrix, tau=config.tau)
            notes += [f"plan warning: {w}" for w in plan.warnings
                      if w not in noted_warnings]
            noted_warnings.update(plan.warnings)
            matrix_text = serialize_matrix(matrix)
            if config.map_format == "topo":
                map_text = _topo_text(trajectory, tdmap, scene.legend)
            elif config.map_format == "metric":
                map_text = _metric_text(
                    tdmap, pose, scene.legend,
                    half_span=(config.matrix_size // 2) * config.r)
            else:
                map_text = matrix_text
            bundle = build_prompt(
                episode.instruction, format_history(history), map_text,
                serialize_plan(plan), legend_line(scene.legend),
                template=template, size=config.matrix_size, r=config.r)

            raw = ""
            parsed = None
            for attempt in range(REQUERY_LIMIT + 1):
                if turn is None:
                    raw = query(backend, bundle)
                else:
                    turn.release()
                    try:
                        raw = query(backend, bundle)
                    finally:
                        turn.acquire()
                try:
                    parsed = parse_response(raw)
                    break
                except (UnparseableResponseError, ActionParseError) as exc:
                    notes.append(f"attempt {attempt + 1} unparseable: {exc}")

            if parsed is not None:
                consecutive_bad = 0
                action = parsed.action
                if action.note:
                    notes.append(f"action note: {action.note}")
                notes.extend(reconcile_plan(plan, parsed.plan_block))
            else:
                consecutive_bad += 1
                action = Action("straight", 0.0, 0.0,
                                note="fallback after re-query budget")
                notes.append("no parseable response; holding position")

            outcome = apply_action(scene, pose, action)
            if outcome.collision:
                notes.append(f"collision: {outcome.reason}")
            traces.append(StepTrace(
                index=step, pose=pose, prompt=bundle.text, response=raw,
                action=action, matrix_text=matrix_text,
                map_text=map_snapshot(tdmap, scene.legend),
                notes=tuple(notes)))
            if on_step is not None:
                on_step(traces[-1])
            history.append((action, outcome.collision))

            prev = pose
            pose = outcome.pose
            trajectory.append(pose)
            _mark_segment(tdmap, prev, pose)

            if action.verb == "stop":
                stopped_by = "stop-action"
                break
            if consecutive_bad >= MAX_UNPARSEABLE:
                stopped_by = "error"
                break
        except StmrNavError as exc:
            notes.append(f"error: {exc}")
            traces.append(StepTrace(
                index=step, pose=pose, prompt="", response="",
                action=None, matrix_text="", map_text="",
                notes=tuple(notes)))
            if on_step is not None:
                on_step(traces[-1])
            stopped_by = "error"
            break

    stop_pose = pose
    ne = navigation_error(stop_pose.position, episode.goal)
    return EpisodeResult(
        episode_id=episode.episode_id,
        trajectory=tuple(trajectory),
        stop_pose=stop_pose,
        stopped_by=stopped_by,
        ne=ne,
        success=success(ne, stopped_by),
        oracle_success=oracle_success(trajectory, episode.goal),
        step_traces=tuple(traces))


# ---------------------------------------------------------------------------
# suites and traces on disk
# ---------------------------------------------------------------------------

# A step directory's files, ``<name>.txt``, in ``StepTrace`` field order;
# ``notes`` is written only when the step has any.
_STEP_FILES = ("prompt", "response", "matrix", "map", "pose", "notes")


def write_episode_trace(result: EpisodeResult, out_root) -> None:
    """Write ``<out_root>/<episode_id>/step_<index>/`` for every step:
    prompt, response, matrix, map, pose (x y z pitch roll yaw) and any
    notes, each as ``<name>.txt``.  ``result`` needs only ``episode_id``
    and ``step_traces``.  ``read_step_trace`` reads one step back."""
    base = os.path.join(out_root, result.episode_id)
    os.makedirs(base, exist_ok=True)
    for trace in result.step_traces:
        step_dir = os.path.join(base, f"step_{trace.index}")
        os.makedirs(step_dir, exist_ok=True)
        contents = (
            trace.prompt, trace.response, trace.matrix_text, trace.map_text,
            " ".join(repr(v) for v in (
                trace.pose.x, trace.pose.y, trace.pose.z,
                trace.pose.pitch, trace.pose.roll, trace.pose.yaw)) + "\n",
            "\n".join(trace.notes) + "\n" if trace.notes else None)
        for name, content in zip(_STEP_FILES, contents):
            if content is not None:
                with open(os.path.join(step_dir, f"{name}.txt"), "w",
                          encoding="utf-8", newline="") as f:
                    f.write(content)


def read_step_trace(episode_dir, step: int) -> StepTrace | None:
    """Read back one step written by ``write_episode_trace``, or None if
    there is no such step.  Notes come back one per line; the action,
    not stored on its own, as None.  Raises OSError for a missing file
    and ValueError for a malformed pose."""
    step_dir = os.path.join(episode_dir, f"step_{step}")
    if not os.path.isdir(step_dir):
        return None
    text = {}
    for name in _STEP_FILES:
        path = os.path.join(step_dir, f"{name}.txt")
        if name != "notes" or os.path.exists(path):
            text[name] = read_text(path)
    values = text["pose"].split()
    if len(values) != 6:
        raise ValueError(f"pose.txt holds {len(values)} values, not 6")
    return StepTrace(
        index=step, pose=UavPose(*map(float, values)), prompt=text["prompt"],
        response=text["response"], action=None, matrix_text=text["matrix"],
        map_text=text["map"], notes=tuple(text.get("notes", "").splitlines()))


class _Steps(NamedTuple):
    """The part of an ``EpisodeResult`` that ``write_episode_trace`` reads."""

    episode_id: str
    step_traces: tuple[StepTrace, ...]


class _TraceWriter:
    """A forked child process that writes each step's trace as it comes,
    so the loop's own process spends no time creating files.

    The parent sends ``(index, item)`` pickles down one pipe, ``index``
    being the episode's place in the suite: each ``StepTrace`` to write,
    then True once the episode has finished, or False if it raised,
    which has the child remove the steps it wrote for it.  The child
    answers each end with ``(index, None)`` on a second pipe, or with
    ``(index, exc)`` for the exception that stopped it, and then exits.
    It needs ``os.fork``, so it runs on POSIX systems only.
    """

    def __init__(self, out_dir, episode_ids):
        self._ids = episode_ids
        steps_r, steps_w = os.pipe()
        status_r, status_w = os.pipe()
        with contextlib.suppress(AttributeError, OSError):
            # Linux only: room for about a hundred steps, so the loop
            # does not stop while the writer falls behind for a moment
            import fcntl
            fcntl.fcntl(steps_w, fcntl.F_SETPIPE_SZ, 1 << 20)
        self._pid = os.fork()
        if self._pid == 0:              # the child never returns
            code = 1
            try:
                os.close(steps_w)
                os.close(status_r)
                _write_steps(steps_r, status_w, out_dir, episode_ids)
                code = 0
            finally:
                os._exit(code)
        os.close(steps_r)
        os.close(status_w)
        self._steps = os.fdopen(steps_w, "wb")
        self._status = os.fdopen(status_r, "rb")
        self._send_lock = threading.Lock()
        self._status_lock = threading.Lock()
        self._sending = True            # False once the child has gone
        self._written: set[int] = set()     # episodes the child answered
        self._failure = None    # (index, the exception, or None if it died)

    def send(self, index: int, item) -> None:
        """Pass one step, or an episode's end, to the child.  Once the
        child has gone this does nothing; ``close`` says why it went."""
        message = pickle.dumps((index, item), pickle.HIGHEST_PROTOCOL)
        with self._send_lock:
            if self._sending:
                try:
                    self._steps.write(message)
                    self._steps.flush()
                except BrokenPipeError:
                    self._sending = False

    def wait_for(self, index: int) -> bool:
        """Wait until episode ``index`` is written (nothing to wait for
        below 0), and say whether the child is still writing."""
        with self._status_lock:
            while (self._failure is None and index >= 0
                   and index not in self._written):
                if not self._read_status():     # it died
                    self._failure = (self._first_unwritten(), None)
            return self._failure is None

    def close(self):
        """Let the child write everything sent, and reap it.  Returns the
        error that stopped it, with a note naming the episode, or None."""
        code = None
        try:
            with contextlib.suppress(BrokenPipeError):
                self._steps.close()     # the child ends at this end of file
            with self._status_lock:
                while self._failure is None and self._read_status():
                    pass
            code = os.waitstatus_to_exitcode(os.waitpid(self._pid, 0)[1])
        finally:
            self._status.close()
            if code is None:            # interrupted: wait for no writes
                import signal
                os.kill(self._pid, signal.SIGKILL)
                os.waitpid(self._pid, 0)
        if self._failure is None and code != 0:
            self._failure = (self._first_unwritten(), None)
        if self._failure is None:
            return None
        index, exc = self._failure
        if exc is None:
            exc = ChildProcessError(
                f"the trace writer exited with status {code}")
        if hasattr(exc, "add_note"):    # Python 3.11+
            exc.add_note(f"raised writing the trace of episode "
                         f"{self._ids[index]}")
        return exc

    def _read_status(self) -> bool:
        """Take the child's next answer; False once it has no more."""
        try:
            index, exc = pickle.load(self._status)
        except EOFError:
            return False
        if exc is None:
            self._written.add(index)
        else:
            self._failure = (index, exc)
        return True

    def _first_unwritten(self) -> int:
        first = next(i for i in itertools.count() if i not in self._written)
        return min(first, len(self._ids) - 1)


def _write_steps(steps_fd, status_fd, out_dir, episode_ids) -> None:
    """The body of ``_TraceWriter``'s child."""
    import signal
    os.nice(19)                 # the loop's computing comes first
    signal.signal(signal.SIGINT, signal.SIG_IGN)    # the parent stops it
    wrote = {}      # index -> (made the episode directory, steps written)
    with os.fdopen(steps_fd, "rb") as steps, \
            os.fdopen(status_fd, "wb") as status:
        while True:
            try:
                index, item = pickle.load(steps)
            except EOFError:
                return
            episode_dir = os.path.join(out_dir, episode_ids[index])
            try:
                if isinstance(item, StepTrace):
                    if index not in wrote:
                        wrote[index] = (not os.path.exists(episode_dir), [])
                    write_episode_trace(
                        _Steps(episode_ids[index], (item,)), out_dir)
                    wrote[index][1].append(item.index)
                    continue
                made, done = wrote.pop(index, (False, []))
                if not item:            # the episode raised: keep none of it
                    for step in done:
                        shutil.rmtree(os.path.join(episode_dir,
                                                   f"step_{step}"))
                    if made:
                        os.rmdir(episode_dir)
                answer = None
            except Exception as exc:    # the parent raises it
                answer = exc
            status.write(pickle.dumps((index, answer),
                                      pickle.HIGHEST_PROTOCOL))
            status.flush()
            if answer is not None:
                return


def run_suite(scene: Scene, episodes, backend_factory,
              config: LoopConfig | None = None, perceptor_factory=None,
              parallel: int = 1, out_dir=None):
    """Run a list of episodes, optionally in parallel, and persist results.

    ``backend_factory(episode, index)`` builds one backend per episode
    (backends hold per-episode state such as script position);
    ``perceptor_factory`` likewise, defaulting to the oracle.  Results
    come back in input order regardless of scheduling.  An empty
    episode list, two episodes with one id (they would share a trace
    directory), or an episode whose start lies outside ``scene`` or not
    above its ground (``world.place_violations``) is a ValueError,
    raised before ``out_dir`` is created.  The goal is only scored, so
    it may lie anywhere.
    ``out_dir`` is then created before the first episode starts, so one
    that cannot be a directory fails before any backend is built.

    With ``parallel`` above 1, up to that many episodes are in flight in
    threads, but they share one turn (see ``run_episode``): one computes
    at a time, while the others wait on their backends.

    With an ``out_dir``, a writer process is forked (POSIX ``fork``)
    before any episode starts, at the lowest priority, and each step's
    trace goes to it as soon as the step is done, so files are created
    while later steps compute.  ``results.csv`` and ``summary.txt``
    follow once the writer has finished and been reaped, which it is
    however ``run_suite`` ends, an interrupt included.  A failed write
    stops the suite: the writer exits, ``run_suite`` raises its
    ``OSError`` with a note naming the episode, and no new episode
    starts, as an episode waits to start until the writer has finished
    the one ``parallel + 1`` places before it.  A writer that dies
    raises ``ChildProcessError`` the same way.

    An exception other than ``StmrNavError`` (which ``run_episode``
    already turns into ``stopped_by=error``) is a fault in the program:
    the other episodes still run, the steps already written of the one
    that raised are removed again (and its directory, if the writer made
    it), the finished ones are kept (``summary.txt`` only if one
    finished), and then the first such exception in input order is
    re-raised, with a note naming its episode.
    """
    config = config if config is not None else LoopConfig()
    config.validate()
    if parallel < 1:
        raise ValueError("parallel must be at least 1")
    episodes = list(episodes)
    if not episodes:
        raise ValueError("no episodes to run")
    ids = [episode.episode_id for episode in episodes]
    if len(set(ids)) < len(ids):
        raise ValueError(f"episode id {max(ids, key=ids.count)!r} repeats")
    for episode in episodes:
        violations = place_violations(scene, "start", episode.start.position)
        if violations:
            raise ValueError(f"episode {episode.episode_id!r}: "
                             f"{violations[0]}")
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)

    threaded = parallel > 1 and len(episodes) > 1
    turn = threading.Lock() if threaded else None
    # forked before the pool starts any thread
    writer = _TraceWriter(out_dir, ids) if out_dir is not None else None

    def _one(pair):
        index, episode = pair
        if writer is not None and not writer.wait_for(index - parallel - 1):
            return None, None           # the writer failed: start nothing
        on_step = (None if writer is None
                   else lambda trace: writer.send(index, trace))
        with turn if threaded else contextlib.nullcontext():
            finished = False
            try:
                backend = backend_factory(episode, index)
                perceptor = (perceptor_factory(episode, index)
                             if perceptor_factory else None)
                outcome = run_episode(scene, episode, backend,
                                      perceptor=perceptor, config=config,
                                      turn=turn, on_step=on_step), None
                finished = True
            except Exception as exc:        # kept and re-raised below
                outcome = None, exc
            finally:
                if writer is not None:
                    writer.send(index, finished)
            return outcome

    results = []
    failures = []
    write_error = None
    try:
        with contextlib.ExitStack() as stack:
            if threaded:
                # imported here, so serial runs skip its start-up cost
                from concurrent.futures import ThreadPoolExecutor
                pool = stack.enter_context(ThreadPoolExecutor(parallel))
                outcomes = pool.map(_one, enumerate(episodes))
            else:
                outcomes = (_one(pair) for pair in enumerate(episodes))
            # closed before the pool joins, so an interrupt cancels the
            # episodes that have not started
            stack.enter_context(contextlib.closing(outcomes))
            for episode, (result, exc) in zip(episodes, outcomes):
                if exc is not None:
                    failures.append((episode, exc))
                else:
                    results.append(result)
    finally:
        if writer is not None:
            write_error = writer.close()
    if write_error is not None:
        raise write_error

    if out_dir is not None:
        with open(os.path.join(out_dir, "results.csv"), "w",
                  encoding="utf-8", newline="") as f:
            f.write(results_csv_text(results))
        if results or not failures:     # no summary of nothing finished
            with open(os.path.join(out_dir, "summary.txt"), "w",
                      encoding="utf-8", newline="") as f:
                f.write(format_summary(aggregate(results)))
    if failures:
        episode, exc = failures[0]
        if hasattr(exc, "add_note"):    # Python 3.11+
            exc.add_note(f"raised in episode {episode.episode_id}; "
                         f"{len(results)} of {len(episodes)} episodes "
                         f"finished")
        raise exc
    return results
