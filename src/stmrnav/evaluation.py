"""Episode runner and metrics: navigation error, success, oracle success.

One step of the loop: render the view, perceive masks, keep the ones
matching instruction landmarks, back-project them to labeled points,
accumulate the voxel grid, project the top-down map with the current
sub-goal's labels prioritized, cut and pool the matrix, advance the
plan ledger, build the prompt, query the backend, parse the reply, and
apply the action with collision clipping.  Every step leaves a full
trace (prompt, response, matrix, map snapshot, pose) so failures can be
replayed from text alone.

Metrics: navigation error is the 3D distance from the stop position to
the goal; an episode succeeds only when the agent deliberately stopped
within the success radius (default 20 m); oracle success asks whether
the trajectory ever entered that radius, evaluated along the segments
between poses, not just at their endpoints, since a single action can
step through the whole ball.
"""

from __future__ import annotations

import csv
import io
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from typing import get_args, get_type_hints

import numpy as np

from . import planner
from .errors import ActionParseError, StmrNavError, UnparseableResponseError
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
    TASK_DESCRIPTION,
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
from .world import Episode, Scene, apply_action, render

DEFAULT_INTRINSICS = CameraIntrinsics(fx=40.0, fy=40.0, cx=31.5, cy=23.5,
                                      width=64, height=48)


@dataclass
class LoopConfig:
    """Every tunable of the loop, defaulting to the headline setup."""

    tau: float = 0.8               # caption/landmark similarity threshold
    r: float = 5.0                 # meters per matrix cell
    matrix_size: int = 20
    voxel_size: float = 5.0
    max_range: float = 100.0       # depth reliability cutoff
    intrinsics: CameraIntrinsics = DEFAULT_INTRINSICS
    mount: str = "forward"         # or "down"
    margin: float = 0.5            # collision standoff, meters
    requery_limit: int = 2         # extra queries after a bad response
    max_unparseable: int = 3       # consecutive fallbacks before aborting
    plan_mode: str = "state"       # or "stateless" (regenerate each step)
    map_format: str = "stmr"       # or "topo" / "metric"
    success_radius: float = 20.0
    max_actions: int | None = None  # None = use the episode's own cap
    template: str | None = None     # None = packaged default
    task_description: str = TASK_DESCRIPTION

    def validate(self) -> None:
        for f in fields(self):
            _check_type(f.name, getattr(self, f.name),
                        _LOOP_CONFIG_TYPES[f.name])
        if not (0.0 < self.tau < 1.0):
            raise ValueError(f"tau must be in (0, 1), got {self.tau}")
        if self.matrix_size < 2 or self.matrix_size % 2:
            raise ValueError("matrix_size must be even and at least 2")
        if not self.voxel_size > 0:
            raise ValueError("voxel_size must be positive")
        block = round(self.r / self.voxel_size)
        if block < 1 or abs(block * self.voxel_size - self.r) > 1e-9:
            raise ValueError(
                "r must be a whole multiple of voxel_size "
                f"(r={self.r}, voxel_size={self.voxel_size})")
        if not self.max_range > 0:
            raise ValueError("max_range must be positive")
        if self.margin < 0:
            raise ValueError("margin cannot be negative")
        if self.mount not in ("forward", "down"):
            raise ValueError(f"unknown mount {self.mount!r}")
        if self.plan_mode not in ("state", "stateless"):
            raise ValueError(f"unknown plan_mode {self.plan_mode!r}")
        if self.map_format not in ("stmr", "topo", "metric"):
            raise ValueError(f"unknown map_format {self.map_format!r}")
        if self.requery_limit < 0:
            raise ValueError("requery_limit cannot be negative")
        if self.max_unparseable < 1:
            raise ValueError("max_unparseable must be at least 1")
        if not self.success_radius > 0:
            raise ValueError("success_radius must be positive")
        if self.max_actions is not None and self.max_actions < 1:
            raise ValueError("max_actions must be positive")
        if self.template is not None:
            # TemplateError for an unknown placeholder before any episode;
            # via the module, as the loop's ``build_prompt`` is a seam.
            planner.build_prompt("", "", "", "", "", template=self.template)

    @property
    def block(self) -> int:
        return round(self.r / self.voxel_size)

    @property
    def mount_matrix(self) -> np.ndarray:
        return FORWARD_MOUNT if self.mount == "forward" else DOWNWARD_MOUNT


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


def success(ne: float, stopped_by: str, radius: float = 20.0) -> bool:
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


def oracle_success(trajectory, goal, radius: float = 20.0) -> bool:
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


def write_results_csv(results, stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["episode_id", "ne_m", "success", "oracle_success",
                     "steps", "stopped_by"])
    for r in results:
        writer.writerow([r.episode_id, f"{r.ne:.3f}", int(r.success),
                         int(r.oracle_success), r.steps, r.stopped_by])


def results_csv_text(results) -> str:
    buf = io.StringIO()
    write_results_csv(results, buf)
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
        mark_waypoint(tdmap, UavPose(
            pose_a.x + f * (pose_b.x - pose_a.x),
            pose_a.y + f * (pose_b.y - pose_a.y),
            pose_b.z, pitch=pose_b.pitch, roll=pose_b.roll,
            yaw=pose_b.yaw))


def _visited_cells_in_order(order: list, tdmap: TopDownMap,
                            pose: UavPose) -> None:
    cell = tdmap.cell_of(pose.x, pose.y)
    if not order or order[-1] != cell:
        if cell not in order:
            order.append(cell)


def _topo_text(order, tdmap: TopDownMap, legend) -> str:
    captions = []
    for i, j in order:
        lab = tdmap.label_at(i, j)
        name = legend.get(lab, "unexplored ground")
        captions.append(f"{name} at cell ({i}, {j})")
    adjacency = {}
    for k in range(len(order)):
        neighbors = []
        if k > 0:
            neighbors.append(k - 1)
        if k + 1 < len(order):
            neighbors.append(k + 1)
        adjacency[k] = neighbors
    return encode_topo(captions, adjacency)


def _metric_text(tdmap: TopDownMap, pose: UavPose, legend,
                 half_span: float) -> str:
    nearest: dict[int, tuple[float, float, float]] = {}
    cs = tdmap.cell_size
    for (i, j), lab in sorted(tdmap.labels.items()):
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
                perceptor=None, config: LoopConfig | None = None
                ) -> EpisodeResult:
    """Fly one episode to completion and return its result with traces."""
    config = config if config is not None else LoopConfig()
    config.validate()
    if perceptor is None:
        perceptor = OraclePerceptor(scene.legend)

    k = config.intrinsics
    mount = config.mount_matrix
    legend_names = list(scene.legend.values())
    template = (config.template if config.template is not None
                else load_template())
    landmarks = extract_landmarks(episode.instruction,
                                  extra_vocab=legend_names)
    plan = decompose_instruction(episode.instruction,
                                 extra_vocab=legend_names)
    grid = VoxelGrid(voxel_size=config.voxel_size,
                     known_labels=frozenset(scene.legend))
    # one map for the whole flight: each step re-projects only the
    # columns its points touched, and waypoints are marked after the
    # step's snapshot, so a step sees the trail up to its own pose
    tdmap = TopDownMap(cell_size=config.voxel_size)
    mark_waypoint(tdmap, episode.start)
    visited_order: list[tuple[int, int]] = []
    _visited_cells_in_order(visited_order, tdmap, episode.start)

    pose = episode.start
    trajectory = [pose]
    traces: list[StepTrace] = []
    history: list[tuple[Action, bool]] = []
    max_actions = (config.max_actions if config.max_actions is not None
                   else episode.max_actions)
    stopped_by = "max-actions"
    consecutive_bad = 0

    for step in range(max_actions):
        notes: list[str] = []
        try:
            depth, semantic = render(scene, pose, k, mount,
                                     max_range=config.max_range)
            masks = perceive(perceptor, depth, semantic)
            kept = filter_masks(masks, landmarks, tau=config.tau,
                                legend=scene.legend)
            label_img = masks_to_label_image(kept, semantic.shape)
            seen_depth = np.where(label_img > 0, depth, 0.0)
            cloud = backproject_image(seen_depth, label_img, k, pose,
                                      mount, max_range=config.max_range)
            insert_points(grid, cloud)

            if config.plan_mode == "stateless":
                plan = decompose_instruction(episode.instruction,
                                             extra_vocab=legend_names)
            subgoal_ids = current_subgoal_labels(plan, scene.legend)
            project_top_down(grid, subgoal_ids, onto=tdmap)
            window = extract_local_window(tdmap, pose,
                                          size=config.matrix_size,
                                          block=config.block)
            matrix = pool_to_matrix(window, pose, scene.legend,
                                    subgoal_ids, size=config.matrix_size,
                                    cell_metric=config.r)
            plan = update_plan_state(plan, matrix)
            matrix_text = serialize_matrix(matrix)
            if config.map_format == "topo":
                map_text = _topo_text(visited_order, tdmap, scene.legend)
            elif config.map_format == "metric":
                map_text = _metric_text(
                    tdmap, pose, scene.legend,
                    half_span=(config.matrix_size // 2) * config.r)
            else:
                map_text = matrix_text
            bundle = build_prompt(
                episode.instruction, format_history(history), map_text,
                serialize_plan(plan), legend_line(scene.legend),
                template=template,
                task_description=config.task_description,
                size=config.matrix_size, r=config.r)

            raw = ""
            parsed = None
            for attempt in range(config.requery_limit + 1):
                raw = query(backend, bundle)
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

            outcome = apply_action(scene, pose, action,
                                   margin=config.margin)
            if outcome.collision:
                notes.append(f"collision: {outcome.reason}")
            traces.append(StepTrace(
                index=step, pose=pose, prompt=bundle.text, response=raw,
                action=action, matrix_text=matrix_text,
                map_text=map_snapshot(tdmap, scene.legend),
                notes=tuple(notes)))
            history.append((action, outcome.collision))

            prev = pose
            pose = outcome.pose
            trajectory.append(pose)
            _mark_segment(tdmap, prev, pose)
            _visited_cells_in_order(visited_order, tdmap, pose)

            if action.verb == "stop":
                stopped_by = "stop-action"
                break
            if consecutive_bad >= config.max_unparseable:
                stopped_by = "error"
                break
        except StmrNavError as exc:
            notes.append(f"error: {exc}")
            traces.append(StepTrace(
                index=step, pose=pose, prompt="", response="",
                action=None, matrix_text="", map_text="",
                notes=tuple(notes)))
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
        success=success(ne, stopped_by, config.success_radius),
        oracle_success=oracle_success(trajectory, episode.goal,
                                      config.success_radius),
        step_traces=tuple(traces))


# ---------------------------------------------------------------------------
# suites and traces on disk
# ---------------------------------------------------------------------------

def write_episode_trace(result: EpisodeResult, out_root) -> None:
    """Write ``<out_root>/<episode_id>/step_<index>/`` for every step:
    prompt, response, matrix, map, pose (x y z pitch roll yaw) and any
    notes, each as ``<name>.txt``.  ``read_step_trace`` reads one back."""
    base = os.path.join(out_root, result.episode_id)
    os.makedirs(base, exist_ok=True)
    for trace in result.step_traces:
        step_dir = os.path.join(base, f"step_{trace.index}")
        os.makedirs(step_dir, exist_ok=True)
        files = {
            "prompt.txt": trace.prompt,
            "response.txt": trace.response,
            "matrix.txt": trace.matrix_text,
            "map.txt": trace.map_text,
            "pose.txt": " ".join(repr(v) for v in (
                trace.pose.x, trace.pose.y, trace.pose.z,
                trace.pose.pitch, trace.pose.roll, trace.pose.yaw)) + "\n",
        }
        if trace.notes:
            files["notes.txt"] = "\n".join(trace.notes) + "\n"
        for name, content in files.items():
            with open(os.path.join(step_dir, name), "w",
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
    for name in ("prompt", "response", "matrix", "map", "pose", "notes"):
        path = os.path.join(step_dir, f"{name}.txt")
        if name != "notes" or os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                text[name] = f.read()
    values = text["pose"].split()
    if len(values) != 6:
        raise ValueError(f"pose.txt holds {len(values)} values, not 6")
    return StepTrace(
        index=step, pose=UavPose(*map(float, values)), prompt=text["prompt"],
        response=text["response"], action=None, matrix_text=text["matrix"],
        map_text=text["map"], notes=tuple(text.get("notes", "").splitlines()))


def run_suite(scene: Scene, episodes, backend_factory,
              config: LoopConfig | None = None, perceptor_factory=None,
              parallel: int = 1, out_dir=None):
    """Run a list of episodes, optionally in parallel, and persist results.

    ``backend_factory(episode, index)`` builds one backend per episode
    (backends hold per-episode state such as script position);
    ``perceptor_factory`` likewise, defaulting to the oracle.  Results
    come back in input order regardless of scheduling.  An empty
    episode list is a ValueError, raised before ``out_dir`` is created.

    An exception other than ``StmrNavError`` (which ``run_episode``
    already turns into ``stopped_by=error``) is a fault in the program:
    the other episodes still run, the finished ones are written to
    ``out_dir`` in input order (``summary.txt`` only if one finished),
    and then the first such exception in input order is re-raised, with
    a note naming its episode.
    """
    config = config if config is not None else LoopConfig()
    config.validate()
    if parallel < 1:
        raise ValueError("parallel must be at least 1")
    episodes = list(episodes)
    if not episodes:
        raise ValueError("no episodes to run")

    def _one(pair):
        index, episode = pair
        try:
            backend = backend_factory(episode, index)
            perceptor = (perceptor_factory(episode, index)
                         if perceptor_factory else None)
            return run_episode(scene, episode, backend, perceptor=perceptor,
                               config=config), None
        except Exception as exc:        # kept and re-raised below
            return None, exc

    if parallel == 1 or len(episodes) <= 1:
        outcomes = [_one(p) for p in enumerate(episodes)]
    else:
        with ThreadPoolExecutor(max_workers=parallel) as pool:
            outcomes = list(pool.map(_one, enumerate(episodes)))
    results = [result for result, exc in outcomes if exc is None]
    failures = [(episode, exc) for episode, (_, exc)
                in zip(episodes, outcomes) if exc is not None]

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for result in results:
            write_episode_trace(result, out_dir)
        with open(os.path.join(out_dir, "results.csv"), "w",
                  encoding="utf-8", newline="") as f:
            write_results_csv(results, f)
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
