"""Span tracing for the traced run, from outside the program.

``Tracer`` swaps timing wrappers in for the layer functions that
``stmrnav.evaluation`` looks up by name on every step, and puts the
originals back when it exits.  Each wrapped call records a span: name,
start, end, parent span and the ``(episode_id, step)`` it belongs to.
State is per thread, so episodes running on a suite's worker threads
are attributed separately.

A step span (``evaluation.step``) opens when a step's render starts and
closes when the next render starts or the episode returns, so its self
time is the loop's own glue between the wrapped layers.

Spans are kept in memory and summarised after the run.  A layer's self
time is its span's duration minus the time its child spans cover
(children on one thread nest and never overlap, so that is the sum of
their durations).
"""

from __future__ import annotations

import os
import threading
import time
from collections import defaultdict

STEP = "evaluation.step"

# stmrnav.evaluation attribute -> span name.  The plan ledger's calls
# share one span, ``plan.update``.
LAYERS = {
    "render": "world.render",
    "apply_action": "world.apply_action",
    "perceive": "perception.perceive",
    "filter_masks": "perception.filter_masks",
    "masks_to_label_image": "perception.masks_to_label_image",
    "backproject_image": "geometry.backproject_image",
    "insert_points": "mapping.insert_points",
    "project_top_down": "mapping.project_top_down",
    "map_snapshot": "mapping.map_snapshot",
    "extract_local_window": "stmr.extract_local_window",
    "pool_to_matrix": "stmr.pool_to_matrix",
    "serialize_matrix": "stmr.serialize_matrix",
    "current_subgoal_labels": "plan.update",
    "update_plan_state": "plan.update",
    "serialize_plan": "plan.update",
    "reconcile_plan": "plan.update",
    "decompose_instruction": "plan.update",
    "build_prompt": "planner.build_prompt",
    "query": "planner.query",
    "parse_response": "planner.parse_response",
    "run_episode": "evaluation.run_episode",
    "write_episode_trace": "evaluation.write_episode_trace",
}

SPAN_NAMES = tuple(dict.fromkeys(
    [n for n in LAYERS.values() if n != "evaluation.run_episode"]
    + [STEP, "evaluation.run_episode"]))


class TracingError(RuntimeError):
    """The program no longer has a layer the tracer must wrap."""


def missing_layers(module) -> list[str]:
    """Attributes of ``LAYERS`` that ``module`` lacks or cannot call."""
    return [a for a in LAYERS if not callable(getattr(module, a, None))]


class Span:
    __slots__ = ("name", "start", "end", "parent", "root", "episode",
                 "step", "thread", "child", "info", "attr")

    def __init__(self, name, parent, root, episode, step, attr=None):
        self.name = name
        self.parent = parent
        self.root = root          # the run_episode span this call serves
        self.episode = episode
        self.step = step
        self.thread = threading.get_ident()
        self.child = 0.0
        self.info = None
        self.attr = attr
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


# Facts read off a call's arguments and result once its span has ended,
# so the reading is tracing overhead, not layer time.
def _render_info(args, kwargs, result):
    semantic = result[1]
    return (int((semantic > 0).sum()), int(semantic.size))


def _filter_info(args, kwargs, result):
    masks = args[0] if args else kwargs["masks"]
    return (len(result), len(masks))


def _write_info(args, kwargs, result):
    episode_result = args[0] if args else kwargs["result"]
    out_root = args[1] if len(args) > 1 else kwargs["out_root"]
    total = 0
    for dirpath, _, files in os.walk(
            os.path.join(out_root, episode_result.episode_id)):
        total += sum(os.path.getsize(os.path.join(dirpath, f))
                     for f in files)
    return total


_INFO = {
    "render": _render_info,
    "apply_action": lambda a, k, r: bool(r.collision),
    "perceive": lambda a, k, r: len(r),
    "filter_masks": _filter_info,
    "backproject_image": lambda a, k, r: len(r),
    "map_snapshot": lambda a, k, r: r,
    "serialize_plan": lambda a, k, r: r,
    "build_prompt": lambda a, k, r: len(r.text),
    "write_episode_trace": _write_info,
}


class Tracer:
    """Context manager that traces every layer call of ``module``.

    Refuses to start, naming what is missing, if any attribute in
    ``LAYERS`` is gone or not callable, so a renamed layer fails loudly
    instead of reading as zero.  Restores every original on exit.
    """

    def __init__(self, module):
        self.module = module
        self.spans: list[Span] = []
        self._local = threading.local()
        self._originals: dict[str, object] = {}

    # -- installation --------------------------------------------------

    def __enter__(self):
        missing = missing_layers(self.module)
        if missing:
            raise TracingError(
                f"{self.module.__name__} has no callable "
                + ", ".join(missing)
                + "; the benchmark's layer list must follow the rename")
        for attr, name in LAYERS.items():
            original = getattr(self.module, attr)
            self._originals[attr] = original
            setattr(self.module, attr, self._wrap(attr, name, original))
        return self

    def __exit__(self, *exc):
        for attr, original in self._originals.items():
            setattr(self.module, attr, original)
        self._originals.clear()
        return False

    # -- per-thread state ----------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.root = None
            local.episode = None
            local.step = None
            local.step_span = None
        return local

    def _open(self, local, name, attr=None) -> Span:
        parent = local.stack[-1] if local.stack else None
        span = Span(name, parent, local.root, local.episode, local.step,
                    attr)
        local.stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, local, span: Span) -> None:
        span.end = time.perf_counter()
        local.stack.pop()
        if span.parent is not None:
            span.parent.child += span.end - span.start
        self.spans.append(span)

    def _end_step(self, local) -> None:
        if local.step_span is not None:
            self._close(local, local.step_span)
            local.step_span = None

    def _wrap(self, attr, name, fn):
        info = _INFO.get(attr)
        tracer = self

        def traced(*args, **kwargs):
            local = tracer._state()
            if attr == "run_episode":
                episode = args[1] if len(args) > 1 else kwargs["episode"]
                local.episode, local.step = episode.episode_id, None
            elif attr == "write_episode_trace":
                result = args[0] if args else kwargs["result"]
                local.episode, local.step = result.episode_id, None
            elif attr == "render":
                tracer._end_step(local)
                local.step = 0 if local.step is None else local.step + 1
                local.step_span = tracer._open(local, STEP)
            span = tracer._open(local, name, attr)
            if attr == "run_episode":
                span.root = local.root = span
            try:
                result = fn(*args, **kwargs)
            finally:
                if attr == "run_episode":
                    tracer._end_step(local)
                tracer._close(local, span)
                if attr in ("run_episode", "write_episode_trace"):
                    local.root = local.episode = local.step = None
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]; 0.0 when empty."""
    if not values:
        return 0.0
    values = sorted(values)
    pos = (len(values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def _nonzero_label_cells(snapshot: str) -> int:
    """Nonzero cells of a map snapshot's label grid."""
    _, _, rest = snapshot.partition("\nlabels\n")
    grid, _, _ = rest.partition("\ntrajectory\n")
    return sum(1 for v in grid.split() if v != "0")


def summarize(spans, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of ``passes`` traced passes.

    Counts and self times are per pass; percentiles are of single-call
    durations.  Returns ``{metric name: (value, unit)}``.
    """
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    out: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        group = by_name.get(name, [])
        durations = [s.duration * 1e3 for s in group]
        out[f"{name}.calls"] = (len(group) / passes, "count")
        out[f"{name}.self_ms"] = (
            sum(s.self_time for s in group) * 1e3 / passes, "ms")
        out[f"{name}.p50_ms"] = (percentile(durations, 50), "ms")
        out[f"{name}.p95_ms"] = (percentile(durations, 95), "ms")

    def infos(attr):
        return [s.info for s in spans if s.attr == attr]

    def ratio(pairs):
        den = sum(b for _, b in pairs)
        return sum(a for a, _ in pairs) / den if den else 0.0

    steps = max(len(by_name.get(STEP, [])), 1)
    prompts = infos("build_prompt")
    # the last snapshot and plan of each episode run; spans are stored
    # in closing order
    last_snapshot = {s.root: s.info for s in spans
                     if s.attr == "map_snapshot"}
    last_plan = {s.root: s.info for s in spans
                 if s.attr == "serialize_plan"}
    episodes = max(len(by_name.get("evaluation.run_episode", [])), 1)

    out["world.render.hit_ratio"] = (ratio(infos("render")), "ratio")
    out["world.apply_action.collisions"] = (
        sum(infos("apply_action")) / passes, "count")
    out["perception.masks_per_step"] = (
        sum(infos("perceive")) / steps, "count/step")
    out["perception.filter_masks.keep_ratio"] = (
        ratio(infos("filter_masks")), "ratio")
    out["geometry.points_per_step"] = (
        sum(infos("backproject_image")) / steps, "count/step")
    out["mapping.mapped_cells"] = (
        sum(_nonzero_label_cells(t) for t in last_snapshot.values())
        / episodes, "count")
    out["plan.subgoals_completed"] = (
        sum(t.count("(Completed)") for t in last_plan.values()) / passes,
        "count")
    out["planner.prompt_chars_mean"] = (
        sum(prompts) / len(prompts) if prompts else 0.0, "chars")
    out["planner.queries_per_step"] = (
        len(by_name.get("planner.query", [])) / steps, "count/step")
    out["evaluation.write_episode_trace.bytes"] = (
        sum(infos("write_episode_trace")) / passes, "B")
    return out
