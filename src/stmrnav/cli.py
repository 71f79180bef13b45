"""Command line entry point.

Three subcommands:

* ``run`` executes an episode suite against a scene and writes per-step
  traces, a results CSV, and a summary table.
* ``dump-map`` renders one step of a saved trace, either as the matrix
  plus an ASCII top-down map or as a portable graymap image.
* ``validate`` schema-checks scene and episode files and cross-checks
  episodes against the scene bounds.

Exit codes: 0 success, 1 data error (unreadable or invalid files) or an
episode that raised a fault in the program, 2 usage error (bad flags or
configuration values).
"""

from __future__ import annotations

import argparse
import glob
import json
import sys
import traceback
from dataclasses import fields

from . import evaluation, mapping, perception, planner, world
from .errors import SceneParseError, StmrNavError, TemplateError, read_text

EXIT_OK = 0
EXIT_DATA = 1
EXIT_USAGE = 2

_CONFIG_KEYS = frozenset(f.name for f in fields(evaluation.LoopConfig))


def _load_loop_config(path, overrides) -> evaluation.LoopConfig:
    values = {}
    if path:
        data = json.loads(read_text(path))
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(data) - _CONFIG_KEYS
        if unknown:
            raise ValueError(
                f"unknown config keys: {', '.join(sorted(unknown))}")
        values.update(data)
    values.update({k: v for k, v in overrides.items() if v is not None})
    config = evaluation.LoopConfig(**values)
    config.validate()
    return config


def _expand_episode_paths(patterns) -> list[str]:
    paths = []
    for pattern in patterns:
        hits = sorted(glob.glob(pattern))
        if hits:
            paths.extend(hits)
        else:
            paths.append(pattern)  # literal path; load will fail loudly
    return list(dict.fromkeys(paths))   # first occurrence wins


def _perceptor_factory(spec: str, scene: world.Scene):
    if spec == "oracle":
        return None
    if spec.startswith("degraded"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(
                "degraded perceptor spec is degraded:<drop-rate>:<seed>")
        rate = float(parts[1])
        base_seed = int(parts[2])

        def factory(episode, index):
            return perception.DegradedOraclePerceptor(
                scene.legend, drop_rate=rate, seed=base_seed + index)
        factory(None, 0)  # the constructor rejects a bad rate here
        return factory
    raise ValueError(f"unknown perceptor spec {spec!r}")


def cmd_run(args) -> int:
    try:
        config = _load_loop_config(args.config, {
            k: v for k, v in vars(args).items() if k in _CONFIG_KEYS})
        if args.parallel < 1:
            raise ValueError("--parallel must be at least 1")
    except (ValueError, TypeError, TemplateError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_DATA

    try:
        scene = world.load_scene(args.scene)
        episode_paths = _expand_episode_paths(args.episodes)
        episodes = [world.load_episode(p) for p in episode_paths]
    except (SceneParseError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    if not episodes:
        print("no episodes to run", file=sys.stderr)
        return EXIT_USAGE

    try:
        backend_factory = planner.backend_factory(args.backend, args.seed)
        perceptor_factory = _perceptor_factory(args.perceptor, scene)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA

    try:
        results = evaluation.run_suite(
            scene, episodes, backend_factory, config=config,
            perceptor_factory=perceptor_factory, parallel=args.parallel,
            out_dir=args.out)
    except (StmrNavError, OSError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception:
        # A fault in the program.  run_suite has written the finished
        # episodes and noted which episode raised; show where it broke.
        traceback.print_exc()
        if args.out:
            print(f"finished episodes written to {args.out}",
                  file=sys.stderr)
        return EXIT_DATA

    summary = evaluation.aggregate(results)
    sys.stdout.write(evaluation.format_summary(summary))
    if args.out:
        print(f"traces and results written to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# dump-map
# ---------------------------------------------------------------------------

def _map_rows(tdmap, show) -> list[list[str]]:
    """``show(i, j)`` for each cell within the map's bounds, one list per
    row, northernmost row first."""
    i0, j0, i1, j1 = tdmap.bounds() or (0, 0, -1, -1)
    return [[show(i, j) for i in range(i0, i1 + 1)]
            for j in range(j1, j0 - 1, -1)]


def _ascii_map(tdmap, uav_xy) -> str:
    uav_cell = tdmap.cell_of(*uav_xy)

    def char(i, j):
        lab = tdmap.label_at(i, j)
        if (i, j) == uav_cell:
            return "@"
        if (i, j) in tdmap.trajectory:
            return "*"
        return "." if lab == 0 else str(lab) if 0 < lab <= 9 else "+"
    rows = _map_rows(tdmap, char)
    if not rows:
        return "(map empty)\n"
    return "".join("".join(row) + "\n" for row in rows)


def _pgm_map(tdmap, legend) -> str:
    max_id = max((lid for lid in legend if lid > 0), default=1)

    def gray(i, j):
        lab = tdmap.label_at(i, j)
        if (i, j) in tdmap.trajectory:
            return "255"
        return str(0 if lab <= 0 else (lab * 200) // max_id + 40)
    rows = _map_rows(tdmap, gray)
    lines = ["P2", f"{len(rows[0]) if rows else 0} {len(rows)}", "255"]
    return "\n".join(lines + [" ".join(row) for row in rows]) + "\n"


def cmd_dump_map(args) -> int:
    try:
        trace = evaluation.read_step_trace(args.trace, args.step)
        if trace is None:
            print(f"no step {args.step} under {args.trace}", file=sys.stderr)
            return EXIT_USAGE
        tdmap, legend = mapping.parse_snapshot(trace.map_text)
    except (OSError, ValueError) as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return EXIT_DATA

    if args.format == "pgm":
        sys.stdout.write(_pgm_map(tdmap, legend))
    else:
        sys.stdout.write(trace.matrix_text)
        if not trace.matrix_text.endswith("\n"):
            sys.stdout.write("\n")
        sys.stdout.write("\n")
        sys.stdout.write(_ascii_map(tdmap, (trace.pose.x, trace.pose.y)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    violations = []
    scene = None
    episodes = []
    for path in args.paths:
        try:
            text = read_text(path)
        except OSError as exc:
            violations.append(f"{path}: unreadable ({exc})")
            continue
        _, header = next(world.significant_lines(text), (None, ""))
        try:
            if header == "stmr-scene v1":
                parsed = world.parse_scene(text)
                if scene is None:
                    scene = parsed
            elif header == "stmr-episode v1":
                episodes.append((path, world.parse_episode(text)))
            else:
                violations.append(
                    f"{path}: unrecognized header {header!r}")
        except SceneParseError as exc:
            violations.append(f"{path}: {exc}")

    if scene is not None:
        ext_x, ext_y = scene.extent
        for path, ep in episodes:
            points = [("start", (ep.start.x, ep.start.y, ep.start.z)),
                      ("goal", tuple(ep.goal))]
            for name, (x, y, z) in points:
                if not (0 <= x < ext_x and 0 <= y < ext_y):
                    violations.append(
                        f"{path}: {name} ({x:g}, {y:g}) outside scene "
                        f"bounds {ext_x:g} x {ext_y:g}")
                elif z <= 0:
                    violations.append(
                        f"{path}: {name} altitude {z:g} is not above "
                        "ground")

    for v in violations:
        print(v)
    print(f"{len(violations)} violations")
    return EXIT_OK if not violations else EXIT_DATA


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stmrnav",
        description="Matrix-prompt aerial navigation: run suites, "
                    "inspect traces, validate data files.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an episode suite")
    run.add_argument("--scene", required=True)
    run.add_argument("--episodes", required=True, nargs="+",
                     help="episode files or globs")
    run.add_argument("--backend", default="echo",
                     help="echo | random | scripted:<file-or-dir> | "
                          "remote:<url>")
    run.add_argument("--perceptor", default="oracle",
                     help="oracle | degraded:<drop-rate>:<seed>")
    run.add_argument("--out", default=None,
                     help="directory for traces, CSV, and summary")
    run.add_argument("--parallel", type=int, default=1)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--config", default=None,
                     help="JSON file of loop settings")
    run.add_argument("--tau", type=float, default=None)
    run.add_argument("--r", type=float, default=None)
    run.add_argument("--matrix-size", type=int, default=None,
                     dest="matrix_size")
    run.add_argument("--max-actions", type=int, default=None,
                     dest="max_actions")
    run.add_argument("--plan-mode", choices=evaluation.PLAN_MODES,
                     default=None, dest="plan_mode")
    run.add_argument("--map-format", choices=evaluation.MAP_FORMATS,
                     default=None, dest="map_format")
    run.set_defaults(func=cmd_run)

    dump = sub.add_parser("dump-map", help="render one step of a trace")
    dump.add_argument("--trace", required=True,
                      help="episode trace directory (<out>/<episode-id>)")
    dump.add_argument("--step", required=True, type=int)
    dump.add_argument("--format", choices=("ascii", "pgm"),
                      default="ascii")
    dump.set_defaults(func=cmd_dump_map)

    val = sub.add_parser("validate", help="schema-check data files")
    val.add_argument("paths", nargs="+")
    val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
