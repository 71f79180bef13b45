"""From one rendered view to a semantic top-down map.

Walks the full perception-to-mapping path on the bundled riverside
scene: render a depth + semantic view from the episode start pose,
segment it with the oracle perceptor, keep the masks that match the
instruction's landmarks, back-project the surviving pixels into world
points, accumulate them in a voxel grid, and project the grid to a
top-down map.  Finally shows how sub-goal priority changes what a
column reports when the interesting label is hidden under something
taller.

Run from the repository root:

    python3 demos/01_backproject_and_map.py
"""

from importlib import resources

import numpy as np

from stmrnav.evaluation import DEFAULT_INTRINSICS, VOXEL_SIZE
from stmrnav.geometry import FORWARD_MOUNT, MAX_RANGE, backproject_image
from stmrnav.mapping import VoxelGrid, insert_points, project_top_down
from stmrnav.perception import (
    OraclePerceptor,
    extract_landmarks,
    filter_masks,
    masks_to_label_image,
)
from stmrnav.world import load_episode, load_scene, render

FIXTURES = resources.files("stmrnav") / "fixtures"


def main() -> None:
    scene = load_scene(str(FIXTURES / "riverside.scene"))
    episode = load_episode(str(FIXTURES / "ep001.episode"))
    pose = episode.start
    print(f"scene: {scene.nx}x{scene.ny} cells of {scene.cell_size} m, "
          f"legend {scene.legend}")
    print(f"episode: {episode.episode_id!r} says "
          f"{episode.instruction!r}")
    print(f"start pose: x={pose.x} y={pose.y} z={pose.z} "
          f"yaw={pose.yaw:.3f} (north)")

    k = DEFAULT_INTRINSICS
    depth, semantic = render(scene, pose, k, FORWARD_MOUNT)
    hit = depth > 0
    print(f"\nrendered a {k.width}x{k.height} forward view; "
          f"{hit.sum()} of {depth.size} rays hit within {MAX_RANGE:g} m")
    print(f"depth range over hits: {depth[hit].min():.1f} .. "
          f"{depth[hit].max():.1f} m")
    ids, counts = np.unique(semantic[hit], return_counts=True)
    seen = {scene.legend[int(i)]: int(c) for i, c in zip(ids, counts)}
    print(f"pixels per category: {seen}")

    landmarks = extract_landmarks(episode.instruction,
                                  extra_vocab=list(scene.legend.values()))
    print(f"\nlandmarks pulled from the instruction: {landmarks}")
    masks = OraclePerceptor(scene.legend).perceive(depth, semantic)
    kept = filter_masks(masks, landmarks, tau=0.8, legend=scene.legend)
    print(f"oracle produced {len(masks)} region masks; "
          f"{len(kept)} match a landmark:")
    for m in kept:
        print(f"  caption {m.caption!r} -> landmark "
              f"{m.matched_landmark!r} (label {m.label})")

    label_img = masks_to_label_image(kept, semantic.shape)
    cloud = backproject_image(np.where(label_img > 0, depth, 0.0),
                              label_img, k, pose, FORWARD_MOUNT)
    print(f"\nback-projected {len(cloud)} labeled pixels into world "
          "points")
    lo = cloud.xyz.min(axis=0).round(1)
    hi = cloud.xyz.max(axis=0).round(1)
    print(f"point bounds: x {lo[0]}..{hi[0]}  y {lo[1]}..{hi[1]}  "
          f"z {lo[2]}..{hi[2]}")

    grid = VoxelGrid(voxel_size=VOXEL_SIZE,
                     known_labels=frozenset(scene.legend))
    insert_points(grid, cloud)
    tdmap = project_top_down(grid)
    print(f"\nvoxel grid holds {len(grid.counts)} occupied voxels; "
          f"top-down map covers {len(tdmap.labels)} columns")

    # sub-goal priority: a road column under canopy reports canopy by
    # default (topmost voxel) but reports road once road is the active
    # sub-goal's label
    demo = VoxelGrid(voxel_size=5.0)
    demo.counts[(40, 40, 0)] = {1: 4}    # road at ground level
    demo.counts[(40, 40, 2)] = {5: 4}    # canopy 10 m above it
    plain = project_top_down(demo).labels[(40, 40)]
    prioritized = project_top_down(demo, frozenset({1})).labels[(40, 40)]
    print("\nsub-goal priority on a canopy-over-road column:")
    print(f"  default projection: label {plain} "
          f"({scene.legend[plain]})")
    print(f"  with road as the active sub-goal: label {prioritized} "
          f"({scene.legend[prioritized]})")


if __name__ == "__main__":
    main()
