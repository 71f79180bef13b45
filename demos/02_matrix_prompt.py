"""The 20x20 matrix prompt and its two text alternatives.

Builds the numeric matrix an LLM sees each step: cut a north-up window
from the top-down map, pool it into matrix cells, drop the orientation
token into the center, and serialize.  Then shows the same mapped
content as a place-graph paragraph and as bearing/range clauses, the
two encodings the matrix is normally compared against.

Run from the repository root:

    python3 demos/02_matrix_prompt.py
"""

import math
from importlib import resources

from stmrnav.evaluation import DEFAULT_INTRINSICS
from stmrnav.geometry import FORWARD_MOUNT, UavPose, backproject_image
from stmrnav.mapping import (
    VoxelGrid,
    insert_points,
    mark_waypoint,
    project_top_down,
)
from stmrnav.perception import OraclePerceptor, masks_to_label_image
from stmrnav.stmr import (
    encode_metric,
    encode_topo,
    extract_local_window,
    parse_matrix,
    pool_to_matrix,
    serialize_matrix,
)
from stmrnav.world import load_episode, load_scene, render

FIXTURES = resources.files("stmrnav") / "fixtures"


def build_map(scene, pose):
    """Render one view and map every category the oracle can see."""
    depth, semantic = render(scene, pose, DEFAULT_INTRINSICS,
                             FORWARD_MOUNT, max_range=100.0)
    masks = OraclePerceptor(scene.legend).perceive(depth, semantic)
    label_img = masks_to_label_image(masks, semantic.shape)
    cloud = backproject_image(depth, label_img, DEFAULT_INTRINSICS, pose,
                              FORWARD_MOUNT, max_range=100.0)
    grid = VoxelGrid(voxel_size=5.0, known_labels=frozenset(scene.legend))
    insert_points(grid, cloud)
    tdmap = project_top_down(grid)
    mark_waypoint(tdmap, pose)
    return tdmap


def main() -> None:
    scene = load_scene(str(FIXTURES / "riverside.scene"))
    episode = load_episode(str(FIXTURES / "ep002.episode"))
    pose = episode.start
    tdmap = build_map(scene, pose)

    window = extract_local_window(tdmap, pose, size=20, block=1)
    matrix = pool_to_matrix(window, pose, scene.legend, frozenset(),
                            size=20, cell_metric=5.0)
    text = serialize_matrix(matrix)
    print("matrix prompt at the episode start "
          f"({episode.instruction!r}):\n")
    print(text)

    token = text.splitlines()[11].split(" ")[10]
    print(f"\ncenter token: {token!r} "
          "(heading bucket + camera pitch in degrees)")

    turned = UavPose(pose.x, pose.y, pose.z, pitch=math.radians(30),
                     roll=0.0, yaw=pose.yaw + math.pi)
    turned_text = serialize_matrix(
        pool_to_matrix(window, turned, scene.legend, frozenset(),
                       size=20, cell_metric=5.0))
    new_token = turned_text.splitlines()[11].split(" ")[10]
    changed = sum(a != b for a, b in zip(text.split(), turned_text.split()))
    print(f"after an in-place half turn with the camera pitched down 30 "
          f"degrees the token is {new_token!r} and {changed} token(s) "
          "changed in total")

    parsed = parse_matrix(text)
    print(f"\nround trip: parse_matrix returns a {parsed.size}x"
          f"{parsed.size} matrix, legend {parsed.legend}")

    # the same map as a place chain: caption each visited/known cell
    captions = ["grass bank where the flight starts",
                "road running east", "river crossing under the road"]
    print("\nplace-chain encoding of a three-stop tour:")
    print(encode_topo(captions))

    # and as metric clauses: nearest mapped cell of each category
    nearest = {}
    for (i, j), lab in sorted(tdmap.labels.items()):
        x = (i + 0.5) * tdmap.cell_size
        y = (j + 0.5) * tdmap.cell_size
        d2 = (x - pose.x) ** 2 + (y - pose.y) ** 2
        if lab not in nearest or d2 < nearest[lab][0]:
            nearest[lab] = (d2, x, y)
    landmarks = [(scene.legend[lab], x, y)
                 for lab, (_, x, y) in sorted(nearest.items())]
    print("\nbearing/range encoding of the same map:")
    print(encode_metric(landmarks, pose))


if __name__ == "__main__":
    main()
