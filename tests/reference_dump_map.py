"""Reference ``dump-map`` drawing: the snapshot parser that refilled a
``TopDownMap`` cell by cell and the renderers that redrew it one cell at
a time through per-cell closures.

Kept verbatim (renamed) as the oracle for the equality property test in
``test_cli.py``: ``stmrnav dump-map`` must print the same bytes in
``ascii`` and ``pgm`` for every snapshot the loop writes.
"""

from stmrnav.mapping import TopDownMap


def parse_snapshot_reference(text: str) -> tuple[TopDownMap, dict[int, str]]:
    """Inverse of ``map_snapshot``: the map's nonzero label cells and
    visited cells, and the legend without the 0 and -1 entries the
    snapshot adds.  The cell size comes back as printed (six significant
    digits).  Raises ValueError on a malformed snapshot."""
    header = {}
    legend = {}
    grids: dict[str, list[list[int]]] = {"labels": [], "trajectory": []}
    rows = None
    for line in text.splitlines():
        parts = line.split()
        if parts in (["labels"], ["trajectory"]):
            rows = grids[parts[0]]
        elif parts and rows is not None:
            rows.append([int(v) for v in parts])
        elif parts[:1] == ["legend"] and len(parts) == 3:
            legend[int(parts[1])] = parts[2]
        elif parts:
            header[parts[0]] = parts[1:]
    try:
        (cell_size,) = map(float, header["cell_size"])
        i0, j0 = map(int, header["origin"])
        ncols, nrows = map(int, header["size"])
    except KeyError as exc:
        raise ValueError(f"map snapshot has no {exc.args[0]} line") from None
    if not cell_size > 0:
        raise ValueError(f"map snapshot cell_size {cell_size} is invalid")
    for name, grid in grids.items():
        if len(grid) != nrows or any(len(r) != ncols for r in grid):
            raise ValueError(f"map snapshot {name} grid is not "
                             f"{ncols} x {nrows}")

    tdmap = TopDownMap(cell_size=cell_size)
    for r in range(nrows):       # row 0 is northernmost
        for c in range(ncols):
            cell = (i0 + c, j0 + nrows - 1 - r)
            if grids["labels"][r][c]:
                tdmap.labels[cell] = grids["labels"][r][c]
            if grids["trajectory"][r][c]:
                tdmap.trajectory.add(cell)
    return tdmap, {lid: name for lid, name in legend.items() if lid > 0}


def _map_rows_reference(tdmap, show) -> list[list[str]]:
    """``show(i, j)`` for each cell within the map's bounds, one list per
    row, northernmost row first."""
    i0, j0, i1, j1 = tdmap.bounds() or (0, 0, -1, -1)
    return [[show(i, j) for i in range(i0, i1 + 1)]
            for j in range(j1, j0 - 1, -1)]


def ascii_map_reference(tdmap, uav_xy) -> str:
    uav_cell = tdmap.cell_of(*uav_xy)

    def char(i, j):
        lab = tdmap.label_at(i, j)
        if (i, j) == uav_cell:
            return "@"
        if (i, j) in tdmap.trajectory:
            return "*"
        return "." if lab == 0 else str(lab) if 0 < lab <= 9 else "+"
    rows = _map_rows_reference(tdmap, char)
    if not rows:
        return "(map empty)\n"
    return "".join("".join(row) + "\n" for row in rows)


def pgm_map_reference(tdmap, legend) -> str:
    max_id = max((lid for lid in legend if lid > 0), default=1)

    def gray(i, j):
        lab = tdmap.label_at(i, j)
        if (i, j) in tdmap.trajectory:
            return "255"
        return str(0 if lab <= 0 else (lab * 200) // max_id + 40)
    rows = _map_rows_reference(tdmap, gray)
    lines = ["P2", f"{len(rows[0]) if rows else 0} {len(rows)}", "255"]
    return "\n".join(lines + [" ".join(row) for row in rows]) + "\n"
