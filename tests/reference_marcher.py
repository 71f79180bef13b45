"""Reference ray marcher: the lockstep traversal ``world.march_rays`` used
before it learned to carry only live rays.

Kept verbatim as the oracle for the bit-identity property tests in
``test_march_rays.py``: every ray advances one cell per vectorized step
until it hits, leaves the scene or passes ``t_limit``, with all four hit
candidates evaluated for every ray that entered the scene.
"""

import numpy as np

from stmrnav.world import Scene

_MISS_EPS = 1e-12


def _slab_interval(o: float, d: np.ndarray, lo: float, hi: float,
                   t0: np.ndarray, t1: np.ndarray):
    """Intersect [t0, t1] with the slab lo <= o + d*t <= hi, in place."""
    nonzero = d != 0
    with np.errstate(divide="ignore", invalid="ignore"):
        ta = np.where(nonzero, (lo - o) / d, -np.inf)
        tb = np.where(nonzero, (hi - o) / d, np.inf)
    lo_t = np.minimum(ta, tb)
    hi_t = np.maximum(ta, tb)
    inside = nonzero | ((o >= lo) & (o < hi))
    np.maximum(t0, np.where(nonzero, lo_t, -np.inf), out=t0)
    np.minimum(t1, np.where(nonzero, hi_t, np.inf), out=t1)
    t1[~inside] = -np.inf


def march_rays_reference(scene: Scene, origin: np.ndarray, dirs: np.ndarray,
                         t_limit: float):
    """Trace rays from a common origin through the height field.

    ``dirs`` is (N, 3) and need not be unit length; hit parameters are
    in units of each direction vector, clipped at ``t_limit``.  Returns
    (t_hit, hit_label), both (N,).  Misses carry t_hit = 0 and label 0.
    """
    dirs = np.asarray(dirs, dtype=np.float64)
    n = dirs.shape[0]
    ox, oy, oz = (float(origin[0]), float(origin[1]), float(origin[2]))
    dx, dy, dz = dirs[:, 0], dirs[:, 1], dirs[:, 2]
    ext_x, ext_y = scene.extent
    cs = scene.cell_size

    t_hit = np.zeros(n)
    hit_label = np.zeros(n, dtype=np.int64)

    t_enter = np.zeros(n)
    t_exit = np.full(n, float(t_limit))
    _slab_interval(ox, dx, 0.0, ext_x, t_enter, t_exit)
    _slab_interval(oy, dy, 0.0, ext_y, t_enter, t_exit)
    active = t_enter < t_exit
    if not active.any():
        return t_hit, hit_label

    idx = np.nonzero(active)[0]
    te = t_enter[idx]
    tx = t_exit[idx]
    adx, ady, adz = dx[idx], dy[idx], dz[idx]
    px = ox + adx * te
    py = oy + ady * te
    ix = np.clip(np.floor(px / cs).astype(np.int64), 0, scene.nx - 1)
    iy = np.clip(np.floor(py / cs).astype(np.int64), 0, scene.ny - 1)

    step_x = np.where(adx > 0, 1, -1).astype(np.int64)
    step_y = np.where(ady > 0, 1, -1).astype(np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        next_x = np.where(adx > 0, (ix + 1) * cs, ix * cs)
        next_y = np.where(ady > 0, (iy + 1) * cs, iy * cs)
        t_max_x = np.where(adx != 0, te + (next_x - px) / adx, np.inf)
        t_max_y = np.where(ady != 0, te + (next_y - py) / ady, np.inf)
        t_delta_x = np.where(adx != 0, cs / np.abs(adx), np.inf)
        t_delta_y = np.where(ady != 0, cs / np.abs(ady), np.inf)

    t_cur = te
    alive = np.ones(idx.shape[0], dtype=bool)
    for _ in range(scene.nx + scene.ny + 4):
        if not alive.any():
            break
        inb = (ix >= 0) & (ix < scene.nx) & (iy >= 0) & (iy < scene.ny)
        alive &= inb
        jx = np.clip(ix, 0, scene.nx - 1)
        jy = np.clip(iy, 0, scene.ny - 1)
        hi = scene.height[jy, jx]
        lab = scene.label[jy, jx]
        clr = scene.clearance[jy, jx]
        canopy = clr > 0
        lo = np.where(canopy, clr, -np.inf)

        t1 = np.minimum(np.minimum(t_max_x, t_max_y), tx)
        z0 = oz + adz * t_cur
        inf = np.inf
        with np.errstate(divide="ignore", invalid="ignore"):
            # entered the cell already inside the occupied band
            c1 = np.where((z0 >= lo) & (z0 <= hi), t_cur, inf)
            # descending onto the top of the band
            t_top = np.where(adz != 0, (hi - oz) / adz, inf)
            c2 = np.where((adz < 0) & (z0 > hi) & (t_top <= t1), t_top, inf)
            # ascending into the underside of an elevated band
            t_bot = np.where(adz != 0, (lo - oz) / adz, inf)
            c3 = np.where(canopy & (adz > 0) & (z0 < lo) & (t_bot <= t1),
                          t_bot, inf)
            # descending to the ground beneath an elevated band
            t_g = np.where(adz != 0, -oz / adz, inf)
            c4 = np.where(canopy & (adz < 0) & (t_g >= t_cur) & (t_g <= t1),
                          t_g, inf)
        cand = np.stack([c1, c2, c3, c4])
        best = np.argmin(cand, axis=0)
        t_best = cand[best, np.arange(cand.shape[1])]
        hit = alive & np.isfinite(t_best)
        if hit.any():
            rows = idx[hit]
            t_hit[rows] = t_best[hit]
            hit_label[rows] = np.where(best[hit] == 3, scene.under_label,
                                       lab[hit])
            alive &= ~hit

        pick_x = t_max_x <= t_max_y
        t_next = np.where(pick_x, t_max_x, t_max_y)
        ix = np.where(alive & pick_x, ix + step_x, ix)
        iy = np.where(alive & ~pick_x, iy + step_y, iy)
        t_max_x = np.where(alive & pick_x, t_max_x + t_delta_x, t_max_x)
        t_max_y = np.where(alive & ~pick_x, t_max_y + t_delta_y, t_max_y)
        t_cur = np.where(alive, t_next, t_cur)
        alive &= t_cur < tx - _MISS_EPS

    return t_hit, hit_label
