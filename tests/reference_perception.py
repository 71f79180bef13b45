"""Reference oracle perceptor: one flood fill per region, in pure Python.

The oracle for the equality property tests in ``test_perception.py``.
For each legend id in ascending order (0, nothing hit, gives no mask) it
scans the semantic image in raster order and flood-fills every
4-connected region of that id from its first pixel, so the regions of
one id come in the raster order of their first pixels.  That is the
order ``scipy.ndimage.label`` numbered them in when the oracle perceptor
ran it once per id.
"""

import numpy as np

from stmrnav.perception import PerceivedMask


def perceive_reference(legend, semantic: np.ndarray):
    """Masks of every same-label region of ``semantic``, by id, then by
    the raster position of the region's first pixel."""
    h, w = semantic.shape
    values = semantic.tolist()
    masks = []
    for lid in sorted(legend):
        if lid == 0:
            continue
        seen = [[False] * w for _ in range(h)]
        for r in range(h):
            for c in range(w):
                if values[r][c] != lid or seen[r][c]:
                    continue
                mask = np.zeros((h, w), dtype=bool)
                seen[r][c] = True
                stack = [(r, c)]
                while stack:
                    y, x = stack.pop()
                    mask[y, x] = True
                    for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1),
                                   (y, x + 1)):
                        if (0 <= ny < h and 0 <= nx < w
                                and not seen[ny][nx]
                                and values[ny][nx] == lid):
                            seen[ny][nx] = True
                            stack.append((ny, nx))
                masks.append(PerceivedMask(mask=mask, caption=legend[lid],
                                           label=lid))
    return masks
