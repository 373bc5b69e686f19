"""Seeded sparse instances for the benchmark.

``specrad.random_tensor`` enumerates every cell and refuses more than 2e6
of them (n ~ 126 per mode at order 3), so the benchmark draws coordinates
directly.  Two ring entries per index, ``(t, t, t)`` and
``(t, t+1, t+1)`` (mod n), make every instance strictly nonnegative and
weakly irreducible for the all-singleton partition, whatever the draw.
"""
from __future__ import annotations

import numpy as np

#: Random entries per mode index, before the two ring entries are added.
DRAWS_PER_INDEX = 30


def instance(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Zero-based ``(indices, values)`` of an order-3, n x n x n instance.

    Coordinates are distinct and sorted; values are uniform in ``(0, 1]``,
    as in ``specrad.random_tensor``.  The same ``(n, seed)`` always gives
    the same arrays.
    """
    rng = np.random.default_rng(seed)
    drawn = rng.integers(0, n, size=(DRAWS_PER_INDEX * n, 3))
    t = np.arange(n)
    ring = np.concatenate(
        [np.stack([t, t, t], axis=1), np.stack([t, (t + 1) % n, (t + 1) % n], axis=1)]
    )
    idx = np.unique(np.concatenate([drawn, ring]), axis=0)
    vals = 1.0 - rng.random(idx.shape[0])
    return idx, vals


def to_text(dims, idx: np.ndarray, vals: np.ndarray) -> str:
    """The tensor file format: order, dimensions, then one-based entries."""
    lines = [str(len(dims)), " ".join(str(n) for n in dims)]
    lines.extend(
        f"{i + 1} {j + 1} {k + 1} {v!r}"
        for (i, j, k), v in zip(idx.tolist(), vals.tolist())
    )
    return "\n".join(lines) + "\n"
