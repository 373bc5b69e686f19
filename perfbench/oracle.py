"""Independent correctness checks for returned eigenpairs.

Nothing here calls specrad: the gradient map is recomputed from the raw
COO arrays with ``np.bincount``, following the package's definition (block
``i`` is the partial gradient of the multilinear form at the lifted vector,
taken at the leading mode of block ``i``).  Each check returns a list of
failure causes; an empty list means the pair passed.
"""
from __future__ import annotations

import numpy as np

#: Allowance for the oracle's own summation order differing from specrad's,
#: added to the solver tolerance on every relative comparison.
ROUNDOFF = 1e-12


def ratios(idx, vals, blocks, p, x_blocks) -> np.ndarray:
    """Collatz-Wielandt ratios ``G_i(x) / x_i**(p_i - 1)``, all blocks
    concatenated."""
    mode_block = {q: i for i, blk in enumerate(blocks) for q in blk}
    z = [np.asarray(x_blocks[mode_block[q]], dtype=np.float64) for q in range(idx.shape[1])]
    out = []
    for i, blk in enumerate(blocks):
        s = blk[0]
        w = np.array(vals, dtype=np.float64)
        for q in range(idx.shape[1]):
            if q != s:
                w *= z[q][idx[:, q]]
        g = np.bincount(idx[:, s], weights=w, minlength=z[s].size)
        out.append(g / z[s] ** (p[i] - 1.0))
    return np.concatenate(out)


def check_pair(idx, vals, blocks, p, x_blocks, lam: float, tol: float):
    """Check one eigenpair; returns ``(causes, (lo, hi))``.

    Passes when ``x > 0``, every block has unit ``p_i``-norm, and the min
    and max ratios bracket ``lam`` with relative gap at most
    ``tol + ROUNDOFF``.
    """
    causes: list[str] = []
    flat = np.concatenate([np.asarray(b, dtype=np.float64) for b in x_blocks])
    if not np.all(np.isfinite(flat)) or not np.all(flat > 0.0):
        return ["x is not strictly positive and finite"], (np.nan, np.nan)
    for i, b in enumerate(x_blocks):
        norm = float((np.asarray(b) ** p[i]).sum() ** (1.0 / p[i]))
        if abs(norm - 1.0) > 1e-10:
            causes.append(f"block {i} has p-norm {norm!r}, not 1")
    r = ratios(idx, vals, blocks, p, x_blocks)
    lo, hi = float(r.min()), float(r.max())
    if not (lo > 0.0 and np.isfinite(hi)):
        causes.append(f"ratios not positive and finite: [{lo!r}, {hi!r}]")
        return causes, (lo, hi)
    slack = tol + ROUNDOFF
    if (hi - lo) / lo > slack:
        causes.append(f"relative bracket gap {(hi - lo) / lo:.3e} exceeds {slack:.1e}")
    if not lo * (1.0 - slack) <= lam <= hi * (1.0 + slack):
        causes.append(f"lambda {lam!r} outside the bracket [{lo!r}, {hi!r}]")
    return causes, (lo, hi)


def brackets_agree(a, b, tol: float) -> bool:
    """Two certified brackets ``(lo, hi)`` of the same spectral radius must
    overlap, up to the relative slack."""
    slack = tol + ROUNDOFF
    return a[0] <= b[1] * (1.0 + slack) and b[0] <= a[1] * (1.0 + slack)


def parse_text(text: str):
    """Zero-based ``(dims, indices, values)`` from a tensor file without
    comments, read with numpy alone."""
    lines = text.split("\n", 2)
    order = int(lines[0])
    dims = tuple(int(t) for t in lines[1].split())
    body = np.array(lines[2].split(), dtype=np.float64).reshape(-1, order + 1)
    return dims, body[:, :order].astype(np.int64) - 1, body[:, order]
