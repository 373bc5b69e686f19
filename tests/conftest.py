"""Shared fixtures and independent oracles.

The oracles deliberately avoid the package's own contraction kernels: dense
arrays are contracted through ``np.einsum`` and derivatives come from
central finite differences, so agreement is evidence rather than tautology.
"""
import string

import numpy as np
import pytest
from hypothesis import strategies as st

import specrad as sr

# ---------------------------------------------------------------------------
# dense oracles
# ---------------------------------------------------------------------------

def dense_from_coo(t: sr.CooTensor) -> np.ndarray:
    a = np.zeros(t.dims)
    np.add.at(a, tuple(t.indices.T), t.values)
    return a


def oracle_multilinear(dense: np.ndarray, zs) -> float:
    letters = string.ascii_lowercase[: dense.ndim]
    spec = letters + "," + ",".join(letters) + "->"
    return float(np.einsum(spec, dense, *zs))


def oracle_grad(dense: np.ndarray, mode: int, zs) -> np.ndarray:
    letters = string.ascii_lowercase[: dense.ndim]
    keep = [q for q in range(dense.ndim) if q != mode]
    spec = (
        letters
        + ","
        + ",".join(letters[q] for q in keep)
        + "->"
        + letters[mode]
    )
    return np.einsum(spec, dense, *[zs[q] for q in keep])


def fd_jacobian(f, x0: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference Jacobian of a vector map of a flat vector."""
    x0 = np.asarray(x0, dtype=float)
    cols = []
    for j in range(x0.size):
        e = np.zeros_like(x0)
        e[j] = h
        cols.append((np.asarray(f(x0 + e)) - np.asarray(f(x0 - e))) / (2 * h))
    return np.stack(cols, axis=-1)


def fd_grad(f, x0: np.ndarray, h: float = 1e-6) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float)
    out = np.zeros_like(x0)
    for j in range(x0.size):
        e = np.zeros_like(x0)
        e[j] = h
        out[j] = (f(x0 + e) - f(x0 - e)) / (2 * h)
    return out


def rel_err(approx, exact) -> float:
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    scale = max(1e-30, float(np.abs(exact).max()))
    return float(np.abs(approx - exact).max()) / scale


def bv(prob, flat) -> sr.BlockVector:
    return sr.BlockVector.from_flat(flat, prob.partition.block_dims)


def random_positive(prob, rng, lo=0.2, hi=2.0) -> sr.BlockVector:
    flat = rng.uniform(lo, hi, prob.partition.total_dim)
    return bv(prob, flat)


def block_segments(prob, per_piece):
    """Split ``per_piece``, one tuple of entry arrays per summation piece of
    ``prob._plan`` (laid out as its columns are), into one tuple per block:
    block ``k`` of a piece owns the piece's entries ``k * nnz`` up to
    ``(k + 1) * nnz``."""
    nnz = prob.tensor.nnz
    pieces = prob._plan
    return [
        tuple(a[k * nnz:(k + 1) * nnz] for a in arrays)
        for pc, arrays in zip(pieces, per_piece, strict=True)
        for k in range(len(pc.blocks))
    ]


def block_plans(prob):
    """Each block's segment of its summation piece, in block order, as
    ``(piece, cols, values, starts, rows)``: ``starts`` counted from the
    segment's first entry and ``rows`` from the block's first coordinate."""
    part, nnz = prob.partition, prob.tensor.nnz
    pieces = prob._plan
    out = []
    for i, (pc, (*cols, values)) in enumerate(zip(
        [pc for pc in pieces for _ in pc.blocks],
        block_segments(prob, [(*pc.cols, pc.values) for pc in pieces]),
    )):
        k = i - pc.blocks[0]
        a, b = np.searchsorted(pc.starts, [k * nnz, (k + 1) * nnz])
        out.append((pc, cols, values, pc.starts[a:b] - k * nnz, pc.rows[a:b] - part.offsets[i]))
    return out


def krylov_system(prob, x, lam):
    """``(matvec, rhs, precond)``: the equilibrated bordered Newton system
    that ``solvers._newton_step`` hands GMRES at ``(x, lam)``, whatever the
    problem's size, taken from a stand-in GMRES that returns zeros."""
    seen = []

    def capture(matvec, rhs, precond, **kwargs):
        seen.append((matvec, rhs, precond))
        return np.zeros(rhs.size)

    phi = sr.ratio_map(prob, x).flat
    H = sr.eigen_system(prob, x, lam)
    norms = sr.spectral_maps._block_norms(prob, x.flat)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sr.solvers, "_DENSE_MAX_N", 0)
        mp.setattr(sr.solvers, "gmres", capture)
        sr.solvers._newton_step(prob, x.flat, phi, lam, H, norms)
    (system,) = seen
    return system


def ring_cube(n: int, seed: int, scale: float = 1.0) -> sr.CooTensor:
    """Seeded sparse n x n x n tensor: 30 random coordinates per index plus the
    entries ``(t, t, t)`` and ``(t, t+1, t+1)`` (mod n), which make it strictly
    nonnegative and weakly irreducible for the all-singleton partition."""
    rng = np.random.default_rng(seed)
    drawn = rng.integers(0, n, size=(30 * n, 3))
    t = np.arange(n)
    ring = np.concatenate(
        [np.stack([t, t, t], axis=1), np.stack([t, (t + 1) % n, (t + 1) % n], axis=1)]
    )
    idx = np.unique(np.concatenate([drawn, ring]), axis=0)
    return sr.CooTensor((n,) * 3, idx, scale * (1.0 - rng.random(idx.shape[0])))


def two_cluster_cube(n: int, eps: float) -> sr.CooTensor:
    """2n x 2n x 2n tensor of two weakly coupled ring cubes: ``ring_cube(n, 0)``
    on the indices [0, n) and ``ring_cube(n, 1, scale=0.98)`` on [n, 2n),
    joined by 20 entries ``(a0, b1 + n, b2 + n)`` and 20 entries ``(b0 + n,
    a1, a2)`` of value ``eps``, with ``a`` and then ``b`` drawn as
    ``default_rng(5).integers(0, n, (20, 3))``.  With partition ``1;2;3`` and
    p = 3,3,3 it is WeaklyIrrCritical; the smaller ``eps``, the slower plain
    power converges."""
    first, second = ring_cube(n, 0), ring_cube(n, 1, scale=0.98)
    rng = np.random.default_rng(5)
    a = rng.integers(0, n, (20, 3))
    b = rng.integers(0, n, (20, 3))
    coupling = np.concatenate([
        np.stack([a[:, 0], b[:, 1] + n, b[:, 2] + n], axis=1),
        np.stack([b[:, 0] + n, a[:, 1], a[:, 2]], axis=1),
    ])
    idx = np.concatenate([first.indices, second.indices + n, coupling])
    vals = np.concatenate([first.values, second.values, np.full(40, eps)])
    return sr.CooTensor((2 * n,) * 3, idx, vals)


def two_cluster_matrix(n: int, eps: float, seed: int = 0) -> np.ndarray:
    """Dense 2n x 2n nonnegative matrix of two weakly coupled clusters.

    Each diagonal block is a 5 % dense U[0, 1) matrix plus 0.5 on the
    diagonal and on the cyclic superdiagonal; the second block is scaled by
    0.98.  20 entries ``(i, n + j)`` and 20 entries ``(n + i, j)`` of value
    ``eps`` couple the clusters.  With partition ``1;2`` and p = 2,2 the
    problem is critical and its spectral radius is the largest singular
    value."""
    rng = np.random.default_rng(seed)
    A = np.zeros((2 * n, 2 * n))
    t = np.arange(n)
    for o, s in ((0, 1.0), (n, 0.98)):
        block = (rng.random((n, n)) < 0.05) * rng.random((n, n))
        block[t, t] += 0.5
        block[t, (t + 1) % n] += 0.5
        A[o:o + n, o:o + n] = s * block
    i, j = rng.integers(0, n, (2, 20))
    A[i, n + j] = eps
    i, j = rng.integers(0, n, (2, 20))
    A[n + i, j] = eps
    return A


def matrix_tensor(A: np.ndarray) -> sr.CooTensor:
    """The stored (nonzero) entries of the matrix ``A`` as an order-2 tensor."""
    rows, cols = np.nonzero(A)
    return sr.CooTensor(A.shape, np.stack([rows, cols], axis=1), A[rows, cols])


def _block_sizes(draw):
    """Nondecreasing block sizes summing to an order of 2-4: every partition
    shape of the modes into consecutive blocks."""
    sizes, left = [], draw(st.integers(2, 4))
    while left:
        # a remainder smaller than the block just drawn is merged into it
        k = draw(st.integers(sizes[-1] if sizes else 1, left))
        if left - k and left - k < k:
            k = left
        sizes.append(k)
        left -= k
    return sizes


def _problem(sizes, dims, idx, vals):
    tensor = sr.CooTensor(dims, idx, vals)
    starts = np.cumsum([0] + sizes)
    blocks = [list(range(a, b)) for a, b in zip(starts[:-1], starts[1:])]
    return sr.make_problem(tensor, blocks, ["3"] * len(sizes))


@st.composite
def block_problems(draw, max_block_dim=3, values=st.sampled_from([0.0, 0.5, 1.0, 3.0])):
    """Order 2-4 tensors over every partition shape, block dims 1 to
    ``max_block_dim``, with up to 30 entries drawn from ``values`` (possibly
    none stored, or all of them 0.0 when ``values`` holds it)."""
    sizes = _block_sizes(draw)
    block_dims = [draw(st.integers(1, max_block_dim)) for _ in sizes]
    dims = [n for n, k in zip(block_dims, sizes) for _ in range(k)]
    entries = draw(st.lists(
        st.tuples(st.tuples(*(st.integers(0, n - 1) for n in dims)), values),
        max_size=30,
    ))
    idx = np.array([e for e, _ in entries], dtype=np.int64).reshape(-1, len(dims))
    return _problem(sizes, dims, idx, [v for _, v in entries])


@st.composite
def wide_block_problems(draw):
    """Order 2-4 tensors over every partition shape, block dims 20 to 100
    (and N at most 300), with 200-600 entries, of values 0.0, 0.5, 1.0 or
    3.0, drawn by a seeded generator."""
    sizes = _block_sizes(draw)
    hi = min(100, 300 // len(sizes))
    dims = [n for k in sizes for n in [draw(st.integers(20, hi))] * k]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nnz = draw(st.integers(200, 600))
    idx = np.stack([rng.integers(0, n, nnz) for n in dims], axis=1)
    return _problem(sizes, dims, idx, rng.choice([0.0, 0.5, 1.0, 3.0], nnz))


# ---------------------------------------------------------------------------
# standard problems
# ---------------------------------------------------------------------------

BLOCKS_ONE = [[0, 1, 2]]
BLOCKS_TWO = [[0], [1, 2]]
BLOCKS_THREE = [[0], [1], [2]]

#: The nine benchmark configurations with reference eigenvalues.
NINE_CONFIGS = [
    (BLOCKS_ONE, ("3",), 1.748),
    (BLOCKS_ONE, ("4",), 2.277),
    (BLOCKS_ONE, ("5",), 2.663),
    (BLOCKS_TWO, ("2", "4"), 1.414),
    (BLOCKS_TWO, ("3", "5"), 2.167),
    (BLOCKS_TWO, ("4", "6"), 2.581),
    (BLOCKS_THREE, ("3", "3", "3"), 2.045),
    (BLOCKS_THREE, ("4", "4", "4"), 2.469),
    (BLOCKS_THREE, ("5", "5", "5"), 2.817),
]


def config_id(cfg):
    blocks, p, _ = cfg
    return ";".join(",".join(str(q + 1) for q in blk) for blk in blocks) + "|p=" + ",".join(p)


@pytest.fixture(scope="session")
def ref_tensor():
    return sr.reference_tensor()


@pytest.fixture(scope="session")
def all_ones_cube():
    """All-ones 2x2x2 tensor."""
    idx = [(i, j, k) for i in range(2) for j in range(2) for k in range(2)]
    return sr.CooTensor((2, 2, 2), idx, np.ones(8))


@pytest.fixture(scope="session")
def sym_matrix_tensor():
    """The 2x2 matrix [[2,1],[1,2]] as an order-2 tensor."""
    return sr.CooTensor(
        (2, 2), [(0, 0), (0, 1), (1, 0), (1, 1)], [2.0, 1.0, 1.0, 2.0]
    )


@pytest.fixture(params=NINE_CONFIGS, ids=config_id)
def nine_problem(request, ref_tensor):
    blocks, p, lam_ref = request.param
    return sr.make_problem(ref_tensor, blocks, p), lam_ref


@pytest.fixture
def classify_work(monkeypatch) -> dict:
    """Counts runs of the two costly parts of ``classify_regime``: the
    coupling digraph and the homogeneity data."""
    counts = {"_coupling_digraph": 0, "homogeneity_data": 0}
    for name in counts:

        def counted(*args, _name=name, _original=getattr(sr.structure, name)):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(sr.structure, name, counted)
    return counts
