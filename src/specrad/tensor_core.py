"""Sparse nonnegative tensors, shape partitions, and multilinear contractions.

A tensor of order ``m`` is stored in coordinate (COO) form.  A *shape
partition* groups the modes into contiguous blocks of equal dimension, and a
:class:`BlockVector` holds one vector per block.  The contraction kernels in
this module evaluate the multilinear form, its blockwise partial gradients,
and the Jacobian of the gradient map, either factored as one weight per stored
entry for each block and other mode, or scattered from those weights into a
dense matrix; everything downstream (ratio maps, Newton systems, structure
checks) is built on top of them.

Indices are zero-based everywhere in memory.  The one-based convention used
by tensor files and the command line is translated at the I/O boundary only
(see :mod:`specrad.tensor_io`).  The problem kernels, all in this module,
read the summation pieces ``SpectralProblem._plan`` (:class:`_Piece`), never
the index columns: per block, the entries ordered stably by its leading mode
``s``, so each row's terms lie in one run, which ``np.add.reduceat`` sums
pairwise into its global coordinate; consecutive blocks share a piece.  The
error grows with the log of the row length, not with the row length as a
one-by-one scatter's does.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import (
    BadIndex,
    BadModeIndex,
    DimensionMismatch,
    NegativeValue,
    NonContiguousBlocks,
    NonMonotoneBlockSizes,
    NotAPartition,
    ShapeMismatch,
    UnequalDimsInBlock,
)

__all__ = [
    "CooTensor",
    "ShapePartition",
    "BlockVector",
    "validate_partition",
    "multilinear_form",
    "grad_component",
    "lift",
    "gradient_map",
    "gradient_map_jacobian",
]


class CooTensor:
    """Nonnegative tensor of order ``m`` in coordinate storage.

    Parameters
    ----------
    dims:
        Dimension of each mode, ``m`` positive integers.
    indices:
        Integral values of shape ``(nnz, m)``; zero-based multi-indices.
        Stored column-major (Fortran order) and read-only, whatever the
        layout supplied.
    values:
        Nonnegative entry values, shape ``(nnz,)``.

    Entries are canonicalized at construction: multi-indices are sorted
    lexicographically and duplicate coordinates are merged by summation, so
    two tensors with the same nonzero pattern compare equal regardless of the
    order the entries were supplied in.  Negative values are rejected.
    """

    __slots__ = ("dims", "indices", "values")

    def __init__(self, dims, indices, values) -> None:
        dims = tuple(int(n) for n in dims)
        if not dims or any(n <= 0 for n in dims):
            raise DimensionMismatch(f"mode dimensions must be positive, got {dims}")
        m = len(dims)
        idx = _index_array(indices)
        if idx.size == 0:
            idx = idx.reshape(0, m)
        idx = np.atleast_2d(idx)
        vals = np.asarray(values, dtype=np.float64).ravel()
        if idx.shape != (vals.size, m):
            raise DimensionMismatch(
                f"expected indices of shape ({vals.size}, {m}), got {idx.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("tensor entries must be finite")
        if np.any(vals < 0.0):
            bad = float(vals[vals < 0.0][0])
            raise NegativeValue(f"tensor entries must be nonnegative, got {bad}")
        for k, n in enumerate(dims):
            col = idx[:, k]
            if col.size and (col.min() < 0 or col.max() >= n):
                raise BadIndex(
                    f"mode-{k} index out of range [0, {n}) in entry list"
                )
        if vals.size:
            idx, vals = _canonical(idx, vals)
        idx.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", vals)

    def __setattr__(self, name, value):
        raise AttributeError("CooTensor is immutable")

    @property
    def order(self) -> int:
        return len(self.dims)

    @property
    def nnz(self) -> int:
        return self.values.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, CooTensor):
            return NotImplemented
        return (
            self.dims == other.dims
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self):
        return hash((self.dims, self.indices.tobytes(), self.values.tobytes()))

    def __repr__(self) -> str:
        return f"CooTensor(dims={self.dims}, nnz={self.nnz})"


def _index_array(indices) -> np.ndarray:
    """``indices`` as an int64 array.  Integer arrays pass unchecked; any
    other input must hold integral values that int64 can store (``2.0`` is
    accepted, ``1.5`` and ``2**70`` raise ``BadIndex``)."""
    idx = np.asarray(indices)
    if idx.dtype.kind in "iu":
        return idx.astype(np.int64, copy=False)
    given = idx.ravel().tolist()
    try:
        ints = [int(v) for v in given]
        if ints == given:
            return np.array(ints, dtype=np.int64).reshape(idx.shape)
    except (TypeError, ValueError, OverflowError):
        pass
    raise BadIndex("indices must be integral values within the int64 range")


def _canonical(idx: np.ndarray, vals: np.ndarray):
    """Entries sorted lexicographically by multi-index, duplicates summed.

    Rows already in strictly increasing order (files written by
    :func:`~specrad.tensor_io.write_tensor` are) skip the sort; ``+ 0.0``
    turns a ``-0.0`` into ``+0.0`` as the summation would.  The index copy
    returned is column-major.
    """
    step = np.diff(idx, axis=0)
    lead = step[np.arange(step.shape[0]), (step != 0).argmax(axis=1)]
    if np.all(lead > 0):
        return np.array(idx, order="F"), vals + 0.0
    return _lexsort_canonical(idx, vals)


def _lexsort_canonical(idx: np.ndarray, vals: np.ndarray):
    """:func:`_canonical` by sorting, whatever the input order.

    The sort is stable and ``bincount`` adds from ``0.0``, so each
    coordinate's values are summed one by one in the order given, and a lone
    ``-0.0`` becomes ``+0.0``; ``np.add.reduceat`` would sum long runs
    pairwise, which can change the last bit.
    """
    order = np.lexsort(idx.T[::-1])
    idx, vals = idx[order], vals[order]
    first = np.empty(vals.size, dtype=bool)
    first[:1] = True
    np.any(idx[1:] != idx[:-1], axis=1, out=first[1:])
    merged = np.bincount(np.cumsum(first) - 1, weights=vals)
    # compress writes a fresh C-order (m, k) array: its transpose is F-order
    return idx.T.compress(first, axis=1).T, merged


@dataclass(frozen=True)
class ShapePartition:
    """Grouping of the modes of a tensor into ordered blocks of equal dimension.

    Use :func:`validate_partition` to construct one from raw block lists; the
    constructor itself performs no validation.  The derived layout
    (``order``, ``total_dim``, ``offsets``, ``mode_block``) is computed on
    first use and kept; equality and hashing see the four fields only.

    Attributes
    ----------
    blocks:
        Tuple of blocks; each block is a sorted tuple of zero-based modes.
    nu:
        Block sizes ``len(blocks[i])`` (nondecreasing).
    starts:
        First mode of each block.
    block_dims:
        Common dimension of the modes in each block.
    """

    blocks: tuple[tuple[int, ...], ...]
    nu: tuple[int, ...]
    starts: tuple[int, ...]
    block_dims: tuple[int, ...]

    @property
    def d(self) -> int:
        """Number of blocks."""
        return len(self.blocks)

    @cached_property
    def order(self) -> int:
        """Total number of modes."""
        return sum(self.nu)

    @cached_property
    def total_dim(self) -> int:
        """Dimension of the concatenated block-vector space."""
        return sum(self.block_dims)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """Start offset of each block inside a flat concatenated vector."""
        return tuple(accumulate(self.block_dims[:-1], initial=0))

    @cached_property
    def mode_block(self) -> tuple[int, ...]:
        """Block index owning each mode, listed in mode order."""
        out = [0] * self.order
        for i, blk in enumerate(self.blocks):
            for q in blk:
                out[q] = i
        return tuple(out)


def validate_partition(dims, blocks) -> ShapePartition:
    """Check and canonicalize a shape partition for a tensor with ``dims``.

    The blocks must partition ``{0, ..., m-1}``; modes in one block must share
    a dimension; block sizes must be nondecreasing; and each block must be a
    contiguous run of modes occurring in increasing order.  The first failed
    rule determines the exception raised.
    """
    dims = tuple(int(n) for n in dims)
    m = len(dims)
    try:
        blocks = tuple(tuple(sorted(int(q) for q in blk)) for blk in blocks)
    except TypeError as e:
        raise NotAPartition(f"blocks must be iterables of mode indices: {e}") from e
    if not blocks or any(len(blk) == 0 for blk in blocks):
        raise NotAPartition("every block must be a nonempty set of modes")
    flat = [q for blk in blocks for q in blk]
    if len(set(flat)) != len(flat):
        raise NotAPartition("blocks must be pairwise disjoint")
    if set(flat) != set(range(m)):
        raise NotAPartition(
            f"blocks must cover exactly the modes 0..{m - 1}, got {sorted(set(flat))}"
        )
    for i, blk in enumerate(blocks):
        sizes = {dims[q] for q in blk}
        if len(sizes) > 1:
            raise UnequalDimsInBlock(
                f"block {i} mixes dimensions {sorted(sizes)}; all modes in a "
                "block must have equal dimension"
            )
    nu = tuple(len(blk) for blk in blocks)
    for i in range(len(nu) - 1):
        if nu[i] > nu[i + 1]:
            raise NonMonotoneBlockSizes(
                f"block sizes {nu} must be nondecreasing"
            )
    pos = 0
    for i, blk in enumerate(blocks):
        if blk != tuple(range(pos, pos + len(blk))):
            raise NonContiguousBlocks(
                f"block {i} must be the contiguous run {pos}..{pos + len(blk) - 1}, "
                f"got {blk}"
            )
        pos += len(blk)
    starts = tuple(blk[0] for blk in blocks)
    block_dims = tuple(dims[s] for s in starts)
    return ShapePartition(blocks=blocks, nu=nu, starts=starts, block_dims=block_dims)


class BlockVector:
    """Element of a product of coordinate spaces, stored as one flat array.

    Immutable: ``flat``, the concatenation, is a read-only float64 array no
    other object can write to, and ``block(i)`` a view of block ``i``.  The
    constructor and :meth:`from_flat` copy their input; arithmetic returns
    new instances.
    """

    __slots__ = ("flat", "lengths", "_offsets")

    def __init__(self, blocks) -> None:
        arrs = [np.asarray(b, dtype=np.float64).ravel() for b in blocks]
        if not arrs:
            raise ShapeMismatch("a block vector needs at least one block")
        self._freeze(np.concatenate(arrs), tuple(a.size for a in arrs))

    def _freeze(self, flat: np.ndarray, lengths: tuple[int, ...], offsets=None) -> None:
        flat.setflags(write=False)
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "_offsets", offsets or tuple(accumulate(lengths, initial=0)))

    def __setattr__(self, name, value):
        raise AttributeError("BlockVector is immutable")

    @classmethod
    def from_flat(cls, flat, lengths) -> "BlockVector":
        flat = np.asarray(flat, dtype=np.float64).ravel()
        lengths = tuple(int(n) for n in lengths)
        if flat.size != sum(lengths):
            raise ShapeMismatch(
                f"flat vector of size {flat.size} cannot split into blocks {lengths}"
            )
        out = cls.__new__(cls)
        out._freeze(flat.copy(), lengths)
        return out

    def _with_flat(self, flat: np.ndarray) -> "BlockVector":
        """This vector's blocks holding ``flat``, a float64 array of its size
        that no caller holds; taken over uncopied and frozen."""
        out = BlockVector.__new__(BlockVector)
        out._freeze(flat, self.lengths, self._offsets)
        return out

    @property
    def d(self) -> int:
        return len(self.lengths)

    def block(self, i: int) -> np.ndarray:
        return self.flat[self._offsets[i]:self._offsets[i + 1]]

    @property
    def blocks(self) -> list[np.ndarray]:
        return [self.block(i) for i in range(self.d)]

    def __add__(self, other):
        if not isinstance(other, BlockVector) or other.lengths != self.lengths:
            return NotImplemented
        return self._with_flat(self.flat + other.flat)

    def __sub__(self, other):
        if not isinstance(other, BlockVector) or other.lengths != self.lengths:
            return NotImplemented
        return self._with_flat(self.flat - other.flat)

    def __mul__(self, scalar):
        return self._with_flat(self.flat * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return self._with_flat(-self.flat)

    def __repr__(self) -> str:
        return f"BlockVector(lengths={self.lengths})"


def conform(part: ShapePartition, x: BlockVector) -> None:
    """Raise ``TypeError`` unless ``x`` is a :class:`BlockVector`, and
    ``ShapeMismatch`` unless it matches the partition's block dims."""
    if not isinstance(x, BlockVector):
        raise TypeError(f"expected a BlockVector, got {type(x).__name__}")
    if tuple(x.lengths) != tuple(part.block_dims):
        raise ShapeMismatch(
            f"block vector with lengths {x.lengths} does not conform to "
            f"partition block dims {part.block_dims}"
        )


def lift(x: BlockVector, part: ShapePartition) -> tuple[np.ndarray, ...]:
    """Expand a block vector to one vector per mode (block ``i`` repeated
    ``nu[i]`` times, in mode order)."""
    conform(part, x)
    return tuple(x.block(i) for i in part.mode_block)


def _check_mode_vectors(tensor: CooTensor, zs, skip: int | None = None) -> list:
    if len(zs) != tensor.order:
        raise DimensionMismatch(
            f"need one vector per mode ({tensor.order}), got {len(zs)}"
        )
    out = []
    for k, z in enumerate(zs):
        if k == skip:
            out.append(None)
            continue
        z = np.asarray(z, dtype=np.float64).ravel()
        if z.size != tensor.dims[k]:
            raise DimensionMismatch(
                f"mode-{k} vector has length {z.size}, expected {tensor.dims[k]}"
            )
        out.append(z)
    return out


def multilinear_form(tensor: CooTensor, zs) -> float:
    """Evaluate ``sum_e a_e * prod_k zs[k][e_k]`` over the stored entries."""
    zs = _check_mode_vectors(tensor, zs)
    if tensor.nnz == 0:
        return 0.0
    w = tensor.values.copy()
    for q in range(tensor.order):
        w *= zs[q][tensor.indices[:, q]]
    return float(w.sum())


def grad_component(tensor: CooTensor, mode: int, zs) -> np.ndarray:
    """Partial gradient of the multilinear form with respect to slot ``mode``.

    Returns the length-``dims[mode]`` vector whose ``t``-th component sums
    ``a_e * prod_{k != mode} zs[k][e_k]`` over entries with ``e_mode == t``.
    The vector supplied in slot ``mode`` is ignored (it may be ``None``).
    Each entry's product is taken left to right in mode order; the entries
    are then ordered stably by ``e_mode`` and each row is summed by
    ``np.add.reduceat``, pairwise, in the order of :func:`_lead_runs`.
    """
    if not 0 <= mode < tensor.order:
        raise BadModeIndex(f"mode {mode} out of range [0, {tensor.order})")
    zs = _check_mode_vectors(tensor, zs, skip=mode)
    w = tensor.values.copy()
    for q in range(tensor.order):
        if q != mode:
            w *= zs[q][tensor.indices[:, q]]
    order, starts, rows = _lead_runs(tensor.indices[:, mode], tensor.dims[mode])
    out = np.zeros(tensor.dims[mode])
    out[rows] = np.add.reduceat(w[order], starts)
    return out


#: Most entries a summation piece holds, unless one block has more: merging
#: saves numpy calls only while blocks are small, and 32 KiB temporaries keep
#: clear of glibc's 128 KiB heap-trim threshold (N = 600 Newton solves with
#: a 12,796-entry piece took 371 page faults a solve, none with 6,398).
_PIECE_ENTRIES = 4096


class _Piece(NamedTuple):
    """How the consecutive ``blocks`` sum their entries, block after block,
    each with leading mode ``s`` in the stable order by ``e_s``
    (:func:`_lead_runs`; canonical order for ``s = 0``, which a lone block
    keeps as views).  ``cols[j]`` holds the flat coordinate
    ``offsets[mode_block[q]] + indices[:, q]`` of each block's ``j``-th
    other mode ``q``, ``values`` the values; run ``k`` of equal ``e_s``
    begins at ``starts[k]`` and sums to coordinate ``rows[k]``.  ``span`` is
    the slice of the blocks' coordinates if all are rows, else ``None``."""

    blocks: range
    cols: tuple[np.ndarray, ...]
    values: np.ndarray
    starts: np.ndarray
    rows: np.ndarray
    span: slice | None


def _lead_runs(col: np.ndarray, n: int):
    """``(order, starts, rows)`` of an index column with values in
    ``[0, n)``: the stable sort order of its entries, where each run of
    equal indices starts in that order, and the index of each run.

    A sorted column keeps the identity, ``slice(None)``.  Otherwise one sort
    of the distinct keys ``col << b | position``, with ``b`` bits for a
    position, gives both the order (the low bits) and the sorted column (the
    high bits), two to five times faster than a stable ``argsort`` of the
    column.  That ``argsort`` stays for keys that could pass int64, so the
    order is right for any ``n``; no solve reaches it, as its vectors hold
    ``n`` numbers.
    """
    k = col.size
    b = (k - 1).bit_length()
    if k == 0 or (col[1:] >= col[:-1]).all():
        order, lead = slice(None), col
    elif n << b <= 1 << 63:
        key = col << b
        key |= np.arange(k)
        key.sort()
        order, lead = key & ((1 << b) - 1), key >> b
    else:
        order = np.argsort(col, kind="stable")
        lead = col[order]
    new = np.empty(k, dtype=bool)
    new[:1] = True
    np.not_equal(lead[1:], lead[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    return order, starts, lead[starts]


def _sum_rows(w: np.ndarray, piece: _Piece, out: np.ndarray) -> None:
    """Write the sum of each run of ``w`` (split at ``piece.starts``) to
    ``out[piece.rows]``, summed pairwise by ``np.add.reduceat``; the rest of
    ``out`` is left as it is."""
    if piece.span is not None:
        np.add.reduceat(w, piece.starts, out=out[piece.span])
    elif piece.rows.size:
        out[piece.rows] = np.add.reduceat(w, piece.starts)


def _block_plans(tensor: CooTensor, part: ShapePartition) -> tuple[_Piece, ...]:
    """The read-only summation pieces of ``part``, each of as many blocks as
    ``_PIECE_ENTRIES`` allow."""
    idx, nnz = tensor.indices, tensor.nnz
    flat = [np.add(idx[:, q], part.offsets[i], dtype=np.intp) for q, i in enumerate(part.mode_block)]
    step = max(1, _PIECE_ENTRIES // nnz) if nnz else part.d  # blocks per piece
    pieces = []
    for a in range(0, part.d, step):
        blocks = range(a, min(a + step, part.d))
        arrays = []  # per block: its other modes' columns, values, starts and rows
        for i in blocks:
            order, starts, rows = _lead_runs(idx[:, part.starts[i]], part.block_dims[i])
            others = (c[order] for q, c in enumerate(flat) if q != part.starts[i])
            arrays.append((*others, tensor.values[order], starts + (i - a) * nnz, rows + part.offsets[i]))
        *cols, values, starts, rows = (_read_only(k[0] if len(k) == 1 else np.concatenate(k)) for k in zip(*arrays))
        lo, hi = part.offsets[a], part.offsets[blocks[-1]] + part.block_dims[blocks[-1]]
        pieces.append(_Piece(blocks, tuple(cols), values, starts, rows, slice(lo, hi) if rows.size == hi - lo else None))
    return tuple(pieces)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def gradient_map(prob, x: BlockVector) -> BlockVector:
    """Blockwise gradient map: block ``i`` is the partial gradient of the
    multilinear form at the lifted vector, taken at the leading mode of block
    ``i``.  Defined for every ``x`` (no positivity required).

    Each summation piece (:class:`_Piece`) weighs every entry by ``v *
    x.flat[c_q]`` over its other modes' columns, multiplied in mode order,
    and sums each row's run with one ``np.add.reduceat``.  Products and
    summation order are those of :func:`grad_component`, so every block
    equals ``grad_component(tensor, s, lift(x))`` bit for bit.
    """
    part = prob.partition
    conform(part, x)
    xf = x.flat
    G = np.zeros(part.total_dim)
    for pc in prob._plan:
        if pc.cols:
            w = xf[pc.cols[0]]
            w *= pc.values  # x * v is v * x to the bit, and saves an array
        else:
            w = pc.values
        for c in pc.cols[1:]:
            w *= xf[c]
        _sum_rows(w, pc, G)
    return x._with_flat(G)


def _jacobian_weights(prob, x: np.ndarray):
    """The gradient-map Jacobian at the flat ``x`` in factored form, in plan order.

    Returns one tuple per summation piece, a weight array for each column
    ``c = prob._plan[k].cols[j]``: entry ``e`` of block ``i``, other mode
    ``q``, puts ``w[e] = v_e * prefix * suffix`` at row ``e_s`` of block
    ``i`` and column ``c[e]``.  ``prefix`` multiplies ``x[e_r]`` over the
    other modes ``r`` before ``q`` in mode order, and ``suffix`` over those
    after ``q`` from the last mode back.  Cost is ``O(nnz * m^2)``.
    """

    def times(w, f):
        return w * reduce(np.multiply, f) if f else w

    out = []
    for pc in prob._plan:
        fac = [x[c] for c in pc.cols]
        out.append(tuple(times(times(pc.values, fac[:j]), fac[:j:-1]) for j in range(len(fac))))
    return out


def _jacobian_product(prob, x: np.ndarray):
    """``v -> DG v`` for flat ``v`` without forming ``DG``, the gradient-map
    Jacobian at the flat ``x``: each piece weighs its gathers of ``v`` by
    :func:`_jacobian_weights` and sums them as :func:`gradient_map` does."""
    # a piece with no other mode (an order-1 tensor) adds nothing to DG v
    pieces = [(pc, ws) for pc, ws in zip(prob._plan, _jacobian_weights(prob, x)) if ws]

    def product(v: np.ndarray) -> np.ndarray:
        DGv = np.zeros(v.size)
        for pc, (w, *rest) in pieces:
            # each gather is a fresh array, so it is weighed in place
            t = v[pc.cols[0]]
            t *= w
            for c, w in zip(pc.cols[1:], rest):
                u = v[c]
                u *= w
                t += u
            _sum_rows(t, pc, DGv)
        return DGv

    return product


def _jacobian_cells(pieces: tuple[_Piece, ...], n: int) -> np.ndarray:
    """Flat ``row * n + col`` of each weight of :func:`_jacobian_weights`,
    laid out as those are; a run's row repeats over the run's entries."""
    cells = []
    for pc in pieces:
        rows = np.repeat(pc.rows * n, np.diff(pc.starts, append=pc.values.size))
        cells += [rows + c for c in pc.cols]
    return _read_only(np.concatenate([np.zeros(0, dtype=np.intp), *cells]))


def gradient_map_jacobian(prob, x: BlockVector) -> np.ndarray:
    """Dense Jacobian of :func:`gradient_map` at ``x``.

    Row block ``i`` / column block ``l`` holds the derivative of gradient
    block ``i`` with respect to the variables of block ``l``.  The weights
    of :func:`_jacobian_weights` are summed, in plan order, into the
    problem's ``_jacobian_cells`` by one ``bincount``; as the plan is stable
    in each row, a cell's terms come block by block, mode by mode, then in
    canonical order.  Cost is ``O(nnz * m^2)`` plus the dense accumulation.
    """
    conform(prob.partition, x)
    n = prob.partition.total_dim
    w = [wj for ws in _jacobian_weights(prob, x.flat) for wj in ws]
    DG = np.bincount(prob._jacobian_cells, weights=np.concatenate([np.zeros(0), *w]), minlength=n * n)
    # with no weights at all, bincount counts in int64
    return DG.astype(np.float64, copy=False).reshape(n, n)
