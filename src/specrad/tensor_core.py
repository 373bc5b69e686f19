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
(see :mod:`specrad.tensor_io`).  :attr:`CooTensor.indices` is column-major
(Fortran order), so the kernels' per-mode gathers ``indices[:, q]`` read
contiguous memory.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate

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
        """This vector's blocks holding ``flat``, a fresh float64 array of its
        size that no one else refers to; taken over uncopied and frozen."""
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
    mb = part.mode_block
    return tuple(x.block(mb[q]) for q in range(part.order))


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
    """
    if not 0 <= mode < tensor.order:
        raise BadModeIndex(f"mode {mode} out of range [0, {tensor.order})")
    zs = _check_mode_vectors(tensor, zs, skip=mode)
    n = tensor.dims[mode]
    if tensor.nnz == 0:
        return np.zeros(n)
    w = tensor.values.copy()
    for q in range(tensor.order):
        if q == mode:
            continue
        w *= zs[q][tensor.indices[:, q]]
    return np.bincount(tensor.indices[:, mode], weights=w, minlength=n)


def gradient_map(prob, x: BlockVector) -> BlockVector:
    """Blockwise gradient map: block ``i`` is the partial gradient of the
    multilinear form at the lifted vector, taken at the leading mode of block
    ``i``.  Defined for every ``x`` (no positivity required).

    Each mode's factor ``f_q = x[e_q]`` is gathered once per call.  Block
    ``i`` with leading mode ``s`` weighs entry ``e`` by the running prefix
    ``v * f_0 * ... * f_{s-1}`` times ``f_{s+1} * ... * f_{m-1}``, multiplied
    left to right as :func:`grad_component` does, so every block equals
    ``grad_component(tensor, s, lift(x))`` bit for bit.
    """
    part = prob.partition
    idx = prob.tensor.indices
    fac = [z[idx[:, q]] for q, z in enumerate(lift(x, part))]
    lead, done = prob.tensor.values, 0
    blocks = []
    for s, n in zip(part.starts, part.block_dims):
        for f in fac[done:s]:
            lead = lead * f
        done = s
        w = lead
        for f in fac[s + 1:]:
            w = w * f
        blocks.append(np.bincount(idx[:, s], weights=w, minlength=n))
    # with no entries stored, bincount counts in int64
    return x._with_flat(np.concatenate(blocks, dtype=np.float64))


def _jacobian_weights(prob, x: BlockVector):
    """The gradient-map Jacobian at ``x`` in factored form.

    Returns one tuple per block ``i`` with leading mode ``s``, holding a pair
    ``(q, w)`` for each other mode ``q`` in mode order: entry ``e`` puts
    ``w[e] = v_e * prefix * suffix`` at row ``e_s`` of block ``i`` and
    column ``e_q`` of the block owning mode ``q``.  ``prefix`` multiplies
    ``x[e_r]`` over the other modes ``r`` before ``q`` in mode order, and
    ``suffix`` over those after ``q`` from the last mode back.  Cost is
    ``O(nnz * m^2)``.
    """
    part = prob.partition
    idx = prob.tensor.indices
    fac = [z[idx[:, q]] for q, z in enumerate(lift(x, part))]

    def times(w, modes):
        # w times the product of fac over modes, multiplied in the order given
        return w * reduce(np.multiply, [fac[r] for r in modes]) if modes else w

    blocks = []
    for s in part.starts:
        others = [q for q in range(part.order) if q != s]
        blocks.append(tuple(
            (q, times(times(prob.tensor.values, others[:j]), others[:j:-1]))
            for j, q in enumerate(others)
        ))
    return blocks


def _jacobian_cells(prob) -> np.ndarray:
    """Flat position ``row * N + col`` in the dense Jacobian of each weight of
    :func:`_jacobian_weights`, in its order, so that summing the weights in
    order gives the dense Jacobian bit for bit.  They depend on the problem
    only, which keeps them (``SpectralProblem._jacobian_cells``)."""
    part = prob.partition
    idx = prob.tensor.indices
    n, offs, mb = part.total_dim, part.offsets, part.mode_block
    cells = [np.zeros(0, dtype=np.int64)]
    for i, s in enumerate(part.starts):
        for q in range(part.order):
            if q != s:
                cells.append((offs[i] + idx[:, s]) * n + (offs[mb[q]] + idx[:, q]))
    return np.concatenate(cells)


def gradient_map_jacobian(prob, x: BlockVector) -> np.ndarray:
    """Dense Jacobian of :func:`gradient_map` at ``x``.

    Row block ``i`` / column block ``l`` holds the derivative of gradient
    block ``i`` with respect to the variables of block ``l``.  The weights
    of :func:`_jacobian_weights` are summed in order into the problem's
    :func:`_jacobian_cells` by one ``bincount``.  Cost is ``O(nnz * m^2)``
    plus the dense accumulation.
    """
    n = prob.partition.total_dim
    w = [wq for pairs in _jacobian_weights(prob, x) for _, wq in pairs]
    DG = np.bincount(prob._jacobian_cells, weights=np.concatenate([np.zeros(0), *w]), minlength=n * n)
    # with no weights at all, bincount counts in int64
    return DG.astype(np.float64, copy=False).reshape(n, n)
