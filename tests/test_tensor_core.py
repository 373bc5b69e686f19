"""Tensor storage, partition validation, and contraction kernels."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import specrad as sr
from specrad.errors import (
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
import specrad.tensor_core
from specrad.spectral_maps import _block_norms, _newton_matrix
from specrad.tensor_core import _canonical, _jacobian_weights, _lead_runs, _lexsort_canonical

from conftest import (
    block_plans,
    block_problems,
    block_segments,
    dense_from_coo,
    fd_grad,
    fd_jacobian,
    krylov_system,
    oracle_grad,
    oracle_multilinear,
    random_positive,
    rel_err,
)


def jacobian_triplets(prob, x):
    """``(rows, cols, w)`` of the gradient-map Jacobian at ``x``: row
    ``offset(i) + e_s`` and column ``offset(block of q) + e_q`` receive the
    weight of entry ``e``, for each block ``i`` with leading mode ``s`` and
    each other mode ``q``, listed block by block, then mode by mode, then
    entry by entry in canonical order.  The weights are those of
    ``_jacobian_weights``, each block's segment of its summation piece in
    the block's plan order (stably sorted by ``e_s``), put back in canonical
    order."""
    part = prob.partition
    idx = prob.tensor.indices
    rows, cols = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    w = [np.zeros(0)]
    weights = block_segments(prob, _jacobian_weights(prob, x.flat))
    for i, (s, ws) in enumerate(zip(part.starts, weights, strict=True)):
        order = np.argsort(idx[:, s], kind="stable")
        others = [q for q in range(part.order) if q != s]
        for q, wq in zip(others, ws, strict=True):
            rows.append(part.offsets[i] + idx[:, s])
            cols.append(part.offsets[part.mode_block[q]] + idx[:, q])
            w.append(np.empty_like(wq))
            w[-1][order] = wq
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(w)


class TestCooTensor:
    def test_duplicates_merge_by_summation(self):
        t = sr.CooTensor((3, 3, 3), [(0, 0, 2), (0, 0, 2)], [0.5, 0.5])
        assert t.nnz == 1
        assert t.values[0] == 1.0

    def test_canonical_sort_is_lexicographic(self):
        t = sr.CooTensor((2, 2), [(1, 0), (0, 1), (0, 0)], [3.0, 2.0, 1.0])
        assert [tuple(r) for r in t.indices] == [(0, 0), (0, 1), (1, 0)]
        assert list(t.values) == [1.0, 2.0, 3.0]

    def test_entry_order_does_not_matter(self):
        a = sr.CooTensor((2, 2), [(0, 1), (1, 1)], [1.0, 2.0])
        b = sr.CooTensor((2, 2), [(1, 1), (0, 1)], [2.0, 1.0])
        assert a == b

    def test_negative_value_rejected(self):
        with pytest.raises(NegativeValue):
            sr.CooTensor((2, 2), [(0, 0)], [-1.0])

    def test_out_of_range_index_rejected(self):
        with pytest.raises(BadIndex):
            sr.CooTensor((2, 2), [(0, 2)], [1.0])
        with pytest.raises(BadIndex):
            sr.CooTensor((2, 2), [(-1, 0)], [1.0])

    def test_non_integral_index_rejected(self):
        with pytest.raises(BadIndex):
            sr.CooTensor((3, 3), [[1.5, 0.7]], [1.0])
        with pytest.raises(BadIndex):
            sr.CooTensor((3, 3), np.array([[1.0, np.nan]]), [1.0])

    def test_index_beyond_int64_rejected(self):
        with pytest.raises(BadIndex):
            sr.CooTensor((3, 3), [[2**70, 0]], [1.0])

    def test_integral_float_index_accepted(self):
        t = sr.CooTensor((3, 3), [[2.0, 0.0]], [1.0])
        assert t == sr.CooTensor((3, 3), [[2, 0]], [1.0])
        assert t.indices.dtype == np.int64

    def test_nonpositive_dimension_rejected(self):
        with pytest.raises(DimensionMismatch):
            sr.CooTensor((3, 0, 3), [], [])

    def test_value_count_must_match_index_rows(self):
        with pytest.raises(DimensionMismatch):
            sr.CooTensor((2, 2), [(0, 1)], [1.0, 2.0])

    def test_zero_tensor_is_storable(self):
        t = sr.CooTensor((3, 3, 3), [], [])
        assert t.nnz == 0
        assert t.order == 3

    def test_immutability(self):
        t = sr.reference_tensor()
        with pytest.raises(AttributeError):
            t.dims = (2, 2, 2)
        with pytest.raises(ValueError):
            t.values[0] = 7.0

    def test_indices_are_column_major_and_read_only_however_built(self):
        dims = (3, 4, 2)
        t = sr.tensor_io.random_tensor(dims, density=0.5, seed=1)
        idx, vals = np.ascontiguousarray(t.indices), np.array(t.values)
        perm = np.random.default_rng(0).permutation(t.nnz)
        text = sr.write_tensor(t)
        built = {
            "random_tensor": t,
            "sorted arrays": sr.CooTensor(dims, idx, vals),
            "shuffled arrays": sr.CooTensor(dims, idx[perm], vals[perm]),
            "duplicated arrays": sr.CooTensor(
                dims, np.concatenate([idx[perm], idx]), np.concatenate([vals[perm], vals]) / 2
            ),
            "lists": sr.CooTensor(dims, idx.tolist(), vals.tolist()),
            "bulk parse": sr.parse_tensor(text),
            # non-ASCII text takes the per-line parser
            "per-line parse": sr.parse_tensor("# naïve\n" + text),
        }
        assert t.nnz > 1 and idx.flags.c_contiguous
        for how, u in built.items():
            assert u.indices.flags.f_contiguous, how
            assert not u.indices.flags.writeable, how
            assert u == t and hash(u) == hash(t), how


@st.composite
def coo_entries(draw):
    """``(dims, indices, values)`` over a small index space, so coordinates
    repeat (often more than eight times), in the order drawn."""
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    cells = draw(st.lists(st.integers(0, int(np.prod(dims)) - 1), max_size=60))
    vals = draw(st.lists(
        st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, 1.0 / 3.0, 2.5, 1e-300, 5e-324, 1e300]),
        min_size=len(cells), max_size=len(cells),
    ))
    idx = np.stack(np.unravel_index(np.asarray(cells, dtype=np.int64), dims), axis=1)
    return dims, idx, vals


class TestCanonicalForm:
    """The sorted, merged entries are those of ``np.unique(axis=0)`` and a
    ``bincount`` over its inverse, bit for bit."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(entries=coo_entries())
    def test_matches_unique_bincount_reference(self, entries):
        dims, idx, vals = entries
        t = sr.CooTensor(dims, idx, vals)
        if not vals:
            assert t.indices.shape == (0, len(dims)) and t.nnz == 0
            return
        uniq, inverse = np.unique(idx, axis=0, return_inverse=True)
        merged = np.bincount(inverse.ravel(), weights=vals, minlength=uniq.shape[0])
        assert np.array_equal(t.indices, uniq)
        assert t.values.tobytes() == merged.tobytes()

    def test_lone_negative_zero_is_stored_as_positive_zero(self):
        t = sr.CooTensor((2, 2), [(1, 1), (0, 1)], [-0.0, 1.0])
        assert t.values.tolist() == [1.0, 0.0]
        assert not np.signbit(t.values).any()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(entries=coo_entries(), presort=st.booleans())
    def test_sorted_input_skips_the_sort_with_the_same_bits(self, entries, presort):
        dims, idx, vals = entries
        vals = np.asarray(vals, dtype=np.float64)
        if presort:  # sorted and distinct, as written files are
            idx, first = np.unique(idx, axis=0, return_index=True)
            vals = vals[first]
        fast = _canonical(idx, vals)
        ref = _lexsort_canonical(idx, vals)
        assert fast[0].shape == ref[0].shape and fast[1].shape == ref[1].shape
        assert fast[0].tobytes() == ref[0].tobytes()
        assert fast[1].tobytes() == ref[1].tobytes()

    def test_sorted_input_is_copied(self):
        idx = np.array([[0, 1], [1, 0]])
        t = sr.CooTensor((2, 2), idx, [1.0, 2.0])
        assert idx.flags.writeable and not np.shares_memory(idx, t.indices)


class TestValidatePartition:
    def test_single_block(self):
        part = sr.validate_partition((3, 3, 3), [[0, 1, 2]])
        assert part.nu == (3,)
        assert part.starts == (0,)
        assert part.block_dims == (3,)

    def test_two_blocks(self):
        part = sr.validate_partition((3, 3, 3), [[0], [1, 2]])
        assert part.nu == (1, 2)
        assert part.starts == (0, 1)
        assert part.block_dims == (3, 3)
        assert part.mode_block == (0, 1, 1)

    def test_rectangular_dims(self):
        part = sr.validate_partition((2, 3, 3), [[0], [1, 2]])
        assert part.block_dims == (2, 3)

    def test_unequal_dims_in_block(self):
        with pytest.raises(UnequalDimsInBlock):
            sr.validate_partition((3, 2, 2), [[0, 1], [2]])

    def test_decreasing_sizes_rejected(self):
        # ordering is violated too; the size rule is reported first
        with pytest.raises(NonMonotoneBlockSizes):
            sr.validate_partition((3, 3, 3), [[1, 2], [0]])

    def test_out_of_order_blocks_rejected(self):
        with pytest.raises(NonContiguousBlocks):
            sr.validate_partition((3, 3, 3), [[1], [0], [2]])

    def test_interleaved_block_rejected(self):
        with pytest.raises(NonContiguousBlocks):
            sr.validate_partition((4, 4, 4, 4), [[0, 2], [1, 3]])

    def test_incomplete_cover_rejected(self):
        with pytest.raises(NotAPartition):
            sr.validate_partition((3, 3, 3), [[0], [1]])

    def test_overlap_rejected(self):
        with pytest.raises(NotAPartition):
            sr.validate_partition((3, 3, 3), [[0, 1], [1, 2]])

    def test_blocks_must_be_iterables(self):
        with pytest.raises(NotAPartition, match="iterables"):
            sr.validate_partition((3, 3, 3), [0, 1, 2])

    def test_empty_block_rejected(self):
        with pytest.raises(NotAPartition, match="nonempty"):
            sr.validate_partition((3, 3, 3), [[0, 1, 2], []])

    def test_offsets_and_total_dim(self):
        part = sr.validate_partition((2, 3, 3), [[0], [1, 2]])
        assert part.total_dim == 5
        assert part.offsets == (0, 2)

    @pytest.mark.parametrize(
        "blocks", [[[0, 1, 2, 3]], [[0], [1, 2, 3]], [[0, 1], [2, 3]], [[0], [1], [2], [3]]]
    )
    def test_cached_layout_changes_no_comparison(self, blocks):
        dims = [2 + i for i, blk in enumerate(blocks) for _ in blk]
        part = sr.validate_partition(dims, blocks)
        key = hash(part)
        layout = (part.order, part.total_dim, part.offsets, part.mode_block)
        assert {"order", "total_dim", "offsets", "mode_block"} <= set(vars(part))
        fresh = sr.validate_partition(dims, blocks)
        assert part == fresh and hash(part) == key == hash(fresh)
        assert layout == (
            len(dims),
            sum(part.block_dims),
            tuple(int(o) for o in np.cumsum((0,) + part.block_dims[:-1])),
            tuple(i for i, blk in enumerate(blocks) for _ in blk),
        )


class TestBlockVector:
    def test_roundtrip_blocks_flat(self):
        x = sr.BlockVector([[1.0, 2.0], [3.0, 4.0, 5.0]])
        assert x.lengths == (2, 3)
        assert_allclose(x.block(1), [3.0, 4.0, 5.0])
        y = sr.BlockVector.from_flat(x.flat, x.lengths)
        assert_allclose(y.flat, x.flat)

    def test_arithmetic(self):
        x = sr.BlockVector([[1.0], [2.0, 3.0]])
        y = sr.BlockVector([[10.0], [20.0, 30.0]])
        assert_allclose((x + 0.5 * y).flat, [6.0, 12.0, 18.0])
        assert_allclose((y - x).flat, [9.0, 18.0, 27.0])
        assert_allclose((-x).flat, [-1.0, -2.0, -3.0])

    def test_flat_is_read_only(self):
        x = sr.BlockVector([[1.0, 2.0]])
        with pytest.raises(ValueError):
            x.flat[0] = 9.0

    def test_needs_a_block(self):
        with pytest.raises(ShapeMismatch):
            sr.BlockVector([])

    def test_constructors_copy_their_input(self):
        src = np.array([1.0, 2.0, 3.0])
        for x in (sr.BlockVector([src[:1], src[1:]]), sr.BlockVector.from_flat(src, (1, 2))):
            assert not np.shares_memory(x.flat, src) and not x.flat.flags.writeable
            src[0] = 9.0
            assert x.flat[0] == 1.0
            src[0] = 1.0
        assert src.flags.writeable

    def test_arithmetic_results_are_frozen(self):
        x = sr.BlockVector([[1.0], [2.0, 3.0]])
        for y in (x + x, x - x, 2.0 * x, -x):
            assert y.lengths == x.lengths and not y.flat.flags.writeable
            assert not np.shares_memory(y.flat, x.flat)
            assert_allclose(y.block(1), y.flat[1:])

    def test_from_flat_length_mismatch(self):
        with pytest.raises(ShapeMismatch):
            sr.BlockVector.from_flat([1.0, 2.0], (3,))


class TestMultilinearForm:
    def test_reference_value_at_ones(self, ref_tensor):
        assert sr.multilinear_form(ref_tensor, [np.ones(3)] * 3) == 5.0

    def test_matches_dense_oracle(self, ref_tensor):
        rng = np.random.default_rng(11)
        dense = dense_from_coo(ref_tensor)
        for _ in range(20):
            zs = [rng.uniform(-1, 2, n) for n in ref_tensor.dims]
            assert_allclose(
                sr.multilinear_form(ref_tensor, zs),
                oracle_multilinear(dense, zs),
                rtol=1e-13,
            )

    def test_linearity_in_each_slot(self, ref_tensor):
        rng = np.random.default_rng(5)
        for mode in range(3):
            zs = [rng.uniform(0.1, 1.0, 3) for _ in range(3)]
            u, v = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
            a, b = 0.7, -1.3
            zs_comb = list(zs)
            zs_comb[mode] = a * u + b * v
            zs_u, zs_v = list(zs), list(zs)
            zs_u[mode], zs_v[mode] = u, v
            assert_allclose(
                sr.multilinear_form(ref_tensor, zs_comb),
                a * sr.multilinear_form(ref_tensor, zs_u)
                + b * sr.multilinear_form(ref_tensor, zs_v),
                rtol=1e-12,
                atol=1e-14,
            )

    def test_wrong_vector_count(self, ref_tensor):
        with pytest.raises(DimensionMismatch):
            sr.multilinear_form(ref_tensor, [np.ones(3)] * 2)

    def test_wrong_vector_length(self, ref_tensor):
        with pytest.raises(DimensionMismatch):
            sr.multilinear_form(ref_tensor, [np.ones(3), np.ones(4), np.ones(3)])

    def test_zero_tensor(self):
        t = sr.CooTensor((2, 2), [], [])
        assert sr.multilinear_form(t, [np.ones(2)] * 2) == 0.0


class TestGradComponent:
    def test_reference_values_at_ones(self, ref_tensor):
        ones = [np.ones(3)] * 3
        assert_allclose(sr.grad_component(ref_tensor, 0, ones), [2.0, 2.0, 1.0])
        assert_allclose(sr.grad_component(ref_tensor, 1, ones), [1.0, 3.0, 1.0])

    def test_matches_dense_oracle(self, ref_tensor):
        rng = np.random.default_rng(17)
        dense = dense_from_coo(ref_tensor)
        for _ in range(10):
            zs = [rng.uniform(0.1, 2.0, 3) for _ in range(3)]
            for mode in range(3):
                assert_allclose(
                    sr.grad_component(ref_tensor, mode, zs),
                    oracle_grad(dense, mode, zs),
                    rtol=1e-13,
                )

    def test_ignored_slot_may_be_none(self, ref_tensor):
        zs = [None, np.ones(3), np.ones(3)]
        assert_allclose(sr.grad_component(ref_tensor, 0, zs), [2.0, 2.0, 1.0])

    def test_bad_mode_rejected(self, ref_tensor):
        with pytest.raises(BadModeIndex):
            sr.grad_component(ref_tensor, 3, [np.ones(3)] * 3)
        with pytest.raises(BadModeIndex):
            sr.grad_component(ref_tensor, -1, [np.ones(3)] * 3)

    def test_gradient_of_form(self, ref_tensor):
        # grad_component is the exact slot-gradient of the multilinear form
        rng = np.random.default_rng(23)
        zs = [rng.uniform(0.5, 1.5, 3) for _ in range(3)]
        for mode in range(3):
            def f(v, mode=mode):
                zz = list(zs)
                zz[mode] = v
                return sr.multilinear_form(ref_tensor, zz)

            assert rel_err(
                fd_grad(f, zs[mode]), sr.grad_component(ref_tensor, mode, zs)
            ) < 1e-9


class TestLift:
    def test_repeats_blocks_in_mode_order(self, ref_tensor):
        part = sr.validate_partition((3, 3, 3), [[0], [1, 2]])
        x = sr.BlockVector([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        zs = sr.lift(x, part)
        assert len(zs) == 3
        assert_allclose(zs[0], [1.0, 2.0, 3.0])
        assert_allclose(zs[1], [4.0, 5.0, 6.0])
        assert_allclose(zs[2], [4.0, 5.0, 6.0])

    def test_nonconforming_rejected(self):
        part = sr.validate_partition((3, 3, 3), [[0], [1, 2]])
        with pytest.raises(ShapeMismatch):
            sr.lift(sr.BlockVector([[1.0, 2.0], [1.0, 2.0, 3.0]]), part)


def exponent_spread_values():
    """Exact zeros, and magnitudes from 1e-150 to 1e150."""
    spread = st.tuples(st.floats(1.0, 10.0), st.integers(-150, 149)).map(
        lambda me: me[0] * 10.0 ** me[1]
    )
    return st.one_of(st.just(0.0), spread)


class TestGradientMap:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(prob=block_problems(max_block_dim=4, values=exponent_spread_values()), data=st.data())
    def test_is_the_stack_of_grad_components_bit_for_bit(self, prob, data):
        x = sr.BlockVector([
            data.draw(st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n))
            for n in prob.partition.block_dims
        ])
        zs = sr.lift(x, prob.partition)
        ref = np.concatenate(
            [sr.grad_component(prob.tensor, s, zs) for s in prob.partition.starts]
        )
        G = sr.gradient_map(prob, x).flat
        assert np.array_equal(G, ref) and G.tobytes() == ref.tobytes()
        # the same order written out: products in mode order, entries sorted
        # stably by the leading mode, each row's run summed by reduceat
        idx, blocks = prob.tensor.indices, []
        for s in prob.partition.starts:
            w = prob.tensor.values.copy()
            for q in range(prob.tensor.order):
                if q != s:
                    w *= zs[q][idx[:, q]]
            order = np.argsort(idx[:, s], kind="stable")
            lead = idx[order, s]
            starts = np.flatnonzero(np.diff(lead, prepend=-1))
            blocks.append(np.zeros(prob.tensor.dims[s]))
            if starts.size:
                blocks[-1][lead[starts]] = np.add.reduceat(w[order], starts)
        assert G.tobytes() == np.concatenate(blocks).tobytes()

    @pytest.mark.parametrize("kernel", [sr.gradient_map, sr.gradient_map_jacobian])
    def test_wrong_split_rejected(self, ref_tensor, kernel):
        # six numbers split (2, 4) against block dims (3, 3): a flat gather
        # would read them as the right shape, so the split must be checked
        prob = sr.make_problem(ref_tensor, [[0], [1, 2]], ["3", "3"])
        with pytest.raises(ShapeMismatch):
            kernel(prob, sr.BlockVector([[1.0, 2.0], [3.0, 4.0, 5.0, 6.0]]))
        with pytest.raises(TypeError):
            kernel(prob, [1.0] * 6)

    def test_single_block_components(self, ref_tensor):
        # G_1 = 2 x1 x3, G_2 = x1 x2 + x2^2, G_3 = x1 x2 for the bundled tensor
        prob = sr.make_problem(ref_tensor, [[0, 1, 2]], ["3"])
        rng = np.random.default_rng(3)
        for _ in range(5):
            x1, x2, x3 = rng.uniform(0.1, 2.0, 3)
            G = sr.gradient_map(prob, sr.BlockVector([[x1, x2, x3]]))
            assert_allclose(
                G.flat, [2 * x1 * x3, x1 * x2 + x2 * x2, x1 * x2], rtol=1e-14
            )

    def test_euler_identity_every_block(self, nine_problem):
        # <x_i, G_i(x)> equals the multilinear form at the lift, for every i
        prob, _ = nine_problem
        rng = np.random.default_rng(29)
        for _ in range(10):
            x = random_positive(prob, rng)
            G = sr.gradient_map(prob, x)
            f = sr.multilinear_form(prob.tensor, sr.lift(x, prob.partition))
            for i in range(prob.d):
                assert_allclose(float(x.block(i) @ G.block(i)), f, rtol=1e-12)

    def test_block_scaling_homogeneity(self, ref_tensor):
        # scaling block l by t scales G_i by t^(nu_l - delta_il)
        prob = sr.make_problem(ref_tensor, [[0], [1, 2]], ["2", "4"])
        rng = np.random.default_rng(31)
        x = random_positive(prob, rng)
        G = sr.gradient_map(prob, x)
        t = np.array([1.7, 0.6])
        nu = np.array(prob.partition.nu, dtype=float)
        xs = sr.BlockVector([t[i] * x.block(i) for i in range(prob.d)])
        Gs = sr.gradient_map(prob, xs)
        for i in range(prob.d):
            expo = nu.copy()
            expo[i] -= 1.0
            factor = float(np.prod(t**expo))
            assert_allclose(Gs.block(i), factor * G.block(i), rtol=1e-12)


def reduceat_depth(k: int) -> int:
    """At most how many additions a term of a ``k``-term run passes through
    in ``np.add.reduceat``: the run's first term seeds the sum and the rest
    go through numpy's pairwise sum, which adds under 8 terms one by one, up
    to 128 in eight interleaved accumulators and halves longer runs, so the
    depth grows with log k."""
    def pairwise(n):
        if n < 8:
            return n
        if n <= 128:
            return n // 8 + 2 + n % 8
        half = n // 2 - n // 2 % 8
        return 1 + max(pairwise(half), pairwise(n - half))
    return 1 + pairwise(k - 1) if k > 1 else 0


class TestSummationPlan:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(prob=block_problems(), seed=st.integers(0, 2**32 - 1),
           cap=st.sampled_from([1, 7, specrad.tensor_core._PIECE_ENTRIES]))
    def test_plan_orders_stably_and_sums_pairwise(self, prob, seed, cap):
        part, t = prob.partition, prob.tensor
        key = hash(prob)
        x = random_positive(prob, np.random.default_rng(seed))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(specrad.tensor_core, "_PIECE_ENTRIES", cap)
            G = sr.gradient_map(prob, x).flat  # builds the plan
        assert "_plan" in vars(prob)
        assert hash(prob) == key and prob == sr.make_problem(t, part.blocks, prob.p_exact)
        # the pieces cover the blocks in order; each holds one block or at
        # most cap entries, and could not take the next piece's first block
        pieces = prob._plan
        assert [i for pc in pieces for i in pc.blocks] == list(range(part.d))
        for pc, after in zip(pieces, [*pieces[1:], None]):
            assert len(pc.blocks) == 1 or len(pc.blocks) * t.nnz <= cap
            assert after is None or (len(pc.blocks) + 1) * t.nnz > cap
            assert all(not a.flags.writeable for a in [*pc.cols, pc.values, pc.starts, pc.rows])
            assert pc.rows.dtype == pc.starts.dtype == np.intp
            lo, hi = part.offsets[pc.blocks[0]], part.offsets[pc.blocks[-1]] + part.block_dims[pc.blocks[-1]]
            assert pc.span == (slice(lo, hi) if np.array_equal(pc.rows, np.arange(lo, hi)) else None)
            if pc.blocks == range(1):  # block 0 alone keeps the tensor's own arrays
                assert np.shares_memory(pc.values, t.values) or t.nnz == 0
        u = np.finfo(np.float64).eps / 2
        plans = block_plans(prob)
        assert len(plans) == part.d
        for i, (s, n, (pc, cols, values, starts, rows)) in enumerate(zip(part.starts, part.block_dims, plans)):
            order = np.argsort(t.indices[:, s], kind="stable")
            others = [q for q in range(part.order) if q != s]
            assert np.array_equal(values, t.values[order])
            assert len(cols) == len(others)
            for q, c in zip(others, cols):
                assert c.dtype == np.intp
                assert np.array_equal(c, part.offsets[part.mode_block[q]] + t.indices[order, q])
            # runs: strictly increasing starts from 0, the rows present in order
            counts = np.bincount(t.indices[:, s], minlength=n)
            assert np.array_equal(rows, np.flatnonzero(counts))
            assert np.array_equal(np.diff(starts, append=t.nnz), counts[rows])
            assert starts[:1].tolist() == ([0] if t.nnz else [])
            # within a pairwise rounding bound of a longdouble oracle
            terms = t.values.astype(np.longdouble)
            for q in others:
                terms *= x.flat[part.offsets[part.mode_block[q]] + t.indices[:, q]].astype(np.longdouble)
            exact = np.zeros(n, dtype=np.longdouble)
            np.add.at(exact, t.indices[:, s], terms)
            j = part.order + np.array([reduceat_depth(k) for k in counts])
            bound = j * u / (1 - j * u) * exact
            assert np.all(np.abs(G[part.offsets[i]:part.offsets[i] + n] - exact) <= bound)

    def test_every_sort_is_the_stable_argsort(self):
        col = np.random.default_rng(7).integers(0, 50, 1000)
        order, starts, rows = _lead_runs(col, 50)  # one sort of the keys col << b | position
        assert np.array_equal(order, np.argsort(col, kind="stable"))
        # the same column declared so wide that those keys could pass int64
        for a, b in zip((order, starts, rows), _lead_runs(col, 2**62)):
            assert np.array_equal(a, b)
        assert np.array_equal(rows, np.unique(col))
        assert np.array_equal(col[order][starts], rows)
        assert _lead_runs(np.sort(col), 50)[0] == slice(None)


class TestSummationPieces:
    """Consecutive blocks share a summation piece while their entries fit in
    ``_PIECE_ENTRIES``; where the pieces split changes no output bit."""

    CAPS = (1, 7, specrad.tensor_core._PIECE_ENTRIES)

    @staticmethod
    def outputs(prob, cap, x, lam, v):
        """The gradient map, the matrix-free Newton product with ``v``, the
        Jacobian triplets, the dense ``gradient_map_jacobian`` and the dense
        bordered Newton matrix at ``x``, from a fresh copy of ``prob`` whose
        plan is built under ``cap``, and the blocks of its pieces."""
        fresh = sr.make_problem(prob.tensor, prob.partition.blocks, prob.p_exact or prob.p)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(specrad.tensor_core, "_PIECE_ENTRIES", cap)
            G = sr.gradient_map(fresh, x).flat  # builds the plan
        phi = sr.ratio_map(fresh, x).flat
        norms = _block_norms(fresh, x.flat)
        matvec, _, _ = krylov_system(fresh, x, lam)
        triplets = jacobian_triplets(fresh, x)
        dense = [sr.gradient_map_jacobian(fresh, x), _newton_matrix(fresh, x.flat, phi, lam, norms)]
        bits = [G.tobytes(), matvec(v).tobytes(), *(a.tobytes() for a in [*triplets, *dense])]
        return bits, [list(pc.blocks) for pc in fresh._plan]

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(prob=block_problems(), seed=st.integers(0, 2**32 - 1), lam=st.floats(0.1, 10.0))
    def test_every_cap_gives_the_same_bits(self, prob, seed, lam):
        rng = np.random.default_rng(seed)
        x = random_positive(prob, rng)
        v = rng.standard_normal(prob.partition.total_dim + 1)
        runs = [self.outputs(prob, cap, x, lam, v) for cap in self.CAPS]
        assert runs[0][0] == runs[1][0] == runs[2][0]
        # cap 1 leaves every block alone unless there are no entries
        assert runs[0][1] == [[i] for i in range(prob.d)] or prob.tensor.nnz == 0
        assert runs[2][1] == [list(range(prob.d))]

    def test_a_partial_merge_gives_the_same_bits(self):
        # 5 entries a block: a cap of 10 takes blocks 0 and 1 into one piece
        # and leaves block 2 alone
        prob = sr.make_problem(sr.reference_tensor(), [[0], [1], [2]], ["3"] * 3)
        rng = np.random.default_rng(0)
        x = random_positive(prob, rng)
        v = rng.standard_normal(10)
        merged, pieces = self.outputs(prob, 10, x, 1.5, v)
        assert pieces == [[0, 1], [2]]
        for cap in self.CAPS:
            assert self.outputs(prob, cap, x, 1.5, v)[0] == merged


class TestGradientMapJacobian:
    def test_identity_matrix_pattern(self):
        t = sr.CooTensor((2, 2), [(0, 0), (1, 1)], [1.0, 1.0])
        prob = sr.make_problem(t, [[0], [1]], ["2", "2"])
        x = sr.BlockVector([[1.0, 1.0], [1.0, 1.0]])
        DG = sr.gradient_map_jacobian(prob, x)
        expected = np.zeros((4, 4))
        expected[0, 2] = expected[1, 3] = 1.0
        expected[2, 0] = expected[3, 1] = 1.0
        assert_allclose(DG, expected)

    def test_all_ones_cube_value(self, all_ones_cube):
        prob = sr.make_problem(all_ones_cube, [[0, 1, 2]], ["3"])
        DG = sr.gradient_map_jacobian(prob, sr.BlockVector([[1.0, 1.0]]))
        assert_allclose(DG, np.full((2, 2), 4.0))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_fd(self, nine_problem, seed):
        prob, _ = nine_problem
        rng = np.random.default_rng(100 + seed)
        x = random_positive(prob, rng)

        def g(flat):
            return sr.gradient_map(
                prob, sr.BlockVector.from_flat(flat, x.lengths)
            ).flat

        assert rel_err(fd_jacobian(g, x.flat), sr.gradient_map_jacobian(prob, x)) < 1e-7

    def test_is_the_in_order_sum_of_its_triplets(self, nine_problem):
        prob, _ = nine_problem
        x = random_positive(prob, np.random.default_rng(3))
        rows, cols, w = jacobian_triplets(prob, x)
        n = prob.partition.total_dim
        ref = np.zeros((n, n))
        np.add.at(ref, (rows, cols), w)
        assert sr.gradient_map_jacobian(prob, x).tobytes() == ref.tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(prob=block_problems(), seed=st.integers(0, 2**32 - 1))
    def test_cached_cells_are_the_triplet_coordinates(self, prob, seed):
        # the cells are kept from the first dense Jacobian on; the second
        # Jacobian reads them back, and both are the in-order triplet sum
        assert "_jacobian_cells" not in vars(prob)
        x = random_positive(prob, np.random.default_rng(seed))
        rows, cols, w = jacobian_triplets(prob, x)
        part, idx = prob.partition, prob.tensor.indices
        n = part.total_dim
        ref = np.zeros((n, n))
        np.add.at(ref, (rows, cols), w)
        for _ in range(2):
            assert sr.gradient_map_jacobian(prob, x).tobytes() == ref.tobytes()
        cells = prob._jacobian_cells
        assert not cells.flags.writeable and cells.dtype == np.intp
        # laid out as the weights are: per piece, one column after another
        per_piece, at = [], 0
        for pc in prob._plan:
            k = pc.values.size
            per_piece.append(tuple(cells[at + j * k:at + (j + 1) * k] for j in range(len(pc.cols))))
            at += len(pc.cols) * k
        assert at == cells.size
        # each block's segment: row by row in the block's stable order by e_s
        for i, (s, segment) in enumerate(zip(part.starts, block_segments(prob, per_piece), strict=True)):
            order = np.argsort(idx[:, s], kind="stable")
            others = [q for q in range(part.order) if q != s]
            for q, c in zip(others, segment, strict=True):
                row = part.offsets[i] + idx[order, s]
                assert np.array_equal(c, row * n + part.offsets[part.mode_block[q]] + idx[order, q])

    def test_zero_tensor_gives_zero_jacobian(self):
        t = sr.CooTensor((2, 2, 2), [], [])
        prob = sr.make_problem(t, [[0, 1, 2]], ["3"])
        DG = sr.gradient_map_jacobian(prob, sr.BlockVector([[1.0, 1.0]]))
        assert DG.dtype == np.float64
        assert_allclose(DG, np.zeros((2, 2)))
