"""Structure matrix, nonnegativity/irreducibility checks, regime classification."""
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from numpy.testing import assert_allclose

import specrad as sr
from specrad.structure import CRITICAL_TOL

from conftest import NINE_CONFIGS, block_problems, config_id, ring_cube, wide_block_problems


@pytest.fixture(params=NINE_CONFIGS, ids=config_id)
def nine_problem(request, ref_tensor):
    blocks, p, lam_ref = request.param
    return sr.make_problem(ref_tensor, blocks, p), lam_ref


class TestStructureMatrix:
    def test_single_block_reference(self, ref_tensor):
        prob = sr.make_problem(ref_tensor, [[0, 1, 2]], ["3"])
        M = sr.structure_matrix(prob)
        assert_allclose(M, [[2.0, 0.0, 2.0], [1.0, 3.0, 0.0], [1.0, 1.0, 0.0]])

    def test_two_block_reference(self, ref_tensor):
        prob = sr.make_problem(ref_tensor, [[0], [1, 2]], ["2", "4"])
        M = sr.structure_matrix(prob)
        expected = np.array(
            [
                [0, 0, 0, 2, 0, 2],
                [0, 0, 0, 1, 3, 0],
                [0, 0, 0, 1, 1, 0],
                [1, 0, 0, 0, 0, 1],
                [0, 2, 1, 2, 1, 0],
                [1, 0, 0, 1, 0, 0],
            ],
            dtype=float,
        )
        assert_allclose(M, expected)

    def test_matrix_tensor_block_pattern(self, sym_matrix_tensor):
        prob = sr.make_problem(sym_matrix_tensor, [[0], [1]], ["2", "2"])
        M = sr.structure_matrix(prob)
        A = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert_allclose(M[:2, :2], 0.0)
        assert_allclose(M[2:, 2:], 0.0)
        assert_allclose(M[:2, 2:], A)
        assert_allclose(M[2:, :2], A.T)


class TestNonnegativityChecks:
    def test_reference_tensor_strict_everywhere(self, nine_problem):
        prob, _ = nine_problem
        assert sr.is_strictly_nonneg(prob)

    def test_weak_irreducibility_by_partition(self, ref_tensor):
        # single block and three singleton blocks connect everything; the
        # two-block split leaves the structure graph with several components
        assert sr.is_weakly_irreducible(sr.make_problem(ref_tensor, [[0, 1, 2]], ["3"]))
        assert sr.is_weakly_irreducible(
            sr.make_problem(ref_tensor, [[0], [1], [2]], ["4", "4", "4"])
        )
        assert not sr.is_weakly_irreducible(
            sr.make_problem(ref_tensor, [[0], [1, 2]], ["2", "4"])
        )

    def test_zero_tensor_fails_both(self):
        t = sr.CooTensor((2, 2, 2), np.empty((0, 3), dtype=np.int64), [])
        prob = sr.make_problem(t, [[0, 1, 2]], ["3"])
        assert not sr.is_strictly_nonneg(prob)
        assert not sr.is_weakly_irreducible(prob)

    def test_strict_but_reducible(self):
        # identity matrix: every row/column is hit, but the structure graph
        # splits into two components (one per diagonal entry)
        t = sr.CooTensor((2, 2), [(0, 0), (1, 1)], [1.0, 1.0])
        prob = sr.make_problem(t, [[0], [1]], ["2", "2"])
        assert sr.is_strictly_nonneg(prob)
        assert not sr.is_weakly_irreducible(prob)

    def test_triangular_matrix_still_weakly_irreducible(self):
        # classical reducibility is not the same notion: the bipartite
        # structure graph of an upper triangular matrix is connected
        t = sr.CooTensor((2, 2), [(0, 0), (0, 1), (1, 1)], [1.0, 1.0, 1.0])
        prob = sr.make_problem(t, [[0], [1]], ["2", "2"])
        assert sr.is_weakly_irreducible(prob)

    def test_missing_row_fails_strict(self):
        # no entry touches index 1 of mode 0: Phi_0,1 vanishes identically
        t = sr.CooTensor((2, 2), [(0, 0), (0, 1)], [1.0, 1.0])
        prob = sr.make_problem(t, [[0], [1]], ["2", "2"])
        assert not sr.is_strictly_nonneg(prob)

    def test_weak_implies_strict(self, nine_problem):
        prob, _ = nine_problem
        if sr.is_weakly_irreducible(prob):
            assert sr.is_strictly_nonneg(prob)

    def test_weak_implies_strict_random(self):
        rng = np.random.default_rng(321)
        for trial in range(20):
            dims = tuple(rng.integers(2, 4, size=3))
            t = sr.tensor_io.random_tensor(dims, density=0.3, seed=int(rng.integers(1e6)))
            if dims[1] == dims[2]:
                blocks = [[0], [1, 2]]
                p = ["2", "4"]
            else:
                blocks = [[0], [1], [2]]
                p = ["3", "3", "3"]
            try:
                prob = sr.make_problem(t, blocks, p)
            except sr.errors.SpecradError:
                continue
            if sr.is_weakly_irreducible(prob):
                assert sr.is_strictly_nonneg(prob)

    def test_positive_tensor_always_weakly_irreducible(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(2, 4))
            dims = (n, n, n)
            idx = np.stack(
                np.meshgrid(*[np.arange(n)] * 3, indexing="ij"), axis=-1
            ).reshape(-1, 3)
            vals = rng.uniform(0.1, 1.0, idx.shape[0])
            t = sr.CooTensor(dims, idx, vals)
            for blocks, p in [
                ([[0, 1, 2]], ["3"]),
                ([[0], [1, 2]], ["2", "4"]),
                ([[0], [1], [2]], ["3", "3", "3"]),
            ]:
                prob = sr.make_problem(t, blocks, p)
                assert sr.is_weakly_irreducible(prob)
                assert sr.is_strictly_nonneg(prob)

    def test_within_block_relabel_invariance(self, ref_tensor):
        # permuting index labels inside a block leaves both checks unchanged
        rng = np.random.default_rng(29)
        prob = sr.make_problem(ref_tensor, [[0, 1, 2]], ["3"])
        base = (sr.is_strictly_nonneg(prob), sr.is_weakly_irreducible(prob))
        for _ in range(5):
            perm = rng.permutation(3)
            idx = perm[ref_tensor.indices]
            t2 = sr.CooTensor(ref_tensor.dims, idx, ref_tensor.values)
            prob2 = sr.make_problem(t2, [[0, 1, 2]], ["3"])
            assert (
                sr.is_strictly_nonneg(prob2),
                sr.is_weakly_irreducible(prob2),
            ) == base

    def test_single_index_block_graph_convention(self):
        # a 1x1 "matrix" with positive entry: the one-node graph carries a
        # self-loop, so weak irreducibility holds exactly when strictness does
        t = sr.CooTensor((1, 1), [(0, 0)], [2.0])
        prob = sr.make_problem(t, [[0], [1]], ["2", "2"])
        assert sr.is_strictly_nonneg(prob)
        assert sr.is_weakly_irreducible(prob)


class TestClassifyRegime:
    def test_critical_weakly_irreducible(self, ref_tensor):
        rep = sr.classify_regime(sr.make_problem(ref_tensor, [[0, 1, 2]], ["3"]))
        assert rep.regime is sr.Regime.WEAKLY_IRR_CRITICAL
        assert rep.strict_nonneg and rep.weakly_irreducible
        assert rep.nu_over_p_exact == "1"
        assert rep.M_nnz == 6

    def test_triple_block_critical(self, ref_tensor):
        rep = sr.classify_regime(
            sr.make_problem(ref_tensor, [[0], [1], [2]], ["3", "3", "3"])
        )
        assert rep.regime is sr.Regime.WEAKLY_IRR_CRITICAL
        assert rep.nu_over_p_exact == "1"

    def test_subcritical_weakly_irreducible(self, all_ones_cube):
        prob = sr.make_problem(all_ones_cube, [[0, 1, 2]], ["4"])
        rep = sr.classify_regime(prob)
        assert rep.regime is sr.Regime.BOTH_VALID
        assert rep.nu_over_p_exact == "3/4"
        assert rep.rho_A < 1.0

    def test_strict_only_critical_is_unsupported(self, ref_tensor):
        prob = sr.make_problem(ref_tensor, [[0], [1, 2]], ["2", "4"])
        rep = sr.classify_regime(prob)
        assert rep.strict_nonneg
        assert not rep.weakly_irreducible
        assert rep.nu_over_p_exact == "1"
        assert rep.regime is sr.Regime.UNSUPPORTED

    def test_strict_only_subcritical(self, ref_tensor):
        prob = sr.make_problem(ref_tensor, [[0], [1, 2]], ["3", "5"])
        rep = sr.classify_regime(prob)
        assert rep.strict_nonneg and not rep.weakly_irreducible
        assert rep.regime is sr.Regime.STRICT_SUBCRITICAL
        assert rep.nu_over_p < 1.0

    def test_supercritical_unsupported(self, all_ones_cube):
        prob = sr.make_problem(all_ones_cube, [[0, 1, 2]], ["2"])
        rep = sr.classify_regime(prob)
        assert rep.nu_over_p_exact == "3/2"
        assert rep.regime is sr.Regime.UNSUPPORTED

    def test_float_p_supercritical_unsupported(self, all_ones_cube):
        # without exact p the side of one is decided in floats: 3/2.5 > 1
        rep = sr.classify_regime(sr.make_problem(all_ones_cube, [[0, 1, 2]], [2.5]))
        assert rep.nu_over_p_exact is None
        assert rep.regime is sr.Regime.UNSUPPORTED

    def test_zero_tensor_unsupported(self):
        t = sr.CooTensor((2, 2, 2), np.empty((0, 3), dtype=np.int64), [])
        rep = sr.classify_regime(sr.make_problem(t, [[0, 1, 2]], ["3"]))
        assert rep.regime is sr.Regime.UNSUPPORTED
        assert rep.M_nnz == 0

    def test_exact_arithmetic_beats_float_noise(self, ref_tensor):
        # 1/3 + 1/3 + 1/3 is not exactly 1 in floats but is as Fractions
        prob = sr.make_problem(ref_tensor, [[0], [1], [2]], ["3", "3", "3"])
        assert prob.p_exact is not None
        rep = sr.classify_regime(prob)
        assert rep.nu_over_p_exact == "1"
        assert rep.regime is sr.Regime.WEAKLY_IRR_CRITICAL

    def test_float_p_near_critical_tolerance(self, ref_tensor):
        # without exact p the harmonic sum is compared within CRITICAL_TOL
        prob = sr.make_problem(ref_tensor, [[0, 1, 2]], [3.0 * (1 + 1e-14)])
        rep = sr.classify_regime(prob)
        assert rep.nu_over_p_exact is None
        assert rep.regime is sr.Regime.WEAKLY_IRR_CRITICAL
        assert CRITICAL_TOL == 1e-12

    def test_rho_sign_agrees_across_configs(self, nine_problem):
        prob, _ = nine_problem
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # classify_regime warns about nothing
            rep = sr.classify_regime(prob)
        s = prob.nu_over_p
        if abs(s - 1.0) > 1e-9:
            assert (rep.rho_A - 1.0) * (s - 1.0) > 0

    def test_report_to_dict_is_json_friendly(self, ref_tensor):
        import json

        rep = sr.classify_regime(sr.make_problem(ref_tensor, [[0, 1, 2]], ["3"]))
        d = rep.to_dict()
        json.dumps(d)
        assert d["regime"] == "WeaklyIrrCritical"
        assert d["strict_nonneg"] is True
        assert d["weakly_irreducible"] is True
        assert d["nu_over_p_exact"] == "1"


def reachable(adj):
    """Transitive-closure oracle: boolean squaring of ``adj | I`` until it
    stops changing gives the reachability relation (products in floats, so
    BLAS does them)."""
    R = adj | np.eye(adj.shape[0], dtype=bool)
    while True:
        R2 = (R.astype(float) @ R) > 0
        if np.array_equal(R2, R):
            return R
        R = R2


def reaches_everywhere(adj):
    """The digraph is strongly connected: every vertex reaches every other."""
    return bool(reachable(adj).all())


def widest_level(adj):
    """Most arcs leaving one level of a breadth-first search from vertex 0."""
    seen = np.zeros(adj.shape[0], dtype=bool)
    seen[0] = True
    front, widest = seen.copy(), 0
    while front.any():
        widest = max(widest, int(adj[front].sum()))
        front = adj[front].any(axis=0) & ~seen
        seen |= front
    return widest


def dense_report(prob):
    """``(strict_nonneg, weakly_irreducible, M_nnz)`` from the dense structure
    matrix."""
    M = sr.structure_matrix(prob)
    strict = bool(np.all((M > 0).any(axis=1)))
    weak = bool(M[0, 0] > 0) if M.shape[0] == 1 else reaches_everywhere(M > 0)
    return strict, weak, int(np.count_nonzero(M))


class TestSparseCouplingDigraph:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(prob=block_problems())
    def test_matches_dense_structure_matrix(self, prob):
        strict, weak, m_nnz = dense_report(prob)
        rep = sr.classify_regime(prob)
        assert (rep.strict_nonneg, rep.weakly_irreducible, rep.M_nnz) == (strict, weak, m_nnz)
        assert sr.is_strictly_nonneg(prob) == strict
        assert sr.is_weakly_irreducible(prob) == weak

    def test_levels_wider_than_four_n_arcs(self):
        # the search expands a level of more than 4·N arcs in pieces
        wide = []

        @settings(max_examples=200, deadline=None, derandomize=True, database=None)
        @given(prob=wide_block_problems())
        def check(prob):
            strict, weak, m_nnz = dense_report(prob)
            rep = sr.classify_regime(prob)
            assert (rep.strict_nonneg, rep.weakly_irreducible, rep.M_nnz) == (strict, weak, m_nnz)
            M = sr.structure_matrix(prob) > 0
            wide.append(strict and widest_level(M) > 4 * len(M))

        check()
        assert sum(wide) >= 50, sum(wide)

    def test_search_goes_on_from_every_piece_of_a_level(self):
        # a complete 40 x 40 bipartite core, then a path leaving it from row
        # 39 only; the level that finds the path's first vertex has 1600 arcs
        # (N = 200), so that vertex is found in the level's last piece
        m, n = 40, 100
        core = [(i, j) for i in range(m) for j in range(m)]
        path = [(m - 1, m)] + [(r, c) for r in range(m, n) for c in (r, r + 1) if c < n]
        idx = np.array(core + path)
        prob = sr.make_problem(sr.CooTensor((n, n), idx, np.ones(len(idx))), [[0], [1]], ["3", "3"])
        M = sr.structure_matrix(prob) > 0
        assert widest_level(M) > 4 * len(M)
        rep = sr.classify_regime(prob)
        assert (rep.strict_nonneg, rep.weakly_irreducible, rep.M_nnz) == dense_report(prob)
        assert rep.weakly_irreducible

    def test_symmetric_shortcut_needs_single_mode_blocks(self):
        # a star: entries (0, t) and (t, t).  With both modes in one block
        # the arcs run 0 -> t and t -> t only, so a search from vertex 0
        # reaches everything while the backward search does not
        n = 50
        t = np.arange(n)
        idx = np.concatenate([np.stack([0 * t, t], axis=1), np.stack([t, t], axis=1)])
        tensor = sr.CooTensor((n, n), idx, np.ones(len(idx)))
        one = sr.make_problem(tensor, [[0, 1]], ["3"])
        R = reachable(sr.structure_matrix(one) > 0)
        assert R[0].all() and not R[:, 0].all()
        assert dense_report(one)[:2] == (True, False)
        rep = sr.classify_regime(one)
        assert rep.strict_nonneg and not rep.weakly_irreducible
        # as two single-mode blocks, each entry couples both ways
        two = sr.make_problem(tensor, [[0], [1]], ["3", "3"])
        assert dense_report(two)[:2] == (True, True)
        assert sr.classify_regime(two).weakly_irreducible

    def test_memory_per_stored_entry(self):
        # N = 30,000: the arc codes, written straight from the index
        # columns and deduplicated in place, and the search pieces stay
        # under 40 bytes per stored entry (65 with per-mode vertex arrays,
        # 230 with full-size copies and a second search)
        tensor = ring_cube(10_000, 0)
        prob = sr.make_problem(tensor, [[0], [1], [2]], ["3", "3", "3"])
        tracemalloc.start()
        try:
            rep = sr.classify_regime(prob)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.regime is sr.Regime.WEAKLY_IRR_CRITICAL
        assert peak <= 40 * tensor.values.size
        # every ordered pair of modes gives an arc between different blocks
        n, idx = 10_000, tensor.indices
        rows_cols = [(idx[:, s] + s * n) * (3 * n) + idx[:, q] + q * n
                     for s in range(3) for q in range(3) if q != s]
        codes = np.sort(np.concatenate(rows_cols))
        assert rep.M_nnz == 1 + np.count_nonzero(np.diff(codes))

    def test_large_problem_needs_no_dense_matrix(self):
        # N = 3000: the dense structure matrix alone would take 72 MB
        n = 1000
        rng = np.random.default_rng(5)
        t = np.arange(n)
        ring = np.stack([t, (t + 1) % n, (t + 1) % n], axis=1)
        idx = np.concatenate([ring, rng.integers(0, n, size=(10 * n, 3))])
        tensor = sr.CooTensor((n, n, n), idx, np.ones(len(idx)))
        prob = sr.make_problem(tensor, [[0], [1], [2]], ["3", "3", "3"])
        tracemalloc.start()
        try:
            rep = sr.classify_regime(prob)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6
        assert rep.regime is sr.Regime.WEAKLY_IRR_CRITICAL

    def test_long_cycle(self):
        # a 10^4-vertex directed cycle t -> t+1, each vertex with a self-loop
        # so that dropping one cycle arc keeps it strictly nonnegative and
        # only the reachability search can tell
        n = 10_000
        t = np.arange(n)
        cycle = np.stack([t, (t + 1) % n, (t + 1) % n], axis=1)
        loops = np.stack([t, t, t], axis=1)

        def report(idx):
            tensor = sr.CooTensor((n, n, n), idx, np.ones(len(idx)))
            return sr.classify_regime(sr.make_problem(tensor, [[0, 1, 2]], ["3"]))

        whole = report(np.concatenate([cycle, loops]))
        assert whole.weakly_irreducible and whole.M_nnz == 2 * n
        cut = report(np.concatenate([np.delete(cycle, 4321, axis=0), loops]))
        assert cut.strict_nonneg and not cut.weakly_irreducible
        assert cut.M_nnz == 2 * n - 1

    def test_cycle_past_the_int32_code_range(self):
        # N = 50,000: row * N + col reaches 2.5e9, beyond int32
        n = 50_000
        t = np.arange(n)
        cycle = np.stack([t, (t + 1) % n], axis=1)
        loops = np.stack([t, t], axis=1)

        def report(idx):
            tensor = sr.CooTensor((n, n), idx, np.ones(len(idx)))
            return sr.classify_regime(sr.make_problem(tensor, [[0, 1]], ["2"]))

        whole = report(cycle)
        assert whole.weakly_irreducible and whole.M_nnz == n
        cut = report(np.concatenate([np.delete(cycle, 4321, axis=0), loops]))
        assert cut.strict_nonneg and not cut.weakly_irreducible
        assert cut.M_nnz == 2 * n - 1
