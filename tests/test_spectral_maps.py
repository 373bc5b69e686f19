"""Ratio map, constraint surface, Newton system blocks, power map,
homogeneity weights, Collatz-Wielandt bounds, and log-domain maps."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import specrad as sr
from specrad.errors import NonPositiveInput, OverflowGuard, SpecradError, ZeroNormBlock
from specrad.spectral_maps import _bordered_operator, _newton_matrix, _residual_jacobian

from conftest import block_problems, bv, fd_grad, fd_jacobian, random_positive, rel_err


def pinv_otimes(prob, x):
    """Blockwise (1/p_i) * x_i, flattened."""
    return np.concatenate(
        [x.block(i) / prob.p[i] for i in range(prob.d)]
    )


class TestProblemConstruction:
    def test_p_must_exceed_one(self, ref_tensor):
        with pytest.raises(ValueError):
            sr.make_problem(ref_tensor, [[0, 1, 2]], ["1"])
        with pytest.raises(ValueError):
            sr.make_problem(ref_tensor, [[0], [1, 2]], ["2", "0.5"])

    def test_p_length_must_match_blocks(self, ref_tensor):
        with pytest.raises(ValueError):
            sr.make_problem(ref_tensor, [[0], [1, 2]], ["2"])

    def test_conjugate_exponents(self, ref_tensor):
        prob = sr.make_problem(ref_tensor, [[0], [1, 2]], ["2", "4"])
        assert_allclose(prob.p_conj, (2.0, 4.0 / 3.0), rtol=1e-15)

    def test_exact_rationals_kept(self, ref_tensor):
        prob = sr.make_problem(ref_tensor, [[0], [1, 2]], ["2", "4"])
        assert prob.p_exact is not None
        prob_f = sr.make_problem(ref_tensor, [[0], [1, 2]], [2.0, 4.0])
        assert prob_f.p_exact is None

    def test_cached_arrays_change_no_comparison(self, nine_problem):
        prob, _ = nine_problem
        key = hash(prob)
        sr.gradient_map_jacobian(prob, prob.ones())  # fills the Jacobian cells
        cached = {
            name: getattr(prob, name)
            for name in ("_p_flat", "_p_minus_one", "_power_exponent", "_inv_p", "_coord_block")
        }
        assert set(cached) | {"_jacobian_cells"} <= set(vars(prob))
        fresh = sr.make_problem(prob.tensor, prob.partition.blocks, prob.p_exact)
        assert prob == fresh and hash(prob) == key == hash(fresh)
        assert all(not a.flags.writeable for a in cached.values())
        dims = prob.partition.block_dims
        pe = np.concatenate([np.full(n, pi) for n, pi in zip(dims, prob.p)])
        assert np.array_equal(cached["_p_flat"], pe)
        assert np.array_equal(cached["_p_minus_one"], pe - 1.0)
        assert np.array_equal(cached["_power_exponent"], pe / (pe - 1.0) - 1.0)
        assert np.array_equal(cached["_inv_p"], [1.0 / pi for pi in prob.p])
        assert np.array_equal(cached["_coord_block"], [i for i, n in enumerate(dims) for _ in range(n)])

    def test_numpy_integer_p_is_exact(self, ref_tensor):
        singletons = [[0], [1], [2]]
        prob = sr.make_problem(ref_tensor, singletons, np.array([3, 3, 3]))
        assert prob.p_exact == (3, 3, 3)
        assert all(type(fr.numerator) is int for fr in prob.p_exact)
        assert sr.classify_regime(prob).nu_over_p_exact == "1"

    def test_zero_denominator_p_rejected(self, ref_tensor):
        with pytest.raises(ValueError, match="1/0"):
            sr.make_problem(ref_tensor, [[0, 1, 2]], ["1/0"])

    @pytest.mark.parametrize(
        "dims, p_exact, match",
        [
            ((2, 2, 2), None, "partition does not match"),
            ((3, 3, 3), (Fraction(3), Fraction(3)), "one entry per block"),
            ((3, 3, 3), (Fraction(4),), "inconsistent"),
        ],
        ids=["dims", "p_exact_length", "p_exact_value"],
    )
    def test_direct_construction_checked(self, ref_tensor, dims, p_exact, match):
        part = sr.validate_partition(dims, [[0, 1, 2]])
        with pytest.raises(ValueError, match=match):
            sr.SpectralProblem(tensor=ref_tensor, partition=part, p=(3.0,), p_exact=p_exact)

    def test_boolean_p_rejected(self, ref_tensor):
        with pytest.raises(ValueError, match="boolean"):
            sr.make_problem(ref_tensor, [[0, 1, 2]], [True])

    def test_float_p_accepted(self, ref_tensor):
        prob = sr.make_problem(ref_tensor, [[0, 1, 2]], [3.5])
        assert prob.p == (3.5,)


class TestNoAliasing:
    """Every block vector a map or a solve hands back owns a frozen array,
    and the caller's vector is left as it was."""

    @pytest.mark.filterwarnings("ignore:structural assumptions")
    @pytest.mark.filterwarnings("ignore:accepted iterate")
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(prob=block_problems(), seed=st.integers(0, 2**32 - 1))
    def test_results_are_frozen_and_share_nothing(self, prob, seed):
        x = random_positive(prob, np.random.default_rng(seed))
        before = x.flat.tobytes()
        maps = (sr.gradient_map, sr.ratio_map, sr.power_map, sr.normalize_blocks, sr.retract)
        outs = [f(prob, x) for f in maps]
        for method in ("lsnnm", "power"):
            try:
                outs.append(sr.solve(prob, x, sr.SolverOptions(max_iter=3), method=method).x)
            except SpecradError:
                pass
        for y in outs:
            assert not y.flat.flags.writeable
            assert not np.shares_memory(y.flat, x.flat)
        assert x.flat.tobytes() == before


class TestRatioMap:
    def test_reference_values_degree_zero(self, ref_tensor):
        # single block, p equal to the order: ratios are scale invariant
        prob = sr.make_problem(ref_tensor, [[0, 1, 2]], ["3"])
        for scale in (1.0, 3 ** (-1 / 3), 0.1):
            x = bv(prob, scale * np.ones(3))
            assert_allclose(sr.ratio_map(prob, x).flat, [2.0, 2.0, 1.0], rtol=1e-14)
        assert sr.ratio_max(prob, bv(prob, np.ones(3))) == 2.0
        assert sr.ratio_min(prob, bv(prob, np.ones(3))) == 1.0

    def test_positivity_required(self, ref_tensor):
        prob = sr.make_problem(ref_tensor, [[0, 1, 2]], ["3"])
        with pytest.raises(NonPositiveInput):
            sr.ratio_map(prob, bv(prob, [1.0, 0.0, 1.0]))
        with pytest.raises(NonPositiveInput):
            sr.ratio_max(prob, bv(prob, [1.0, -1.0, 1.0]))

    def test_block_vector_required(self, ref_tensor):
        prob = sr.make_problem(ref_tensor, [[0, 1, 2]], ["3"])
        with pytest.raises(TypeError, match="BlockVector, got list"):
            sr.ratio_map(prob, [1.0, 1.0, 1.0])

    def test_ratios_positive_iff_gradient_positive(self, nine_problem):
        prob, _ = nine_problem
        rng = np.random.default_rng(1)
        x = random_positive(prob, rng)
        assert np.all(sr.ratio_map(prob, x).flat > 0)


class TestRatioJacobian:
    def test_all_ones_cube_closed_form(self, all_ones_cube):
        prob = sr.make_problem(all_ones_cube, [[0, 1, 2]], ["3"])
        DPhi = sr.ratio_jacobian(prob, bv(prob, [1.0, 1.0]))
        assert_allclose(DPhi, [[-4.0, 4.0], [4.0, -4.0]], atol=1e-13)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_fd(self, nine_problem, seed):
        prob, _ = nine_problem
        rng = np.random.default_rng(200 + seed)
        x = random_positive(prob, rng)

        def phi(flat):
            return sr.ratio_map(prob, bv(prob, flat)).flat

        assert rel_err(fd_jacobian(phi, x.flat), sr.ratio_jacobian(prob, x)) < 1e-6

    def test_directional_identity(self, nine_problem):
        # -DPhi(x) (p^-1 (x) x) == (1 - sum nu/p) Phi(x), exactly in exact arithmetic
        prob, _ = nine_problem
        rng = np.random.default_rng(77)
        s = prob.nu_over_p
        for _ in range(50):
            x = random_positive(prob, rng)
            phi = sr.ratio_map(prob, x).flat
            DPhi = sr.ratio_jacobian(prob, x)
            lhs = -DPhi @ pinv_otimes(prob, x)
            assert rel_err(lhs, (1.0 - s) * phi) < 1e-10 or (
                abs(s - 1.0) < 1e-14 and np.abs(lhs).max() < 1e-10 * np.abs(phi).max()
            )


class TestNormProduct:
    def test_reference_value(self, ref_tensor):
        prob = sr.make_problem(ref_tensor, [[0], [1, 2]], ["2", "4"])
        assert_allclose(sr.norm_product(prob, prob.ones()), 3.0**0.75, rtol=1e-15)

    def test_grad_matches_fd(self, nine_problem):
        prob, _ = nine_problem
        rng = np.random.default_rng(33)
        for _ in range(5):
            x = random_positive(prob, rng)

            def c(flat):
                return sr.norm_product(prob, bv(prob, flat))

            assert rel_err(
                fd_grad(c, x.flat), sr.norm_product_grad(prob, x).flat
            ) < 1e-7

    def test_grad_euler_identity(self, nine_problem):
        # c is homogeneous of degree 1 in every block:
        # <grad c, theta (x) x> = (sum theta) * c
        prob, _ = nine_problem
        rng = np.random.default_rng(41)
        x = random_positive(prob, rng)
        theta = rng.uniform(0.5, 1.5, prob.d)
        gc = sr.norm_product_grad(prob, x)
        tx = np.concatenate(
            [theta[i] * x.block(i) for i in range(prob.d)]
        )
        assert_allclose(
            float(gc.flat @ tx),
            theta.sum() * sr.norm_product(prob, x),
            rtol=1e-12,
        )

    def test_positivity_required_for_grad(self, ref_tensor):
        prob = sr.make_problem(ref_tensor, [[0, 1, 2]], ["3"])
        with pytest.raises(NonPositiveInput):
            sr.norm_product_grad(prob, bv(prob, [1.0, 0.0, 1.0]))


class TestRetraction:
    def test_reference_value(self, ref_tensor):
        prob = sr.make_problem(ref_tensor, [[0], [1, 2]], ["2", "4"])
        R = sr.retract(prob, prob.ones())
        assert_allclose(R.flat, np.full(6, 3.0 ** (-3.0 / 8.0)), rtol=1e-15)

    def test_lands_on_constraint_surface(self, nine_problem):
        prob, _ = nine_problem
        rng = np.random.default_rng(55)
        for _ in range(25):
            x = random_positive(prob, rng, lo=0.01, hi=10.0)
            assert abs(sr.norm_product(prob, sr.retract(prob, x)) - 1.0) <= 1e-14

    def test_idempotent_on_surface(self, nine_problem):
        prob, _ = nine_problem
        rng = np.random.default_rng(56)
        x = sr.retract(prob, random_positive(prob, rng))
        assert_allclose(sr.retract(prob, x).flat, x.flat, rtol=1e-14)

    def test_zero_block_rejected(self, ref_tensor):
        prob = sr.make_problem(ref_tensor, [[0], [1, 2]], ["2", "4"])
        with pytest.raises(ZeroNormBlock):
            sr.retract(prob, sr.BlockVector([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))
        with pytest.raises(ZeroNormBlock):
            sr.normalize_blocks(prob, sr.BlockVector([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]))

    def test_normalize_blocks_unit_norms(self, nine_problem):
        prob, _ = nine_problem
        rng = np.random.default_rng(57)
        x = random_positive(prob, rng)
        xbar = sr.normalize_blocks(prob, x)
        for i in range(prob.d):
            pi = prob.p[i]
            assert abs((np.abs(xbar.block(i)) ** pi).sum() - 1.0) < 1e-14


class TestEigenSystem:
    def test_residual_reference_point(self, ref_tensor):
        # at x = 3^(-1/3) * ones with lam = 2 only the third ratio (=1) is off
        prob = sr.make_problem(ref_tensor, [[0, 1, 2]], ["3"])
        x = bv(prob, np.full(3, 3.0 ** (-1.0 / 3.0)))
        r = sr.eigen_residual(prob, x, 2.0)
        assert_allclose(r.flat, [0.0, 0.0, 3.0 ** (-1.0 / 3.0)], atol=1e-15)
        H = sr.eigen_system(prob, x, 2.0)
        assert_allclose(H, [0.0, 0.0, 3.0 ** (-1.0 / 3.0), 0.0], atol=1e-14)

    def test_zero_exactly_at_eigenpair(self, sym_matrix_tensor):
        prob = sr.make_problem(sym_matrix_tensor, [[0], [1]], ["2", "2"])
        x = sr.BlockVector([np.full(2, 2.0**-0.5), np.full(2, 2.0**-0.5)])
        H = sr.eigen_system(prob, x, 3.0)
        assert np.abs(H).max() < 1e-15

    def test_residual_jacobian_matches_fd(self, nine_problem):
        prob, _ = nine_problem
        rng = np.random.default_rng(61)
        x = random_positive(prob, rng)
        lam = 1.3

        def r(flat):
            return sr.eigen_residual(prob, bv(prob, flat), lam).flat

        assert rel_err(fd_jacobian(r, x.flat), sr.residual_jacobian(prob, x, lam)) < 1e-6

    def test_newton_matrix_matches_joint_fd(self, nine_problem):
        # FD of the full root function in (x, lam) jointly
        prob, _ = nine_problem
        rng = np.random.default_rng(62)
        x = random_positive(prob, rng)
        lam = float(sr.ratio_map(prob, x).flat.max())
        n = x.flat.size

        def h(z):
            return sr.eigen_system(prob, bv(prob, z[:n]), float(z[n]))

        z0 = np.concatenate([x.flat, [lam]])
        assert rel_err(fd_jacobian(h, z0), sr.newton_matrix(prob, x, lam)) < 1e-6

    def test_j_directional_identity(self, nine_problem):
        # J(x, lam)(p^-1 (x) x) == (1 - sum nu/p) Phi.x + p^-1 (x) r(x, lam)
        prob, _ = nine_problem
        rng = np.random.default_rng(63)
        s = prob.nu_over_p
        for _ in range(50):
            x = random_positive(prob, rng)
            phi = sr.ratio_map(prob, x)
            lam = float(phi.flat.max())
            J = sr.residual_jacobian(prob, x, lam)
            r = sr.eigen_residual(prob, x, lam)
            rhs = (1.0 - s) * phi.flat * x.flat + pinv_otimes(prob, r)
            assert rel_err(J @ pinv_otimes(prob, x), rhs) < 1e-10


class TestBorderedOperator:
    """The matrix-free Newton product is the bordered Newton matrix with its
    residual rows scaled by ``1/lam`` and its last unknown by ``lam``."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(prob=block_problems(), seed=st.integers(0, 10**6), lam=st.floats(0.1, 10.0))
    def test_is_the_scaled_newton_matrix(self, prob, seed, lam):
        rng = np.random.default_rng(seed)
        x = random_positive(prob, rng)
        phi = sr.ratio_map(prob, x).flat
        n = x.flat.size
        matvec, diag, g = _bordered_operator(prob, x, phi, lam)
        DH = _newton_matrix(prob, x, phi, lam)
        v = rng.standard_normal(n + 1)
        rows = np.append(np.full(n, 1.0 / lam), 1.0)
        cols = np.append(np.ones(n), lam)
        assert rel_err(matvec(v), rows * (DH @ (cols * v))) <= 1e-13
        # diag leaves out the gradient map's own diagonal, which is zero
        # unless a block has more than one mode
        pe = prob._p_flat
        DG = sr.gradient_map_jacobian(prob, x)
        J = _residual_jacobian(prob, x, phi, lam)
        assert rel_err(diag, (np.diag(J) + x.flat ** (2.0 - pe) * np.diag(DG)) / lam) <= 1e-13
        if max(prob.partition.nu) == 1:
            assert np.array_equal(np.diag(DG), np.zeros(n))
        assert np.array_equal(g, DH[n, :n])


class TestPowerMap:
    def test_reference_values_at_ones(self, ref_tensor):
        prob = sr.make_problem(ref_tensor, [[0, 1, 2]], ["3"])
        F = sr.power_map(prob, prob.ones())
        assert_allclose(F.flat, [2.0**0.5, 2.0**0.5, 1.0], rtol=1e-15)

    def test_defined_on_boundary(self, ref_tensor):
        prob = sr.make_problem(ref_tensor, [[0, 1, 2]], ["3"])
        F = sr.power_map(prob, bv(prob, [1.0, 0.0, 1.0]))
        assert np.all(F.flat >= 0)

    def test_multihomogeneity_directional(self, nine_problem):
        # DF(x)(theta (x) x) == (A theta) (x) F(x), A the homogeneity matrix
        prob, _ = nine_problem
        hd = sr.homogeneity_data(prob)
        rng = np.random.default_rng(71)
        for _ in range(10):
            x = random_positive(prob, rng)
            theta = rng.uniform(-1.0, 1.0, prob.d)
            tx = np.concatenate([theta[i] * x.block(i) for i in range(prob.d)])
            h = 1e-6

            def F(flat):
                return sr.power_map(prob, bv(prob, flat)).flat

            deriv = (F(x.flat + h * tx) - F(x.flat - h * tx)) / (2 * h)
            Ath = hd.A @ theta
            Fx = sr.power_map(prob, x)
            expected = np.concatenate(
                [Ath[i] * Fx.block(i) for i in range(prob.d)]
            )
            assert rel_err(deriv, expected) < 1e-6


class TestHomogeneityData:
    def test_single_block_cubic(self, ref_tensor):
        prob = sr.make_problem(ref_tensor, [[0, 1, 2]], ["3"])
        hd = sr.homogeneity_data(prob)
        assert_allclose(hd.A, [[1.0]], atol=1e-15)
        assert_allclose(hd.rho, 1.0, atol=1e-13)
        assert_allclose(hd.b, [1.0])
        assert_allclose(hd.gamma, 3.0, rtol=1e-12)

    def test_two_block_case(self, ref_tensor):
        prob = sr.make_problem(ref_tensor, [[0], [1, 2]], ["2", "4"])
        hd = sr.homogeneity_data(prob)
        assert_allclose(hd.A, [[0.0, 2.0], [1.0 / 3.0, 1.0 / 3.0]], rtol=1e-15)
        assert_allclose(hd.rho, 1.0, atol=1e-12)
        assert_allclose(hd.b, [0.25, 0.75], atol=1e-12)
        assert_allclose(hd.gamma, 3.0, rtol=1e-11)

    def test_three_singleton_blocks(self, ref_tensor):
        prob = sr.make_problem(ref_tensor, [[0], [1], [2]], ["4", "4", "4"])
        hd = sr.homogeneity_data(prob)
        assert_allclose(hd.A, (np.ones((3, 3)) - np.eye(3)) / 3.0, rtol=1e-15)
        assert_allclose(hd.rho, 2.0 / 3.0, atol=1e-13)
        assert_allclose(hd.b, np.full(3, 1.0 / 3.0), atol=1e-12)

    def test_left_eigvector_and_weight_normalization(self, nine_problem):
        prob, _ = nine_problem
        hd = sr.homogeneity_data(prob)
        assert np.all(hd.b > 0)
        assert abs(hd.b.sum() - 1.0) < 1e-13
        assert np.abs(hd.A.T @ hd.b - hd.rho * hd.b).max() < 1e-12
        assert hd.gamma > 1.0
        # the weights (gamma-1) b_i (p'_i - 1) always sum to one
        w = (hd.gamma - 1.0) * hd.b * (np.asarray(prob.p_conj) - 1.0)
        assert abs(w.sum() - 1.0) < 1e-12

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        nu=st.lists(st.integers(1, 4), min_size=1, max_size=6).map(sorted),
        log_p=st.lists(
            st.floats(math.log(1.001), math.log(1000.0)), min_size=6, max_size=6
        ),
    )
    def test_positive_eigenvector_certifies_perron_pair(self, nu, log_p):
        # Only nu and p enter the homogeneity data, so a one-entry tensor
        # with unit dimensions carries any partition.  By Perron-Frobenius a
        # positive eigenvector of the irreducible A^T belongs to its Perron
        # root, so b > 0 plus a small residual certifies the pair.
        order = sum(nu)
        tensor = sr.CooTensor((1,) * order, [(0,) * order], [1.0])
        ends = np.cumsum(nu)
        blocks = [list(range(e - k, e)) for k, e in zip(nu, ends)]
        prob = sr.make_problem(tensor, blocks, np.exp(log_p[: len(nu)]).tolist())
        hd = sr.homogeneity_data(prob)
        assert np.all(hd.b > 0)
        assert abs(hd.b.sum() - 1.0) <= 1e-15
        assert np.abs(hd.A.T @ hd.b - hd.rho * hd.b).max() <= 1e-13 * max(1.0, hd.rho)
        w = (hd.gamma - 1.0) * hd.b * (np.asarray(prob.p_conj) - 1.0)
        assert abs(w.sum() - 1.0) < 1e-12
        # f(1) = sum(nu/p) - 1 for the decreasing secular function f, so rho
        # and sum(nu/p) sit on the same side of 1
        s = prob.nu_over_p
        if abs(s - 1.0) > 1e-12:
            assert np.sign(hd.rho - 1.0) == np.sign(s - 1.0)

    def test_rho_side_of_one_matches_nu_over_p(self, nine_problem):
        prob, _ = nine_problem
        hd = sr.homogeneity_data(prob)
        s = prob.nu_over_p
        if abs(s - 1.0) <= 1e-9:
            assert abs(hd.rho - 1.0) <= 1e-9
        else:
            assert (hd.rho - 1.0) * (s - 1.0) > 0


class TestCwBounds:
    def test_reference_point(self, ref_tensor):
        prob = sr.make_problem(ref_tensor, [[0, 1, 2]], ["3"])
        rep = sr.cw_bounds(prob, prob.ones())
        assert_allclose(rep.lower, 1.0, rtol=1e-14)
        assert_allclose(rep.upper, 2.0, rtol=1e-14)
        assert_allclose(rep.weighted_lower, 1.0, rtol=1e-12)
        assert_allclose(rep.weighted_upper, 2.0, rtol=1e-12)

    def test_ordering_and_nesting(self, nine_problem):
        prob, _ = nine_problem
        rng = np.random.default_rng(83)
        for _ in range(50):
            rep = sr.cw_bounds(prob, random_positive(prob, rng, lo=0.05, hi=5.0))
            assert rep.lower <= rep.weighted_lower + 1e-12 * abs(rep.weighted_lower)
            assert rep.weighted_lower <= rep.weighted_upper * (1 + 1e-12)
            assert rep.weighted_upper <= rep.upper * (1 + 1e-12)

    def test_weighted_bounds_from_ratio_powers(self, nine_problem):
        # F_ij(x)/x_ij == Phi_ij(x)^(p'_i - 1), so the weighted bounds are
        # geometric means of blockwise ratio extremes
        prob, _ = nine_problem
        hd = sr.homogeneity_data(prob)
        pc = np.asarray(prob.p_conj)
        rng = np.random.default_rng(89)
        x = random_positive(prob, rng)
        xbar = sr.normalize_blocks(prob, x)
        phi = sr.ratio_map(prob, xbar)
        w = (hd.gamma - 1.0) * hd.b
        lo = np.exp(
            sum(
                w[i] * (pc[i] - 1.0) * np.log(phi.block(i).min())
                for i in range(prob.d)
            )
        )
        hi = np.exp(
            sum(
                w[i] * (pc[i] - 1.0) * np.log(phi.block(i).max())
                for i in range(prob.d)
            )
        )
        rep = sr.cw_bounds(prob, x)
        assert_allclose(rep.weighted_lower, lo, rtol=1e-12)
        assert_allclose(rep.weighted_upper, hi, rtol=1e-12)


class TestLogDomainMaps:
    def test_log_norm_product_matches_direct(self, nine_problem):
        prob, _ = nine_problem
        rng = np.random.default_rng(91)
        for _ in range(10):
            y = bv(prob, rng.uniform(-2.0, 2.0, prob.partition.total_dim))
            x = bv(prob, np.exp(y.flat))
            assert_allclose(
                sr.log_norm_product(prob, y),
                np.log(sr.norm_product(prob, x)),
                rtol=1e-13,
            )

    def test_log_ratio_map_matches_direct(self, nine_problem):
        prob, _ = nine_problem
        rng = np.random.default_rng(92)
        y = bv(prob, rng.uniform(-1.0, 1.0, prob.partition.total_dim))
        x = bv(prob, np.exp(y.flat))
        assert_allclose(
            sr.log_ratio_map(prob, y).flat,
            np.log(sr.ratio_map(prob, x).flat),
            rtol=1e-12,
            atol=1e-14,
        )

    def test_grad_log_norm_product(self, nine_problem):
        prob, _ = nine_problem
        rng = np.random.default_rng(93)
        y = bv(prob, rng.uniform(-1.5, 1.5, prob.partition.total_dim))

        def g(flat):
            return sr.log_norm_product(prob, bv(prob, flat))

        assert rel_err(fd_grad(g, y.flat), sr.log_norm_product_grad(prob, y).flat) < 1e-7

    def test_grad_constant_identity(self, nine_problem):
        # <p^-1 (x) 1, grad g(y)> == sum 1/p_i at every y
        prob, _ = nine_problem
        rng = np.random.default_rng(94)
        pinv_one = np.concatenate(
            [
                np.full(n, 1.0 / prob.p[i])
                for i, n in enumerate(prob.partition.block_dims)
            ]
        )
        expected = sum(1.0 / pi for pi in prob.p)
        for _ in range(50):
            y = bv(prob, rng.uniform(-3.0, 3.0, prob.partition.total_dim))
            got = float(pinv_one @ sr.log_norm_product_grad(prob, y).flat)
            assert abs(got - expected) < 1e-12

    def test_log_ratio_jacobian_row_identity(self, nine_problem):
        # DF(y) (p^-1 (x) 1) == (sum nu/p - 1) * ones, exactly
        prob, _ = nine_problem
        rng = np.random.default_rng(95)
        s = prob.nu_over_p
        pinv_one = np.concatenate(
            [
                np.full(n, 1.0 / prob.p[i])
                for i, n in enumerate(prob.partition.block_dims)
            ]
        )
        for _ in range(50):
            y = bv(prob, rng.uniform(-1.0, 1.0, prob.partition.total_dim))
            DF = sr.log_ratio_jacobian(prob, y)
            got = DF @ pinv_one
            assert np.abs(got - (s - 1.0)).max() < 1e-10

    def test_log_ratio_jacobian_vs_fd(self, nine_problem):
        prob, _ = nine_problem
        rng = np.random.default_rng(96)
        y = bv(prob, rng.uniform(-1.0, 1.0, prob.partition.total_dim))

        def F(flat):
            return sr.log_ratio_map(prob, bv(prob, flat)).flat

        assert rel_err(fd_jacobian(F, y.flat), sr.log_ratio_jacobian(prob, y)) < 1e-6

    def test_midpoint_convexity(self, nine_problem):
        # every component of the log ratio map, and the log norm product,
        # is convex; probe the midpoint inequality at random pairs
        prob, _ = nine_problem
        rng = np.random.default_rng(97)
        n = prob.partition.total_dim
        for _ in range(100):
            ya = rng.uniform(-2.0, 2.0, n)
            yb = rng.uniform(-2.0, 2.0, n)
            mid = bv(prob, 0.5 * (ya + yb))
            Fa = sr.log_ratio_map(prob, bv(prob, ya)).flat
            Fb = sr.log_ratio_map(prob, bv(prob, yb)).flat
            Fm = sr.log_ratio_map(prob, mid).flat
            assert np.all(Fm <= 0.5 * (Fa + Fb) + 1e-12)
            ga = sr.log_norm_product(prob, bv(prob, ya))
            gb = sr.log_norm_product(prob, bv(prob, yb))
            gm = sr.log_norm_product(prob, mid)
            assert gm <= 0.5 * (ga + gb) + 1e-12

    def test_overflow_guard(self, ref_tensor):
        prob = sr.make_problem(ref_tensor, [[0, 1, 2]], ["3"])
        y = bv(prob, [0.0, 0.0, 200.0])
        with pytest.raises(OverflowGuard):
            sr.log_ratio_map(prob, y)  # 3 * 200 > 300
        with pytest.raises(OverflowGuard):
            sr.log_norm_product(prob, y)
        assert np.isfinite(sr.log_ratio_map(prob, y, guard=700.0).flat).all()
