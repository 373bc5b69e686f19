"""Newton step, line search, full solves, traces, and cross-method checks."""
import dataclasses
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import specrad as sr
import specrad.solvers
import specrad.tensor_core
from specrad.errors import (
    KrylovStalled,
    LineSearchFailed,
    NonPositiveInput,
    ShapeMismatch,
    SingularNewtonSystem,
)

from conftest import bv, matrix_tensor, random_positive, rel_err, ring_cube, two_cluster_matrix


def solve_quiet(prob, x0=None, opts=None, method="lsnnm"):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return sr.solve(prob, x0, opts, method=method)


def bench_case_id(case):
    return f"{case.partition_spec}|p={','.join(case.p)}"


def full_positive_matrix_problem(A):
    m, n = A.shape
    idx = np.stack(np.meshgrid(np.arange(m), np.arange(n), indexing="ij"), -1)
    t = sr.CooTensor((m, n), idx.reshape(-1, 2), A.ravel())
    return sr.make_problem(t, [[0], [1]], ["2", "2"])


class TestOptions:
    def test_defaults(self):
        opts = sr.SolverOptions()
        assert opts.tol == 1e-12
        assert opts.max_iter == 500

    @pytest.mark.parametrize(
        "kw",
        [
            dict(tol=0.0),
            dict(tol=-1e-3),
            dict(max_iter=0),
            dict(armijo_c=0.0),
            dict(armijo_c=1.0),
            dict(backtrack_rho=0.0),
            dict(backtrack_rho=1.0),
            dict(max_backtracks=-1),
            dict(max_backtracks=1.5),
            dict(max_iter=2.5),
            dict(max_iter=True),
            dict(max_backtracks=False),
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            sr.SolverOptions(**kw)

    def test_accepts_numpy_integers(self, ref_tensor):
        opts = sr.SolverOptions(max_iter=np.int64(2), max_backtracks=np.int32(3))
        prob = sr.make_problem(ref_tensor, [[0, 1, 2]], ["3"])
        assert sr.newton_noda(prob, opts=opts).iterations == 2


class TestNewtonStep:
    def test_zero_at_exact_eigenpair(self, sym_matrix_tensor):
        prob = sr.make_problem(sym_matrix_tensor, [[0], [1]], ["2", "2"])
        x = sr.BlockVector([np.full(2, 2.0**-0.5), np.full(2, 2.0**-0.5)])
        d, delta = sr.newton_step(prob, x, 3.0)
        assert np.abs(d.flat).max() < 1e-14
        assert abs(delta) < 1e-14

    def test_delta_negative_and_step_tangent(self, nine_problem):
        prob, _ = nine_problem
        x = sr.retract(prob, prob.ones())
        lam = float(sr.ratio_map(prob, x).flat.max())
        d, delta = sr.newton_step(prob, x, lam)
        assert delta < 0.0
        gc = sr.norm_product_grad(prob, x)
        assert abs(float(gc.flat @ d.flat)) < 1e-10 * (1.0 + np.abs(d.flat).max())

    def test_matches_schur_complement_formulas(self, nine_problem):
        # eliminating the border gives
        #   delta = -(g' J^-1 r) / (g' J^-1 x),   d = -J^-1 (r + delta x)
        prob, _ = nine_problem
        rng = np.random.default_rng(101)
        for _ in range(5):
            x = sr.retract(prob, random_positive(prob, rng))
            lam = float(sr.ratio_map(prob, x).flat.max())
            d, delta = sr.newton_step(prob, x, lam)
            J = sr.residual_jacobian(prob, x, lam)
            r = sr.eigen_residual(prob, x, lam).flat
            g = sr.norm_product_grad(prob, x).flat
            Jir = np.linalg.solve(J, r)
            Jix = np.linalg.solve(J, x.flat)
            delta_ref = -float(g @ Jir) / float(g @ Jix)
            d_ref = -Jir - delta_ref * Jix
            assert abs(delta - delta_ref) <= 1e-8 * abs(delta_ref)
            assert rel_err(d.flat, d_ref) <= 1e-8

    def test_singular_system_raises(self):
        t = sr.CooTensor((2, 2, 2), np.empty((0, 3), dtype=np.int64), [])
        prob = sr.make_problem(t, [[0, 1, 2]], ["3"])
        x = sr.retract(prob, prob.ones())
        with pytest.raises(SingularNewtonSystem):
            sr.newton_step(prob, x, 0.0)


class TestLineSearch:
    def test_positivity_rejections_counted(self, ref_tensor):
        # d = -2x: alpha=1 leaves the orthant, alpha=1/2 hits its boundary
        # exactly, alpha=1/4 is the first strictly positive trial
        prob = sr.make_problem(ref_tensor, [[0, 1, 2]], ["3"])
        x = sr.retract(prob, prob.ones())
        lam = float(sr.ratio_map(prob, x).flat.max())
        d = sr.BlockVector.from_flat(-2.0 * x.flat, x.lengths)
        alpha, x_next, backtracks = sr.line_search(
            prob, x, lam, d, 1e6, sr.SolverOptions()
        )
        assert (alpha, backtracks) == (0.25, 2)
        assert np.all(x_next.flat > 0)

    def test_gives_up_when_no_decrease_possible(self, ref_tensor):
        # a zero direction with a hugely negative predicted decrease can
        # never satisfy the sufficient-decrease test
        prob = sr.make_problem(ref_tensor, [[0, 1, 2]], ["3"])
        x = sr.retract(prob, prob.ones())
        lam = float(sr.ratio_map(prob, x).flat.max())
        d = sr.BlockVector.from_flat(np.zeros(3), x.lengths)
        with pytest.raises(LineSearchFailed):
            sr.line_search(prob, x, lam, d, -1e6, sr.SolverOptions(max_backtracks=10))

    def test_warns_near_positivity_boundary(self, ref_tensor):
        prob = sr.make_problem(ref_tensor, [[0, 1, 2]], ["3"])
        x = sr.retract(prob, prob.ones())
        lam = float(sr.ratio_map(prob, x).flat.max())
        dflat = np.zeros(3)
        dflat[2] = -x.flat[2] * (1.0 - 1e-14)
        d = sr.BlockVector.from_flat(dflat, x.lengths)
        # the surviving component's ratio explodes like 1/x^2, so only an
        # absurdly slack decrease budget accepts the full step
        with pytest.warns(RuntimeWarning, match="positivity boundary") as record:
            alpha, _, backtracks = sr.line_search(
                prob, x, lam, d, 1e33, sr.SolverOptions()
            )
        assert (alpha, backtracks) == (1.0, 0)
        assert {w.filename for w in record} == {__file__}

    def test_ratio_barrier_rejects_boundary_step(self, ref_tensor):
        # same direction with a merely large budget: the exploding ratio
        # rejects the full step and the half step is taken instead
        prob = sr.make_problem(ref_tensor, [[0, 1, 2]], ["3"])
        x = sr.retract(prob, prob.ones())
        lam = float(sr.ratio_map(prob, x).flat.max())
        dflat = np.zeros(3)
        dflat[2] = -x.flat[2] * (1.0 - 1e-14)
        d = sr.BlockVector.from_flat(dflat, x.lengths)
        alpha, _, backtracks = sr.line_search(prob, x, lam, d, 1e6, sr.SolverOptions())
        assert (alpha, backtracks) == (0.5, 1)


class TestClosedForms:
    def test_all_ones_cube_cubic(self, all_ones_cube):
        prob = sr.make_problem(all_ones_cube, [[0, 1, 2]], ["3"])
        res = sr.newton_noda(prob)
        assert res.converged
        assert abs(res.lambda_star - 4.0) < 1e-10
        assert_allclose(res.x.flat, np.full(2, 2.0 ** (-1.0 / 3.0)), atol=1e-10)

    def test_all_ones_cube_quartic(self, all_ones_cube):
        prob = sr.make_problem(all_ones_cube, [[0, 1, 2]], ["4"])
        res = sr.newton_noda(prob)
        assert res.converged
        assert abs(res.lambda_star - 4.0 * 2.0**0.25) < 1e-10
        assert_allclose(res.x.flat, np.full(2, 2.0**-0.25), atol=1e-10)

    def test_symmetric_matrix(self, sym_matrix_tensor):
        prob = sr.make_problem(sym_matrix_tensor, [[0], [1]], ["2", "2"])
        for method in ("lsnnm", "power"):
            res = solve_quiet(prob, method=method)
            assert res.converged
            assert abs(res.lambda_star - 3.0) < 1e-8
            assert_allclose(res.x.flat, np.full(4, 2.0**-0.5), atol=1e-8)

    @pytest.mark.parametrize("seed", range(20))
    def test_matrix_case_matches_svd(self, seed):
        # with two singleton blocks and both exponents 2, the eigenpair is
        # the leading singular triple
        rng = np.random.default_rng(1000 + seed)
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        A = rng.uniform(0.05, 2.0, (m, n))
        prob = full_positive_matrix_problem(A)
        res = sr.newton_noda(prob)
        s = np.linalg.svd(A, compute_uv=False)
        assert res.converged
        assert abs(res.lambda_star - s[0]) <= 1e-10 * s[0]
        u, sv, vt = np.linalg.svd(A)
        assert_allclose(res.x.block(0), np.abs(u[:, 0]), atol=1e-8)
        assert_allclose(res.x.block(1), np.abs(vt[0]), atol=1e-8)


class TestNewtonNoda:
    def test_converges_on_reference_configs(self, nine_problem):
        prob, lam_ref = nine_problem
        res = solve_quiet(prob)
        assert res.converged
        assert res.res <= 1e-12
        assert abs(res.lambda_star - lam_ref) <= 5e-3
        assert res.method == "lsnnm"
        assert np.all(res.x.flat > 0)
        # returned point is blockwise normalized
        for i in range(prob.d):
            assert abs((res.x.block(i) ** prob.p[i]).sum() - 1.0) < 1e-13

    def test_trace_invariants(self, nine_problem):
        prob, _ = nine_problem
        opts = sr.SolverOptions()
        res = solve_quiet(prob, opts=opts)
        trace = res.trace
        assert [rec.k for rec in trace] == list(range(len(trace)))
        assert res.iterations == len(trace) - 1
        for rec in trace:
            assert rec.alpha_k == opts.backtrack_rho**rec.backtracks
            assert rec.cw_lower <= res.lambda_star * (1.0 + 1e-12) + 1e-12
            assert rec.res >= 0.0
        for rec in trace[:-1]:
            assert rec.delta_k <= 1e-15
            assert rec.tangency <= 1e-8
        # Armijo decrease links consecutive eigenvalue estimates
        for a, b in zip(trace, trace[1:]):
            bound = a.lambda_k + opts.armijo_c * a.alpha_k * a.delta_k
            assert b.lambda_k <= bound + 1e-13 * max(1.0, abs(bound))
        term = trace[-1]
        assert term.delta_k == 0.0 and term.alpha_k == 1.0 and term.backtracks == 0
        assert term.res <= opts.tol
        assert term.h_norm <= 1e-10

    def test_bracket_fields_consistent(self, nine_problem):
        prob, _ = nine_problem
        res = solve_quiet(prob)
        assert res.cw_lower <= res.lambda_star <= res.cw_upper
        assert_allclose(res.lambda_star, 0.5 * (res.cw_lower + res.cw_upper))
        phi = sr.ratio_map(prob, res.x)
        assert_allclose(res.cw_upper, phi.flat.max(), rtol=1e-15)
        assert_allclose(res.cw_lower, phi.flat.min(), rtol=1e-15)
        assert_allclose(
            res.res,
            (res.cw_upper - res.cw_lower) / res.cw_lower,
            rtol=1e-12,
            atol=1e-18,
        )

    def test_deterministic(self, nine_problem):
        prob, _ = nine_problem
        r1 = solve_quiet(prob)
        r2 = solve_quiet(prob)
        assert r1.trace == r2.trace
        assert r1.lambda_star == r2.lambda_star
        assert np.array_equal(r1.x.flat, r2.x.flat)

    def test_scaled_eigenpair_family(self, nine_problem):
        # x_i -> t^(1/p_i) x_i maps the eigenpair to one with eigenvalue
        # scaled by t^(sum nu/p - 1)
        prob, _ = nine_problem
        res = solve_quiet(prob)
        s = prob.nu_over_p
        for t in (0.5, 2.0, 5.0):
            scaled = sr.BlockVector(
                [t ** (1.0 / prob.p[i]) * res.x.block(i) for i in range(prob.d)]
            )
            lam_t = res.lambda_star * t ** (s - 1.0)
            r = sr.eigen_residual(prob, scaled, lam_t)
            assert np.abs(r.flat).max() <= 1e-9 * max(1.0, res.lambda_star)

    def test_iteration_cap_reports_unconverged(self, ref_tensor):
        prob = sr.make_problem(ref_tensor, [[0, 1, 2]], ["3"])
        opts = sr.SolverOptions(max_iter=2)
        res = sr.newton_noda(prob, opts=opts)
        assert not res.converged
        assert res.iterations == 2
        assert len(res.trace) == 3
        assert res.res > opts.tol
        assert np.isfinite(res.lambda_star)

    def test_custom_start_point(self, ref_tensor):
        prob = sr.make_problem(ref_tensor, [[0, 1, 2]], ["3"])
        rng = np.random.default_rng(7)
        res = sr.newton_noda(prob, x0=bv(prob, rng.uniform(0.5, 1.5, 3)))
        ref = sr.newton_noda(prob)
        assert res.converged
        assert abs(res.lambda_star - ref.lambda_star) <= 1e-12 * ref.lambda_star

    def test_rejects_bad_start_points(self, ref_tensor):
        prob = sr.make_problem(ref_tensor, [[0, 1, 2]], ["3"])
        with pytest.raises(NonPositiveInput):
            sr.newton_noda(prob, x0=bv(prob, [1.0, 1.0, -1.0]))
        with pytest.raises(NonPositiveInput):
            sr.newton_noda(prob, x0=bv(prob, [1.0, 0.0, 1.0]))
        with pytest.raises(ShapeMismatch):
            sr.newton_noda(prob, x0=sr.BlockVector([[1.0, 1.0]]))

    @pytest.mark.parametrize("entry", ["solve", "newton_noda", "power_iteration"])
    def test_rejects_a_start_that_is_not_a_block_vector(self, ref_tensor, entry):
        prob = sr.make_problem(ref_tensor, [[0, 1, 2]], ["3"])
        with pytest.raises(TypeError, match="BlockVector, got SolverOptions"):
            getattr(sr, entry)(prob, sr.SolverOptions())
        with pytest.raises(TypeError, match="BlockVector, got list"):
            getattr(sr, entry)(prob, [1.0, 1.0, 1.0])

    @pytest.mark.parametrize(
        "n, error", [(3, SingularNewtonSystem), (101, KrylovStalled)], ids=["dense", "krylov"]
    )
    @pytest.mark.parametrize("nnz", [0, 1])
    def test_all_zero_ratios_raise_the_step_breakdown(self, n, error, nnz):
        # no entries, or only zero-valued ones: every ratio is 0 at the start
        t = sr.CooTensor((n, n, n), np.zeros((nnz, 3), dtype=np.int64), [0.0] * nnz)
        prob = sr.make_problem(t, [[0], [1], [2]], ["4", "4", "4"])
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "structural assumptions", RuntimeWarning)
            with pytest.raises(error):
                sr.newton_noda(prob)

    @pytest.mark.filterwarnings("ignore:structural assumptions")
    def test_all_zero_ratios_on_the_krylov_path_name_the_cause(self):
        # no numpy warning may come first: the suite turns any RuntimeWarning
        # raised in specrad's own frames into an error
        t = sr.CooTensor((101,) * 3, np.zeros((0, 3), dtype=np.int64), [])
        prob = sr.make_problem(t, [[0], [1], [2]], ["4", "4", "4"])
        with pytest.raises(KrylovStalled, match="every ratio is 0"):
            sr.newton_noda(prob)

    def test_warns_on_unsupported_regime(self, ref_tensor):
        prob = sr.make_problem(ref_tensor, [[0], [1, 2]], ["2", "4"])
        with pytest.warns(RuntimeWarning, match="structural assumptions"):
            res = sr.newton_noda(prob)
        assert res.converged  # the solve is attempted regardless

    @pytest.mark.parametrize("entry", ["solve", "newton_noda", "power_iteration"])
    def test_unsupported_warning_names_the_callers_line(self, ref_tensor, entry):
        prob = sr.make_problem(ref_tensor, [[0], [1, 2]], ["2", "4"])
        with pytest.warns(RuntimeWarning, match="structural assumptions") as record:
            getattr(sr, entry)(prob)
        assert [w.filename for w in record if "structural" in str(w.message)] == [__file__]

    def test_singular_jacobian_regularized_by_border(self, ref_tensor):
        # at a converged critical-regime eigenpair the plain Jacobian is
        # singular while the bordered matrix stays well conditioned
        prob = sr.make_problem(ref_tensor, [[0, 1, 2]], ["3"])
        res = sr.newton_noda(prob)
        J = sr.residual_jacobian(prob, res.x, res.lambda_star)
        DH = sr.newton_matrix(prob, res.x, res.lambda_star)
        sj = np.linalg.svd(J, compute_uv=False)
        sh = np.linalg.svd(DH, compute_uv=False)
        assert sj[-1] / sj[0] < 1e-12
        assert sh[-1] / sh[0] > 1e-3


class TestScaleEquivariance:
    """lambda(c T) = c lambda(T), however large or small the entries get."""

    @pytest.mark.parametrize("case", sr.BENCH_CASES, ids=bench_case_id)
    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(log10_c=st.floats(min_value=-200.0, max_value=200.0))
    def test_newton_lambda_scales_with_tensor(self, case, log10_c):
        c = 10.0**log10_c
        t = sr.reference_tensor()
        scaled = sr.CooTensor(t.dims, t.indices, c * t.values)
        base = solve_quiet(sr.make_problem(t, case.blocks, case.p))
        res = solve_quiet(sr.make_problem(scaled, case.blocks, case.p))
        assert base.converged and res.converged
        assert abs(res.lambda_star / c - base.lambda_star) <= 1e-10 * base.lambda_star


class TestCertificateBoundsError:
    """The certified ``res`` of a loose power solve bounds its true relative
    eigenvalue error, measured against a tight Newton solve, at any scale."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        config=st.sampled_from(
            [([[0], [1], [2]], ["4", "4", "4"]), ([[0, 1, 2]], ["4"]), ([[0], [1, 2]], ["3", "5"])]
        ),
        c=st.sampled_from([1e-6, 1.0, 1e3]),
        tol=st.sampled_from([1e-3, 1e-6]),
    )
    def test_res_bounds_relative_error(self, seed, config, c, tol):
        t = sr.random_tensor([4, 4, 4], 0.5, seed)
        prob = sr.make_problem(sr.CooTensor(t.dims, t.indices, c * t.values), *config)
        assume(sr.classify_regime(prob).regime is not sr.Regime.UNSUPPORTED)
        exact = solve_quiet(prob)
        rp = solve_quiet(prob, opts=sr.SolverOptions(tol=tol), method="power")
        assert exact.converged
        assert rp.method == "power"
        assert abs(rp.lambda_star - exact.lambda_star) <= rp.res * exact.lambda_star


def count_gradient_calls(monkeypatch) -> list:
    """Count ``gradient_map`` calls through every ``specrad`` binding of it."""
    calls = []
    original = specrad.tensor_core.gradient_map

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "specrad" and getattr(module, "gradient_map", None) is original:
            monkeypatch.setattr(module, "gradient_map", counted)
    return calls


def count_products(monkeypatch) -> list:
    """Count products with the matrix-free bordered Newton operator."""
    calls = []
    original = specrad.solvers._bordered_operator

    def counted(*args):
        matvec, diag, g = original(*args)

        def counted_matvec(v):
            calls.append(1)
            return matvec(v)

        return counted_matvec, diag, g

    monkeypatch.setattr(specrad.solvers, "_bordered_operator", counted)
    return calls


class TestGradientEvaluations:
    """Each iterate evaluates its ratios once; Newton evaluates them once more
    for the certificate, at the blockwise normalization."""

    @pytest.fixture
    def calls(self, monkeypatch):
        return count_gradient_calls(monkeypatch)

    @pytest.mark.parametrize("case", sr.BENCH_CASES, ids=bench_case_id)
    def test_newton_at_most_two_per_iterate(self, case, calls):
        res = solve_quiet(sr.make_problem(sr.reference_tensor(), case.blocks, case.p))
        assert 0 < len(calls) <= 2 * (res.iterations + 1)

    @pytest.mark.parametrize("case", sr.BENCH_CASES, ids=bench_case_id)
    def test_power_one_per_iterate(self, case, calls):
        prob = sr.make_problem(sr.reference_tensor(), case.blocks, case.p)
        res = solve_quiet(prob, method="power")
        assert len(calls) == res.iterations + 1


class TestPrecomputedReport:
    """A report the caller already has is used as given, and the result is
    the one the solver gets by classifying the problem itself."""

    @pytest.mark.parametrize("method", ["lsnnm", "power"])
    @pytest.mark.parametrize("case", sr.BENCH_CASES, ids=bench_case_id)
    def test_same_result_with_and_without(self, case, method):
        prob = sr.make_problem(sr.reference_tensor(), case.blocks, case.p)
        report = sr.classify_regime(prob)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            given = sr.solve(prob, method=method, report=report)
            own = sr.solve(prob, method=method)
        assert given.regime is report
        assert given.trace == own.trace
        assert np.array_equal(given.x.flat, own.x.flat)
        assert given.lambda_star == own.lambda_star and given.res == own.res

    def test_report_is_keyword_only(self, ref_tensor):
        prob = sr.make_problem(ref_tensor, [[0, 1, 2]], ["3"])
        with pytest.raises(TypeError):
            sr.newton_noda(prob, None, None, sr.classify_regime(prob))


class TestPowerIteration:
    def test_converges_on_reference_configs(self, nine_problem):
        prob, lam_ref = nine_problem
        res = solve_quiet(prob, method="power")
        assert res.converged
        assert res.res <= 1e-12
        assert abs(res.lambda_star - lam_ref) <= 5e-3
        assert res.method == "power"

    def test_agrees_with_newton(self, nine_problem):
        prob, _ = nine_problem
        rn = solve_quiet(prob)
        rp = solve_quiet(prob, method="power")
        assert abs(rn.lambda_star - rp.lambda_star) <= 1e-8 * rn.lambda_star
        assert np.abs(rn.x.flat - rp.x.flat).max() <= 1e-6

    def test_needs_many_more_iterations(self, ref_tensor):
        prob = sr.make_problem(ref_tensor, [[0, 1, 2]], ["3"])
        rn = sr.newton_noda(prob)
        rp = sr.power_iteration(prob)
        assert rp.iterations > 3 * rn.iterations

    def test_trace_rows_are_diagnostic_only(self, ref_tensor):
        prob = sr.make_problem(ref_tensor, [[0, 1, 2]], ["3"])
        res = sr.power_iteration(prob, opts=sr.SolverOptions(max_iter=10))
        for rec in res.trace:
            assert rec.delta_k == 0.0
            assert rec.alpha_k == 1.0
            assert rec.tangency == 0.0

    def test_iteration_cap(self, ref_tensor):
        prob = sr.make_problem(ref_tensor, [[0, 1, 2]], ["3"])
        res = sr.power_iteration(prob, opts=sr.SolverOptions(max_iter=3))
        assert not res.converged
        assert res.iterations == 3

    def test_large_solve_peak_memory(self):
        # N = 6000, nnz = 64,000: the structure check and the gradient map
        # together peak near 12 MB
        prob = sr.make_problem(ring_cube(2000, 0), SINGLETONS, ["3", "3", "3"])
        tracemalloc.start()
        try:
            res = sr.power_iteration(prob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.converged
        assert peak < 16e6


#: Iterations each method takes on the nine benchmark cases from the default
#: start and options.  Reworking how an iterate is computed must not move them.
BENCH_ITERATIONS = {
    "1,2,3|p=3": (4, 45),
    "1,2,3|p=4": (4, 26),
    "1,2,3|p=5": (4, 20),
    "1;2,3|p=2,4": (8, 191),
    "1;2,3|p=3,5": (6, 38),
    "1;2,3|p=4,6": (5, 26),
    "1;2;3|p=3,3,3": (5, 72),
    "1;2;3|p=4,4,4": (5, 42),
    "1;2;3|p=5,5,5": (5, 30),
}


@pytest.mark.parametrize("case", sr.BENCH_CASES, ids=bench_case_id)
def test_bench_case_iteration_counts_are_pinned(case):
    prob = sr.make_problem(sr.reference_tensor(), case.blocks, case.p)
    counts = tuple(solve_quiet(prob, method=m).iterations for m in ("lsnnm", "power"))
    assert counts == BENCH_ITERATIONS[bench_case_id(case)]


class TestSolveDispatcher:
    def test_dispatches_by_method(self, ref_tensor):
        prob = sr.make_problem(ref_tensor, [[0, 1, 2]], ["3"])
        assert sr.solve(prob).method == "lsnnm"
        assert sr.solve(prob, method="lsnnm").method == "lsnnm"
        assert sr.solve(prob, method="power").method == "power"

    def test_rejects_unknown_method(self, ref_tensor):
        prob = sr.make_problem(ref_tensor, [[0, 1, 2]], ["3"])
        with pytest.raises(ValueError, match="bisection"):
            sr.solve(prob, method="bisection")

    def test_options_carry_no_method(self):
        assert len(dataclasses.fields(sr.SolverOptions)) == 5
        with pytest.raises(TypeError):
            sr.SolverOptions(method="power")

    def test_regime_report_attached(self, ref_tensor):
        prob = sr.make_problem(ref_tensor, [[0, 1, 2]], ["3"])
        res = sr.solve(prob)
        assert res.regime.regime is sr.Regime.WEAKLY_IRR_CRITICAL
        assert res.regime.M_nnz == 6


class TestCertifiedResidual:
    def test_matches_definition(self, nine_problem):
        prob, _ = nine_problem
        rng = np.random.default_rng(55)
        x = random_positive(prob, rng)
        xbar = sr.normalize_blocks(prob, x)
        phi = sr.ratio_map(prob, xbar)
        hi, lo = float(phi.flat.max()), float(phi.flat.min())
        assert_allclose(
            sr.certified_residual(prob, x), (hi - lo) / lo, rtol=1e-15
        )

    def test_invariant_under_block_scaling(self, nine_problem):
        prob, _ = nine_problem
        rng = np.random.default_rng(56)
        x = random_positive(prob, rng)
        theta = rng.uniform(0.1, 10.0, prob.d)
        scaled = sr.BlockVector(
            [theta[i] * x.block(i) for i in range(prob.d)]
        )
        a = sr.certified_residual(prob, x)
        b = sr.certified_residual(prob, scaled)
        assert abs(a - b) <= 1e-12 * max(1.0, a)

    def test_zero_at_eigenvector(self, nine_problem):
        prob, _ = nine_problem
        res = solve_quiet(prob)
        assert sr.certified_residual(prob, res.x) <= 1e-12


SINGLETONS = [[0], [1], [2]]

#: (blocks, p, n): order-3 ring cubes with N = 3n or 2n just above the
#: dense crossover, in every regime; the last is Unsupported.
KRYLOV_CONFIGS = [
    (SINGLETONS, ["4", "4", "4"], 103),
    (SINGLETONS, ["3", "3", "3"], 104),
    (SINGLETONS, ["2.5", "4", "6"], 105),
    (SINGLETONS, ["6", "6", "6"], 106),
    ([[0], [1, 2]], ["3", "5"], 155),
    (SINGLETONS, ["1.5", "4", "4"], 107),
]


def krylov_id(cfg):
    blocks, p, n = cfg
    return f"{len(blocks)}blocks|p={','.join(p)}|n={n}"


class TestKrylovNewton:
    """Above ``_DENSE_MAX_N`` unknowns the Newton step is solved by GMRES on
    the matrix-free bordered operator, to a forcing-term tolerance.  Solved
    tightly it must be the dense step; the iteration must be scale-invariant,
    keep a quadratic tail and lower lambda at every step, and a GMRES that
    misses its tolerance must raise."""

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(
        cfg=st.sampled_from(KRYLOV_CONFIGS),
        seed=st.integers(0, 10**6),
        start=st.integers(0, 10**6),
    )
    def test_step_matches_dense(self, cfg, seed, start):
        blocks, p, n = cfg
        prob = sr.make_problem(ring_cube(n, seed), blocks, p)
        x = sr.retract(prob, random_positive(prob, np.random.default_rng(start)))
        phi = sr.ratio_map(prob, x).flat
        lam = float(phi.max())
        H = sr.eigen_system(prob, x, lam)
        d, delta, _ = sr.solvers._newton_step(prob, x, phi, lam, H)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sr.solvers, "_DENSE_MAX_N", 10**9)
            d_ref, delta_ref, _ = sr.solvers._newton_step(prob, x, phi, lam, H)
        assert rel_err(d, d_ref) <= 1e-9
        assert abs(delta - delta_ref) <= 1e-9 * abs(delta_ref)

    @pytest.mark.parametrize("n, krylov", [(100, False), (101, True)])
    def test_dispatch_on_unknowns(self, n, krylov, monkeypatch):
        calls = {"gmres": 0, "lu_solve": 0}
        for name in calls:
            original = getattr(sr.solvers, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(sr.solvers, name, counted)
        res = solve_quiet(sr.make_problem(ring_cube(n, 0), SINGLETONS, ["4", "4", "4"]))
        assert res.converged and res.iterations > 0
        expected = (res.iterations, 0) if krylov else (0, res.iterations)
        assert (calls["gmres"], calls["lu_solve"]) == expected

    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 10**6), log10_c=st.floats(min_value=-200.0, max_value=200.0))
    def test_lambda_scales_with_tensor(self, seed, log10_c):
        c = 10.0**log10_c
        make = lambda t: sr.make_problem(t, SINGLETONS, ["4", "4", "4"])  # noqa: E731
        base = solve_quiet(make(ring_cube(103, seed)))
        res = solve_quiet(make(ring_cube(103, seed, scale=c)))
        assert base.converged and res.converged
        assert abs(res.lambda_star / c - base.lambda_star) <= 1e-10 * base.lambda_star

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(cfg=st.sampled_from(KRYLOV_CONFIGS), seed=st.integers(0, 10**6))
    def test_tail_is_superlinear(self, cfg, seed):
        blocks, p, n = cfg
        opts = sr.SolverOptions()
        res = solve_quiet(sr.make_problem(ring_cube(n, seed), blocks, p), opts=opts)
        assert res.converged
        r = [rec.res for rec in res.trace]
        for before, after in zip(r[-4:-1], r[-3:]):
            assert after <= max(before**1.5, 10 * opts.tol)

    @settings(max_examples=6, deadline=None, derandomize=True, database=None)
    @given(cfg=st.sampled_from(KRYLOV_CONFIGS), seed=st.integers(0, 10**6))
    def test_at_most_two_gradient_evaluations_per_iterate(self, cfg, seed):
        blocks, p, n = cfg
        prob = sr.make_problem(ring_cube(n, seed), blocks, p)
        with pytest.MonkeyPatch.context() as mp:
            calls = count_gradient_calls(mp)
            res = solve_quiet(prob)
        assert 0 < len(calls) <= 2 * (res.iterations + 1)

    @pytest.mark.parametrize("p, iterations, products", [("4", 5, 40), ("3", 6, 55)])
    def test_forcing_terms_bound_operator_products(self, p, iterations, products, monkeypatch):
        # N = 6000; steps solved to _KRYLOV_RTOL took 74 and 89 products in
        # 5 iterations
        prob = sr.make_problem(ring_cube(2000, 0), SINGLETONS, [p] * 3)
        calls = count_products(monkeypatch)
        res = sr.newton_noda(prob)
        assert res.converged and res.iterations <= iterations
        assert len(calls) <= products

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(cfg=st.sampled_from(KRYLOV_CONFIGS), seed=st.integers(0, 10**6))
    def test_inexact_steps_lower_lambda_and_cost_at_most_one_iteration(self, cfg, seed):
        blocks, p, n = cfg
        prob = sr.make_problem(ring_cube(n, seed), blocks, p)
        res = solve_quiet(prob)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sr.solvers, "_forcing_term", lambda *_: sr.solvers._KRYLOV_RTOL)
            exact = solve_quiet(prob)
        assert res.converged and exact.converged
        assert all(rec.delta_k <= 0.0 for rec in res.trace[:-1])
        assert res.iterations <= exact.iterations + 1

    def test_inexact_step_that_raises_lambda_is_solved_tightly(self, monkeypatch):
        prob = sr.make_problem(ring_cube(103, 0), SINGLETONS, ["4", "4", "4"])
        x = sr.retract(prob, prob.ones())
        phi = sr.ratio_map(prob, x).flat
        lam = float(phi.max())
        H = sr.eigen_system(prob, x, lam)
        d_ref, delta_ref, _ = sr.solvers._newton_step(prob, x, phi, lam, H)
        tols = []
        original = sr.solvers.gmres

        def loose_solve_raises_lambda(matvec, b, precond, *, rtol, **kwargs):
            tols.append(rtol)
            sol = original(matvec, b, precond, rtol=rtol, **kwargs)
            if rtol > sr.solvers._KRYLOV_RTOL:
                sol[-1] = abs(sol[-1])
            return sol

        monkeypatch.setattr(sr.solvers, "gmres", loose_solve_raises_lambda)
        d, delta, _ = sr.solvers._newton_step(prob, x, phi, lam, H, 0.1)
        assert tols == [0.1, sr.solvers._KRYLOV_RTOL]
        assert delta == delta_ref and np.array_equal(d, d_ref)

    def test_missed_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(sr.solvers, "_KRYLOV_MAX_ITER", 1)
        prob = sr.make_problem(ring_cube(103, 0), SINGLETONS, ["4", "4", "4"])
        with pytest.raises(KrylovStalled):
            sr.newton_noda(prob)

    def test_large_solve_builds_no_dense_matrix(self):
        # N = 6000: one dense bordered matrix alone would be 288 MB
        prob = sr.make_problem(ring_cube(2000, 0), SINGLETONS, ["4", "4", "4"])
        tracemalloc.start()
        try:
            res = sr.newton_noda(prob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.converged
        assert peak < 60e6

    def test_large_solve_keeps_no_jacobian_triplets(self):
        # N = 6000: holding the 6 * nnz expanded Jacobian entries, as the
        # product once did, took the peak to 21.8 MB
        prob = sr.make_problem(ring_cube(2000, 0), SINGLETONS, ["4", "4", "4"])
        tracemalloc.start()
        try:
            res = sr.newton_noda(prob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.converged
        assert peak < 16e6


class TestSingularValueKnownAnswer:
    """For a nonnegative matrix with partition ``1;2`` and p = 2,2 the
    spectral radius is the largest singular value; at n >= 160 the solve
    runs on the GMRES path."""

    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(160, 400), seed=st.integers(0, 10**6))
    def test_lambda_is_largest_singular_value(self, n, seed):
        rng = np.random.default_rng(seed)
        A = (rng.random((n, n)) < 0.2) * rng.random((n, n))
        A[np.diag_indices(n)] += 0.5
        res = solve_quiet(sr.make_problem(matrix_tensor(A), [[0], [1]], ["2", "2"]))
        sigma = float(np.linalg.svd(A, compute_uv=False)[0])
        assert res.converged
        assert abs(res.lambda_star - sigma) <= 1e-10 * sigma

    @settings(max_examples=6, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(160, 200), seed=st.integers(0, 10**6))
    def test_critical_two_cluster_matrix(self, n, seed):
        # N = 2n unknowns, critical; steps solved to _KRYLOV_RTOL take 6-8
        # iterations, and GMRES tolerances bounded by the bracket gap alone
        # took up to 17 (11 at n = 160, seed 0)
        A = two_cluster_matrix(n, 1e-2, seed)
        res = solve_quiet(sr.make_problem(matrix_tensor(A), [[0], [1]], ["2", "2"]))
        sigma = float(np.linalg.svd(A, compute_uv=False)[0])
        assert res.converged and res.iterations <= 10
        assert abs(res.lambda_star - sigma) <= 1e-10 * sigma
