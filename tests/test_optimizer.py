import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import phaselimit
from phaselimit import (
    ConvergenceError,
    CostKind,
    ValidationError,
    canonical_distribution,
    cost_matrix,
    figure2_curve,
    k_C,
    make_state,
    mean_square_deviation,
    min_eigenpair,
    optimize_at_mean,
    optimizer,
    solve_at_multiplier,
    surrogate_cost,
)
from phaselimit.optimizer import SymmetricBand, _next_multiplier, _surrogate_band

# Frozen oracle: brute-force random search over real dim-3/4 states with
# mean within 2e-3 of 0.5 achieved cost 1.00747, already below the dim-2
# value pi^2/3 - 2; the optimizer must do at least as well at dim 32.
BRUTE_FORCE_COST_AT_HALF = 1.00747


class TestCostMatrix:
    def test_exact_dim2(self):
        a = cost_matrix(CostKind.EXACT_SQUARE, 2)
        expected = np.array([[math.pi**2 / 3, -2.0], [-2.0, math.pi**2 / 3]])
        assert np.allclose(a, expected, atol=1e-14)

    def test_surrogate_dim2(self):
        a = cost_matrix(CostKind.SURROGATE, 2)
        assert np.allclose(a, [[2.5, -4 / 3], [-4 / 3, 2.5]], atol=1e-14)

    def test_surrogate_is_pentadiagonal(self):
        a = cost_matrix(CostKind.SURROGATE, 8)
        assert np.allclose(np.triu(a, 3), 0)
        assert a[0, 2] == pytest.approx(1 / 12)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_surrogate_small_dims(self, dim):
        a = cost_matrix(CostKind.SURROGATE, dim)
        assert a.shape == (dim, dim)
        offset = np.abs(np.subtract.outer(np.arange(dim), np.arange(dim)))
        band = np.select([offset == 0, offset == 1, offset == 2], [2.5, -4 / 3, 1 / 12], 0.0)
        assert np.array_equal(a, band)

    def test_quadratic_form_matches_phasedist(self, rng):
        for kind, functional in [
            (CostKind.EXACT_SQUARE, mean_square_deviation),
            (CostKind.SURROGATE, surrogate_cost),
        ]:
            a = cost_matrix(kind, 16)
            for _ in range(10):
                v = rng.standard_normal(16)
                v /= np.linalg.norm(v)
                dist = canonical_distribution(make_state(v))
                assert v @ a @ v == pytest.approx(functional(dist), abs=1e-12)

    def test_invalid_dim(self):
        with pytest.raises(ValidationError):
            cost_matrix(CostKind.EXACT_SQUARE, 0)


class TestMinEigenpair:
    def test_surrogate_2x2(self):
        mu, v, _ = min_eigenpair(np.array([[2.5, -4 / 3], [-4 / 3, 2.5]]))
        assert mu == pytest.approx(7 / 6, abs=1e-12)
        assert np.allclose(np.abs(v), 1 / math.sqrt(2), atol=1e-12)

    def test_exact_2x2(self):
        mu, v, _ = min_eigenpair(cost_matrix(CostKind.EXACT_SQUARE, 2))
        assert mu == pytest.approx(math.pi**2 / 3 - 2, abs=1e-12)

    def test_random_symmetric_vs_full_spectrum(self, rng):
        for _ in range(5):
            m = rng.standard_normal((50, 50))
            m = (m + m.T) / 2
            mu, v, _ = min_eigenpair(m)
            assert mu == pytest.approx(np.linalg.eigvalsh(m)[0], abs=1e-9)
            assert np.linalg.norm(m @ v - mu * v) < 1e-9

    def test_sparse_matches_dense(self):
        b = _surrogate_band(600, 0.3)
        mu_s, v_s, _ = min_eigenpair(b)
        vals, vecs = scipy.linalg.eigh(b.toarray(), subset_by_index=[0, 0])
        assert mu_s == pytest.approx(vals[0], abs=1e-10)
        assert abs(abs(v_s @ vecs[:, 0]) - 1) < 1e-8

    def test_either_form_at_either_size(self):
        # the method follows the size, not the input form
        for b in (_surrogate_band(100, 0.3), cost_matrix(CostKind.EXACT_SQUARE, 300)):
            mu, v, residual = min_eigenpair(b)
            dense = b.toarray() if isinstance(b, SymmetricBand) else b
            assert mu == pytest.approx(np.linalg.eigvalsh(dense)[0], abs=1e-10)
            assert residual < 1e-12

    def test_rejects_indefinite_above_dense_limit(self):
        # the Cholesky factorization at sigma = 0 fails
        m = np.diag(np.concatenate([[-5.0, -0.1], np.linspace(1.0, 2.0, 298)]))
        with pytest.raises(ValidationError, match="positive definite"):
            min_eigenpair(m)

    def test_tolerates_rounding_asymmetry(self):
        m = np.array([[2.0, 1.0], [1.0 + 1e-13, 2.0]])
        mu, _, _ = min_eigenpair(m)
        assert mu == pytest.approx(1.0, abs=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            min_eigenpair(np.array([[1.0, 2.0], [0.0, 1.0]]))
        # a band is symmetric by construction; one with more rows than
        # columns holds no matrix
        with pytest.raises(ValidationError):
            min_eigenpair(SymmetricBand(np.array([[1.0, 2.0], [0.0, 1.0], [0.0, 0.0]])))
        nan = np.array([[1.0, math.nan], [math.nan, 1.0]])
        for m in (nan, SymmetricBand(np.array([[1.0, 1.0], [math.nan, 0.0]]))):
            with pytest.raises(ValidationError):
                min_eigenpair(m)

    def test_rejects_indefinite_band_with_positive_eigenvalue_nearest_zero(self):
        # shift-invert alone would return 0.5; the banded Cholesky fails
        diagonal = np.concatenate([[-5.0, 0.5], np.linspace(1.0, 2.0, 298)])
        with pytest.raises(ValidationError, match="positive definite"):
            min_eigenpair(SymmetricBand(diagonal[np.newaxis, :]))

    def test_rejects_indefinite_dense_with_positive_eigenvalue_nearest_zero(self):
        # an LU shift-invert at 0 returned 0.5 here; the Cholesky at 0 fails
        diagonal = np.concatenate([[-5.0, 0.5], np.linspace(1.0, 2.0, 298)])
        for start in (None, np.eye(300)[1]):
            with pytest.raises(ValidationError, match="positive definite"):
                min_eigenpair(np.diag(diagonal), start=start)

    @pytest.mark.parametrize("dim", [3, 300])
    def test_rejects_infinite_dense(self, dim):
        m = cost_matrix(CostKind.EXACT_SQUARE, dim)
        m[0, 0] = math.inf
        with pytest.raises(ValidationError, match="entries must be finite"):
            min_eigenpair(m)

    @pytest.mark.parametrize(
        "start, match",
        [(np.ones(299), "size"), (np.zeros(300), "nonzero"), (np.full(300, math.nan), "finite")],
    )
    def test_rejects_bad_start(self, start, match):
        with pytest.raises(ValidationError, match=match):
            min_eigenpair(_surrogate_band(300, 0.1), start=start)

    def test_cluster_narrower_than_tolerance(self):
        # no certified shift separates eigenvalues 1e-10 apart; the residual
        # tolerance still holds and the eigenvalue is within the gap
        m = np.diag(np.concatenate([[1.0, 1.0 + 1e-10], np.linspace(2.0, 10.0, 298)]))
        mu, _, residual = min_eigenpair(m)
        assert 1.0 <= mu <= 1.0 + 1e-10
        assert residual <= 1e-9 * 10.0

    def test_seeds_agree_on_the_mean_at_large_dim(self):
        # at dim 32000 the gap is 1e-7 of ||A||: a rounding-level residual
        # alone left the means of different seeds 1e-9 apart
        lam = 2.0 * k_C() ** 2 / 4001.0**3
        means = [solve_at_multiplier(CostKind.SURROGATE, 32000, lam, seed=s)[2] for s in range(3)]
        assert max(means) - min(means) <= 1e-10 * min(means)

    def test_start_at_exact_eigenvector(self):
        # a start with zero residual
        m = np.diag(np.linspace(1.0, 2.0, 300))
        mu, v, residual = min_eigenpair(m, start=np.eye(300)[0])
        assert mu == pytest.approx(1.0, abs=1e-15)
        assert abs(v[0]) == pytest.approx(1.0, abs=1e-15)
        assert residual <= 1e-15

    @pytest.mark.parametrize("kind", list(CostKind))
    def test_start_at_second_eigenvector_returns_lowest(self, kind):
        # the first shift lies above the smallest eigenvalue, so its
        # factorization fails; the iteration from that start would end on
        # the second eigenpair, above the failed shift, and is redone from
        # the seeded vector
        dim, lam = 300, 1e-3
        b = cost_matrix(kind, dim) + lam * np.diag(np.arange(dim, dtype=float))
        vals, vecs = scipy.linalg.eigh(b, subset_by_index=[0, 1])
        matrix = _surrogate_band(dim, lam) if kind is CostKind.SURROGATE else b
        mu, v, residual = min_eigenpair(matrix, start=vecs[:, 1])
        assert mu == pytest.approx(vals[0], abs=1e-12)
        assert abs(v @ vecs[:, 0]) >= 1 - 1e-10
        assert residual < 1e-12

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("dim", [3, 300])
    def test_rejects_non_finite_band(self, bad, dim):
        b = _surrogate_band(dim, 0.1)
        b.band[1, dim // 2] = bad
        with pytest.raises(ValidationError, match="entries must be finite"):
            min_eigenpair(b)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_small_bands_match_cost_matrix(self, dim, rng):
        lam = 0.7
        b = _surrogate_band(dim, lam)
        dense = cost_matrix(CostKind.SURROGATE, dim) + lam * np.diag(np.arange(dim, dtype=float))
        assert b.shape == (dim, dim)
        assert np.array_equal(b.toarray(), dense)
        x = rng.standard_normal(dim)
        assert np.allclose(b @ x, dense @ x, rtol=0, atol=1e-14)
        mu, v, _ = min_eigenpair(b)
        mu_dense, v_dense, _ = min_eigenpair(dense)
        assert mu == pytest.approx(mu_dense, abs=1e-14)
        assert abs(v @ v_dense) == pytest.approx(1.0, abs=1e-14)


class TestSolveAtMultiplier:
    def test_large_lambda_gives_vacuum(self):
        _, v, mean, _ = solve_at_multiplier(CostKind.EXACT_SQUARE, 16, 1e6)
        assert mean < 1e-4
        assert abs(v[0]) > 0.9999

    def test_lambda_zero_surrogate_dim2(self):
        mu, v, mean, _ = solve_at_multiplier(CostKind.SURROGATE, 2, 0.0)
        assert mu == pytest.approx(7 / 6, abs=1e-12)
        assert mean == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(v, [1 / math.sqrt(2)] * 2, atol=1e-10)

    def test_surrogate_dim1(self):
        mu, v, mean, _ = solve_at_multiplier(CostKind.SURROGATE, 1, 0.7)
        assert mu == 2.5
        assert np.array_equal(v, [1.0])
        assert mean == 0.0

    def test_matches_dense_oracle_dim8(self):
        lam = 1.0
        mu, v, mean, _ = solve_at_multiplier(CostKind.EXACT_SQUARE, 8, lam)
        b = cost_matrix(CostKind.EXACT_SQUARE, 8) + lam * np.diag(np.arange(8.0))
        vals, vecs = np.linalg.eigh(b)
        assert mu == pytest.approx(vals[0], abs=1e-10)
        assert mean == pytest.approx(np.arange(8) @ vecs[:, 0] ** 2, abs=1e-9)

    def test_mean_nonincreasing_in_lambda(self):
        lams = [0.0, 0.1, 0.5, 1.0, 3.0, 10.0, 100.0]
        means = [solve_at_multiplier(CostKind.EXACT_SQUARE, 32, l)[2] for l in lams]
        assert all(b <= a + 1e-12 for a, b in zip(means, means[1:]))

    def test_repeated_calls_at_one_dim_match_oracle(self):
        # the cost matrix is shared between calls at one dim; a call must
        # not see the multiplier of the previous one
        for lam in (2.0, 0.0, 0.5):
            mu, _, _, _ = solve_at_multiplier(CostKind.SURROGATE, 12, lam)
            b = cost_matrix(CostKind.SURROGATE, 12) + lam * np.diag(np.arange(12.0))
            assert mu == pytest.approx(np.linalg.eigvalsh(b)[0], abs=1e-12)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValidationError):
            solve_at_multiplier(CostKind.EXACT_SQUARE, 4, -1.0)


# one large dim per kind, small enough for a dense reference; the
# surrogate's puts the banded inverse iteration well above the switch
LARGE_DIM = {CostKind.EXACT_SQUARE: 1200, CostKind.SURROGATE: 1600}


def lambda0(dim):
    """lambda_0 of the multiplier search at the mean whose default dim is dim."""
    return 2.0 * k_C() ** 2 / (dim / 8 + 1.0) ** 3


def _cross_check_cases():
    for kind in CostKind:
        for dim in (255, 256, 257, 600, LARGE_DIM[kind]):
            for name, lam in (("0", 0.0), ("lam0", lambda0(dim)), ("1e3", 1e3)):
                yield pytest.param(kind, dim, lam, id=f"{kind.value}-{dim}-{name}")


@pytest.mark.parametrize("kind,dim,lam", list(_cross_check_cases()))
def test_solve_matches_dense_eigh(kind, dim, lam):
    """Both methods of min_eigenpair, on both sides of DENSE_EIGH_MAX_DIM,
    against a full dense eigh of the same B(lambda)."""
    mu, v, mean, _ = solve_at_multiplier(kind, dim, lam)
    b = cost_matrix(kind, dim) + lam * np.diag(np.arange(dim, dtype=float))
    vals, vecs = scipy.linalg.eigh(b, subset_by_index=[0, 0])
    assert abs(mu - vals[0]) <= 1e-10 * max(1.0, np.abs(b).sum(axis=1).max())
    assert abs(v @ vecs[:, 0]) >= 1 - 1e-10
    assert mean == pytest.approx(np.arange(dim) @ v**2, abs=1e-12)


def _warm_start_cases():
    for kind in CostKind:
        for dim in (257, 600, LARGE_DIM[kind]):
            for factor in (4.0, 1.01):
                yield pytest.param(kind, dim, factor, id=f"{kind.value}-{dim}-x{factor}")


@pytest.mark.parametrize("kind,dim,factor", list(_warm_start_cases()))
def test_warm_start_matches_dense_eigh(kind, dim, factor):
    """Inverse iteration started from the eigenvector at lambda*factor, as
    the multiplier search starts it, against a full dense eigh."""
    lam = lambda0(dim)
    start = solve_at_multiplier(kind, dim, lam * factor)[1]
    mu, v, mean, residual = solve_at_multiplier(kind, dim, lam, start=start)
    b = cost_matrix(kind, dim) + lam * np.diag(np.arange(dim, dtype=float))
    vals, vecs = scipy.linalg.eigh(b, subset_by_index=[0, 0])
    assert mu == pytest.approx(vals[0], abs=1e-12)
    assert abs(v @ vecs[:, 0]) >= 1 - 1e-10
    assert mean == pytest.approx(np.arange(dim) @ vecs[:, 0] ** 2, rel=1e-10)
    assert residual < 1e-12


@settings(max_examples=15, deadline=None)
@given(
    kind=st.sampled_from(list(CostKind)),
    dim=st.integers(257, 700),
    log_lam=st.floats(-8.0, 1.0),
    log_factor=st.floats(-1.0, 1.0),
    seed=st.integers(0, 1000),
)
def test_warm_and_cold_starts_agree(kind, dim, log_lam, log_factor, seed):
    lam = 10.0**log_lam
    start = solve_at_multiplier(kind, dim, lam * 10.0**log_factor)[1]
    mu, v, mean, _ = solve_at_multiplier(kind, dim, lam, seed=seed)
    mu_w, v_w, mean_w, _ = solve_at_multiplier(kind, dim, lam, seed=seed, start=start)
    assert mu_w == pytest.approx(mu, abs=1e-12 * max(1.0, lam * dim))
    assert v_w @ v >= 1 - 1e-10
    assert mean_w == pytest.approx(mean, rel=1e-9, abs=1e-12)


def test_package_does_not_import_scipy_sparse_linalg():
    code = "import sys, phaselimit.cli; print('scipy.sparse.linalg' in sys.modules)"
    src = os.path.dirname(os.path.dirname(phaselimit.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "False"


class TestOptimizeAtMean:
    def test_target_zero_is_vacuum(self):
        for kind, cost in [(CostKind.EXACT_SQUARE, math.pi**2 / 3), (CostKind.SURROGATE, 2.5)]:
            res = optimize_at_mean(kind, 0.0)
            assert res.cost == pytest.approx(cost, abs=1e-12)
            assert res.achieved_mean == 0.0
            assert abs(res.state.amplitudes[0]) == 1.0

    def test_dim2_pinned(self):
        res = optimize_at_mean(CostKind.EXACT_SQUARE, 0.5, dim=2)
        assert res.cost == pytest.approx(math.pi**2 / 3 - 2, abs=1e-10)
        assert np.allclose(np.abs(res.state.amplitudes), 1 / math.sqrt(2), atol=1e-8)

    def test_dim32_beats_brute_force_oracle(self):
        res = optimize_at_mean(CostKind.EXACT_SQUARE, 0.5, dim=32)
        assert res.cost < math.pi**2 / 3 - 2
        assert res.cost <= BRUTE_FORCE_COST_AT_HALF

    def test_result_invariants(self):
        res = optimize_at_mean(CostKind.EXACT_SQUARE, 3.0)
        assert abs(res.achieved_mean - 3.0) <= 1e-8 * 4.0
        assert res.cost == pytest.approx(res.eigenvalue - res.lam * res.achieved_mean, abs=1e-9)
        assert res.tail_mass < 1e-10

    def test_cost_matches_canonical_msd(self):
        res = optimize_at_mean(CostKind.EXACT_SQUARE, 2.0)
        dist = canonical_distribution(res.state)
        assert mean_square_deviation(dist) == pytest.approx(res.cost, abs=1e-9)

    def test_truncation_stability(self):
        res1 = optimize_at_mean(CostKind.EXACT_SQUARE, 1.5)
        res2 = optimize_at_mean(CostKind.EXACT_SQUARE, 1.5, dim=2 * res1.dim)
        assert abs(res1.cost - res2.cost) < 1e-8

    def test_optimality_certificate(self, rng):
        res = optimize_at_mean(CostKind.EXACT_SQUARE, 2.0)
        a = cost_matrix(CostKind.EXACT_SQUARE, res.dim)
        n = np.arange(res.dim)
        v = res.state.amplitudes.real
        for _ in range(100):
            d1 = rng.standard_normal(res.dim)
            d2 = rng.standard_normal(res.dim)
            # combine two directions to preserve the mean to first order
            m1, m2 = n @ (2 * v * d1), n @ (2 * v * d2)
            d = d1 * m2 - d2 * m1  # first-order mean change cancels
            w = v + 1e-5 * d / max(np.linalg.norm(d), 1e-30)
            w /= np.linalg.norm(w)
            if abs(n @ w**2 - res.achieved_mean) < 1e-8:
                assert w @ a @ w >= res.cost - 1e-8

    def test_infeasible_target(self):
        with pytest.raises(ValidationError):
            optimize_at_mean(CostKind.EXACT_SQUARE, 5.0, dim=4)

    def test_explicit_dim_too_small_for_bracket(self):
        with pytest.raises((ValidationError, ConvergenceError)):
            optimize_at_mean(CostKind.EXACT_SQUARE, 1.9, dim=3)


def reference_multiplier(kind, target, dim):
    """Plain bisection on log(lambda) over a bracket checked at both ends.

    Stops once lambda*|mean - target| <= 1e-10: since d cost/d mean is
    -lambda, the cost found is then within about 1e-10 of the cost at the
    target mean.  Returns (lambda, cost).
    """
    lo, hi = 1e-14, 1e2
    assert solve_at_multiplier(kind, dim, lo)[2] > target > solve_at_multiplier(kind, dim, hi)[2]
    for _ in range(200):
        lam = math.sqrt(lo * hi)
        mu, _, mean, _ = solve_at_multiplier(kind, dim, lam)
        if lam * abs(mean - target) <= 1e-10:
            return lam, mu - lam * mean
        if mean > target:
            lo = lam
        else:
            hi = lam
    raise AssertionError("reference bisection did not converge")


def spy_solves():
    """Patch optimizer.solve_at_multiplier to record each (dim, lambda) it
    is called with; returns the patcher and the list it fills."""
    calls = []
    real = optimizer.solve_at_multiplier

    def spy(kind, dim, lam, seed=0, **kwargs):
        calls.append((dim, lam))
        return real(kind, dim, lam, seed=seed, **kwargs)

    return mock.patch.object(optimizer, "solve_at_multiplier", spy), calls


class TestMultiplierSearch:
    # Mean 300 runs at dim 1200 (tail mass 3e-11 < TAIL_TOL) rather than the
    # default 2400, where each dense solve of the reference takes about 1 s.
    @pytest.mark.parametrize(
        "kind, target, dim",
        [
            (CostKind.EXACT_SQUARE, 0.5, None),
            (CostKind.EXACT_SQUARE, 3.0, None),
            (CostKind.EXACT_SQUARE, 32.0, None),
            (CostKind.EXACT_SQUARE, 300.0, 1200),
            (CostKind.SURROGATE, 0.4, None),
            (CostKind.SURROGATE, 40.0, None),
            (CostKind.SURROGATE, 4000.0, None),
        ],
    )
    def test_matches_reference_bisection(self, kind, target, dim):
        mean_tol = 1e-8
        res = optimize_at_mean(kind, target, dim=dim, mean_tol=mean_tol)
        _, ref_cost = reference_multiplier(kind, target, res.dim)
        assert res.cost == pytest.approx(ref_cost, abs=1e-8)
        assert abs(res.achieved_mean - target) <= mean_tol * (1 + target)
        assert res.iterations <= 8

    def test_safeguards(self):
        # toward an unbracketed side a step is at most a factor 4
        assert _next_multiplier(1.0, 10.0, 1.0, math.inf) == pytest.approx(4.0)
        assert _next_multiplier(1.0, -10.0, 0.0, 1.0) == pytest.approx(0.25)
        # a step leaving the bracket lands on its geometric midpoint
        assert _next_multiplier(1.0, 10.0, 1.0, 9.0) == pytest.approx(3.0)
        assert _next_multiplier(9.0, -10.0, 1.0, 9.0) == pytest.approx(3.0)
        # a step inside the bracket is taken as it is
        assert _next_multiplier(1.0, math.log(2.0), 1.0, 9.0) == pytest.approx(2.0)

    # the default-dim targets of test_matches_reference_bisection
    @pytest.mark.parametrize(
        "kind, target",
        [
            (CostKind.EXACT_SQUARE, 0.5),
            (CostKind.EXACT_SQUARE, 3.0),
            (CostKind.EXACT_SQUARE, 32.0),
            (CostKind.SURROGATE, 0.4),
            (CostKind.SURROGATE, 40.0),
            (CostKind.SURROGATE, 4000.0),
        ],
    )
    def test_no_unconstrained_solve_at_default_dim(self, kind, target):
        # the first multiplier lands above the target, which proves the
        # target feasible, so lambda = 0 is never solved
        patcher, calls = spy_solves()
        with patcher:
            res = optimize_at_mean(kind, target)
        assert all(lam > 0 for _, lam in calls)
        assert res.iterations == sum(1 for dim, _ in calls if dim == res.dim)

    def test_infeasible_target_found_after_first_multiplier(self):
        patcher, calls = spy_solves()
        with patcher, pytest.raises(ConvergenceError, match="increase dim"):
            optimize_at_mean(CostKind.EXACT_SQUARE, 1.9, dim=3)
        lams = [lam for _, lam in calls]
        assert lams[0] > 0
        assert lams[1:] == [0.0]

    def test_feasible_undershoot_keeps_lambda_zero_out_of_the_search(self):
        # at dim 4 the unconstrained mean is 1.5 and the first multiplier
        # gives about 1.12 < 1.2: lambda = 0 is solved once, right after it,
        # and the next step is the asymptote-slope step from the first point
        target = 1.2
        patcher, calls = spy_solves()
        with patcher:
            res = optimize_at_mean(CostKind.EXACT_SQUARE, target, dim=4)
        lams = [lam for _, lam in calls]
        lam0 = 2 * k_C() ** 2 / (target + 1) ** 3
        assert lams[:2] == [lam0, 0.0]
        assert lams.count(0.0) == 1
        mean0 = solve_at_multiplier(CostKind.EXACT_SQUARE, 4, lam0)[2]
        assert lams[2] == pytest.approx(lam0 * ((1 + mean0) / (1 + target)) ** 3, rel=1e-12)
        assert res.iterations == len(calls)
        assert abs(res.achieved_mean - target) <= 1e-8 * (1 + target)
        _, ref_cost = reference_multiplier(CostKind.EXACT_SQUARE, target, 4)
        assert res.cost == pytest.approx(ref_cost, abs=1e-8)

    def test_unconstrained_mean_returns_lambda_zero(self):
        # at dim 4 the unconstrained optimum has mean 1.5 exactly
        res = optimize_at_mean(CostKind.EXACT_SQUARE, 1.5, dim=4)
        assert res.lam == 0.0
        assert res.cost == res.eigenvalue
        assert res.iterations == 2

    @pytest.mark.parametrize("kind", list(CostKind))
    def test_negative_seed_rejected(self, kind):
        with pytest.raises(ValidationError, match="seed"):
            optimize_at_mean(kind, 100.0, seed=-1)
        with pytest.raises(ValidationError, match="seed"):
            figure2_curve(kind, [1.0, 100.0], seed=-5)

    def test_step_cap_raises(self):
        # a tolerance below double precision can never be met
        with pytest.raises(ConvergenceError):
            optimize_at_mean(CostKind.EXACT_SQUARE, 1.0, mean_tol=1e-30)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_inputs_rejected(self, bad):
        with pytest.raises(ValidationError):
            optimize_at_mean(CostKind.EXACT_SQUARE, 1.0, mean_tol=bad)
        with pytest.raises(ValidationError):
            optimize_at_mean(CostKind.EXACT_SQUARE, bad)
        with pytest.raises(ValidationError):
            figure2_curve(CostKind.SURROGATE, [1.0], mean_tol=bad)
        with pytest.raises(ValidationError):
            figure2_curve(CostKind.SURROGATE, [1.0, bad])


# Ascending means in (0, 10], at least 1e-3 apart: targets closer than the
# mean tolerance could swap their achieved means.
ASCENDING_MEANS = st.lists(st.integers(1, 10_000), min_size=2, max_size=5, unique=True).map(
    lambda ks: [k / 1000 for k in sorted(ks)]
)


@settings(max_examples=20, deadline=None)
@given(ASCENDING_MEANS)
def test_exact_product_curve_nonincreasing(means):
    patcher, calls = spy_solves()
    with patcher:
        rows = figure2_curve(CostKind.EXACT_SQUARE, means)
    products = [r["product"] for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(products, products[1:]))
    assert all(lam > 0 for _, lam in calls)


class TestFigure2Curve:
    def test_exact_curve_shape(self):
        rows = figure2_curve(CostKind.EXACT_SQUARE, [0.5, 1, 2, 5, 10])
        products = [r["product"] for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(products, products[1:]))
        assert all(p >= 1.376083 - 1e-6 for p in products)

    def test_vacuum_limit(self):
        res = optimize_at_mean(CostKind.EXACT_SQUARE, 0.0)
        assert math.sqrt(res.cost) == pytest.approx(math.pi / math.sqrt(3), abs=1e-12)
        # the product departs from the vacuum value like sqrt(mean)
        row = figure2_curve(CostKind.EXACT_SQUARE, [1e-6])[0]
        assert row["product"] == pytest.approx(math.pi / math.sqrt(3), abs=0.01)

    def test_surrogate_below_exact(self):
        means = [0.5, 2, 10]
        exact = figure2_curve(CostKind.EXACT_SQUARE, means)
        surr = figure2_curve(CostKind.SURROGATE, means)
        for e, s in zip(exact, surr):
            assert s["product"] <= e["product"] + 1e-9

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            figure2_curve(CostKind.EXACT_SQUARE, [2, 1])
        with pytest.raises(ValidationError):
            figure2_curve(CostKind.EXACT_SQUARE, [-1, 2])

    def test_deterministic(self):
        a = figure2_curve(CostKind.SURROGATE, [1, 5], seed=3)
        b = figure2_curve(CostKind.SURROGATE, [1, 5], seed=3)
        assert a == b

    def test_holevo_asymptotics(self):
        # (mean) * sqrt(holevo variance) of the optimal states approaches a
        # limit >= k_C, with the gap shrinking as the mean grows
        from phaselimit import holevo_variance, k_C

        gaps = []
        for mean in (30.0, 300.0):
            res = optimize_at_mean(CostKind.EXACT_SQUARE, mean)
            hv = holevo_variance(canonical_distribution(res.state))
            gaps.append(abs(mean * math.sqrt(hv) - k_C()))
        assert gaps[1] < gaps[0]
