import math
import tracemalloc

import numpy as np
import pytest

from phaselimit import phasedist
from phaselimit import povm as povm_module
from phaselimit import (
    EstimatePOM,
    PhaseDistribution,
    ValidationError,
    average_distribution,
    canonical_distribution,
    conditional_probability,
    heisenberg_bound,
    kphase_construction,
    make_state,
    mean_number,
    mean_square_deviation,
    per_phase_variance,
    wrap_angle,
)
from conftest import (
    covariant_moments,
    covariant_seed,
    dense_elements,
    floor_povm,
    msd_quadrature,
    number_povm,
    random_povm,
    random_state,
)


def moments_by_phase_quadrature(povm, state, n_phi=2048):
    """Third-path oracle: integrate the phase average numerically over a phi
    grid (exact for trigonometric polynomials of degree < n_phi)."""
    d = state.dim
    phis = np.linspace(0, 2 * math.pi, n_phi, endpoint=False)
    m = np.zeros(d, dtype=complex)
    for phi in phis:
        probs = np.array(
            [conditional_probability(povm, state, phi, j) for j in range(povm.n_outcomes)]
        )
        errors = povm.estimates - phi
        for k in range(d):
            m[k] += np.dot(np.exp(1j * k * errors), probs)
    return m / n_phi


class TestWrap:
    def test_convention(self):
        assert wrap_angle(math.pi) == -math.pi
        assert wrap_angle(-math.pi) == -math.pi
        assert wrap_angle(0.5) == pytest.approx(0.5)
        assert wrap_angle(2 * math.pi - 0.25) == pytest.approx(-0.25)


class TestEstimatePOM:
    def test_rejects_incomplete(self):
        with pytest.raises(ValidationError):
            EstimatePOM(np.array([0.0]), np.array([[[0.5, 0], [0, 1.0]]], dtype=complex))

    def test_rejects_non_psd(self):
        half = np.array([[0.5, 0.7], [0.7, 0.5]], dtype=complex)
        with pytest.raises(ValidationError):
            EstimatePOM(np.array([0.0, 1.0]), np.array([half, np.eye(2) - half]))

    def test_rejects_estimate_out_of_range(self):
        with pytest.raises(ValidationError):
            EstimatePOM(np.array([2 * math.pi]), np.eye(2, dtype=complex)[None])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_estimate(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            EstimatePOM(np.array([bad]), np.eye(2, dtype=complex)[None])

    @pytest.mark.parametrize("bad", [None, "x", [1.0], "1.5", " 2 ", True, False])
    def test_from_json_rejects_non_number_estimate(self, bad):
        # an estimate is a JSON number: float() would take "1.5" and true
        data = number_povm(2).to_json()
        data["outcomes"][1]["estimate"] = bad
        with pytest.raises(ValidationError, match=r"^malformed POM data: "):
            EstimatePOM.from_json(data)

    def test_rejects_empty_dense_elements(self):
        with pytest.raises(ValidationError, match=r"^elements must be \(n_outcomes, dim, dim\)$"):
            EstimatePOM([0.0], np.zeros((1, 0, 0)))

    @staticmethod
    def _split_identity(n=20, dim=3):
        return np.zeros(n), np.array([np.eye(dim, dtype=complex) / n] * n)

    def test_non_hermitian_past_first_chunk(self):
        est, els = self._split_identity()
        els[17, 0, 1] += 1e-9
        with pytest.raises(ValidationError, match=r"^element 17 is not Hermitian$"):
            EstimatePOM(est, els)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_past_first_chunk(self, bad, recwarn):
        # refused before the Hermitian test, whose skew of inf - inf would
        # warn and name the element "not Hermitian"
        est, els = self._split_identity()
        els[17, 2, 1] = bad
        with pytest.raises(ValidationError, match=r"^element 17 is not finite$"):
            EstimatePOM(est, els)
        assert not recwarn.list

    def test_skew_past_float_range_is_not_hermitian(self, recwarn):
        est, els = self._split_identity()
        els[17, 0, 1], els[17, 1, 0] = 1e308, -1e308
        with pytest.raises(ValidationError, match=r"^element 17 is not Hermitian$"):
            EstimatePOM(est, els)
        assert not recwarn.list

    @pytest.mark.parametrize("low, rejected", [(-2e-10, True), (-5e-11, False)])
    def test_psd_floor_past_first_chunk(self, low, rejected):
        # element 17 gets least eigenvalue `low` along v; element 18 takes
        # the difference, so the elements still sum to the identity
        est, els = self._split_identity()
        v = np.array([1.0, 1j, 1.0]) / math.sqrt(3)
        shift = (1 / 20 - low) * np.outer(v, v.conj())
        els[17] -= shift
        els[18] += shift
        if rejected:
            with pytest.raises(ValidationError, match=r"^element 17 has eigenvalue -2\.000e-10 < 0$"):
                EstimatePOM(est, els)
        else:
            EstimatePOM(est, els)

    def test_json_roundtrip(self, rng):
        povm = random_povm(rng, 3, 4)
        back = EstimatePOM.from_json(povm.to_json())
        assert np.allclose(back.elements, povm.elements)
        assert np.allclose(back.estimates, povm.estimates)

    @pytest.mark.parametrize(
        "outcomes",
        [
            # ragged rows within one matrix
            [{"estimate": 0.0, "matrix": [[[1, 0], [0, 0]], [[0, 0]]]}],
            # outcomes of different dims
            [
                {"estimate": 0.0, "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]},
                {"estimate": 1.0, "matrix": [[[0.5, 0]]]},
            ],
            # vectors of different dims
            [{"estimate": 0.0, "vector": [[1, 0]]}, {"estimate": 1.0, "vector": [[0, 0], [1, 0]]}],
        ],
        ids=["ragged-matrix", "mixed-dims", "ragged-vector"],
    )
    def test_from_json_rejects_ragged(self, outcomes):
        with pytest.raises(ValidationError, match=r"^malformed POM data: "):
            EstimatePOM.from_json({"outcomes": outcomes})


def _unitary_rows(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return np.linalg.qr(z)[0]


class TestVectorPOM:
    def test_holds_vectors_only(self, rng):
        u = _unitary_rows(rng, 3)
        povm = EstimatePOM(np.array([0.0, 1.0, 2.0]), vectors=u)
        np.testing.assert_array_equal(povm.vectors, u)
        assert povm.elements is None
        assert povm.dim == 3 and povm.n_outcomes == 3
        assert not povm.vectors.flags.writeable
        dense = number_povm(3)
        assert dense.vectors is None and not dense.elements.flags.writeable

    def test_needs_exactly_one_form(self):
        with pytest.raises(ValidationError, match="exactly one"):
            EstimatePOM(np.array([0.0]))
        with pytest.raises(ValidationError, match="exactly one"):
            EstimatePOM(np.array([0.0]), np.eye(1)[None], vectors=np.ones((1, 1)))

    @pytest.mark.parametrize("shape", [(1,), (2, 1), (1, 0), (1, 1, 1)])
    def test_rejects_bad_shape(self, shape):
        with pytest.raises(ValidationError, match="vectors must be"):
            EstimatePOM(np.array([0.0]), vectors=np.ones(shape))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        u = np.eye(2, dtype=complex)
        u[1, 0] = bad
        with pytest.raises(ValidationError, match=r"^vector 1 is not finite$"):
            EstimatePOM(np.array([0.0, 1.0]), vectors=u)

    @pytest.mark.parametrize(
        "u",
        [np.ones((1, 2)) / math.sqrt(2), np.eye(2) * 1.001, np.full((2, 2), 1e200)],
        ids=["too-few-outcomes", "scaled", "overflow"],
    )
    def test_rejects_incomplete(self, u):
        with pytest.raises(ValidationError, match="identity"):
            EstimatePOM(np.zeros(u.shape[0]), vectors=u)

    def test_json_roundtrip_keeps_vectors(self, rng):
        povm = EstimatePOM(np.array([0.5, 1.5, 2.5]), vectors=_unitary_rows(rng, 3))
        data = povm.to_json()
        assert all(list(o) == ["estimate", "vector"] for o in data["outcomes"])
        back = EstimatePOM.from_json(data)
        np.testing.assert_array_equal(back.vectors, povm.vectors)
        np.testing.assert_array_equal(back.estimates, povm.estimates)

    def test_mixed_json_read_as_dense(self):
        data = {
            "outcomes": [
                {"estimate": 0.0, "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]},
                {"estimate": 1.0, "vector": [[0, 0], [0, 1]]},
            ]
        }
        povm = EstimatePOM.from_json(data)
        assert povm.vectors is None
        np.testing.assert_array_equal(povm.elements, [np.diag([1, 0]), np.diag([0, 1])])

    @pytest.mark.parametrize(
        "outcome",
        [{"estimate": 0, "matrix": [[[1, 0]]], "vector": [[1, 0]]}, {"estimate": 0}],
        ids=["both", "neither"],
    )
    def test_outcome_needs_exactly_one_form(self, outcome):
        data = {"outcomes": [{"estimate": 1.0, "vector": [[0, 0]]}, outcome]}
        with pytest.raises(
            ValidationError,
            match=r'^malformed POM data: outcome 1 must have exactly one of "matrix" and "vector"$',
        ):
            EstimatePOM.from_json(data)

    def test_kphase_skips_element_checks(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("element batch checked")

        monkeypatch.setattr(povm_module, "_validate_elements", refuse)
        psi, povm, report = kphase_construction(16)
        assert povm.vectors.shape == (16, 16)
        assert np.allclose(report["success_probabilities"], 1.0, rtol=0, atol=1e-12)
        assert covariant_seed(povm) == pytest.approx(
            np.outer(psi.amplitudes, psi.amplitudes.conj()) * 16 / (2 * math.pi), abs=1e-12
        )


class TestConditionalProbability:
    def test_identity_povm(self, rng):
        povm = EstimatePOM(np.array([0.0]), np.eye(5, dtype=complex)[None])
        s = random_state(rng, 5)
        for phi in (0.0, 1.0, 4.5):
            assert conditional_probability(povm, s, phi, 0) == pytest.approx(1.0)

    def test_number_measurement_phase_independent(self, rng):
        povm = number_povm(6)
        s = random_state(rng, 6)
        ref = [conditional_probability(povm, s, 0.0, j) for j in range(6)]
        for phi in (0.7, 3.1):
            probs = [conditional_probability(povm, s, phi, j) for j in range(6)]
            assert np.allclose(probs, ref, atol=1e-12)

    def test_probabilities_sum_to_one(self, rng):
        povm = random_povm(rng, 4, 6)
        s = random_state(rng, 4)
        total = sum(conditional_probability(povm, s, 2.2, j) for j in range(6))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_index_out_of_range(self, rng):
        povm = number_povm(3)
        with pytest.raises(ValidationError):
            conditional_probability(povm, random_state(rng, 3), 0.0, 5)

    @pytest.mark.parametrize("index", [1.5, "0", None, True])
    def test_index_not_an_integer(self, rng, index):
        with pytest.raises(ValidationError, match="not an integer"):
            conditional_probability(number_povm(3), random_state(rng, 3), 0.0, index)

    def test_numpy_integer_index_accepted(self, rng):
        povm, s = number_povm(3), random_state(rng, 3)
        p = conditional_probability(povm, s, 0.3, np.int64(1))
        assert p == conditional_probability(povm, s, 0.3, 1)

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    def test_non_finite_phi(self, rng, phi):
        with pytest.raises(ValidationError, match="phi must be finite"):
            conditional_probability(number_povm(3), random_state(rng, 3), phi, 0)


class TestAverageDistribution:
    def test_identity_on_vacuum_is_uniform(self):
        povm = EstimatePOM(np.array([0.0]), np.eye(1, dtype=complex)[None])
        dist = average_distribution(povm, make_state([1]))
        assert dist.moments[0] == 1
        assert dist.kmax == 0

    def test_number_measurement_is_uniform(self, rng):
        # number statistics carry no phase information
        povm = number_povm(5, estimates=np.linspace(0, 5, 5))
        s = random_state(rng, 5)
        dist = average_distribution(povm, s)
        assert np.allclose(dist.moments[1:], 0, atol=1e-12)
        oracle = moments_by_phase_quadrature(povm, s)
        assert np.allclose(dist.moments, oracle, atol=1e-10)

    def test_matches_phase_quadrature(self, rng):
        for _ in range(5):
            s = random_state(rng, 4)
            povm = random_povm(rng, 4, 5)
            dist = average_distribution(povm, s)
            oracle = moments_by_phase_quadrature(povm, s)
            assert np.allclose(dist.moments, oracle, atol=1e-10)

    def test_canonical_limit(self, rng):
        # a finely discretized covariant canonical measurement reproduces the
        # canonical phase distribution of the state
        d, n_out = 4, 64
        thetas = 2 * math.pi * np.arange(n_out) / n_out
        n = np.arange(d)
        ones = np.ones(d) / math.sqrt(d)
        elements = []
        for th in thetas:
            psi = np.exp(-1j * n * th) * ones
            elements.append(np.outer(psi, np.conj(psi)) * d / n_out)
        povm = EstimatePOM(thetas, np.array(elements))
        s = random_state(rng, d)
        dist = average_distribution(povm, s)
        assert np.allclose(dist.moments, canonical_distribution(s).moments, atol=1e-12)

    def test_no_density_grid_built(self, rng, monkeypatch):
        # a validated POM bounds the density from below, so no density grid
        # is built to check it, for dense and for vector POMs
        def no_grid(*args, **kwargs):
            raise AssertionError("density grid built")

        monkeypatch.setattr(phasedist, "density_grid", no_grid)
        dense, vector = random_povm(rng, 6, 4), kphase_construction(8)[1]
        assert dense.vectors is None and vector.vectors is not None
        for povm in (dense, vector):
            dist = average_distribution(povm, random_state(rng, povm.dim))
            assert dist.kmax == povm.dim - 1

    def test_psd_floor_pom_accepted(self):
        # 128 outcomes at least eigenvalue -0.9e-10 pass validation; their
        # average density on the uniform state reaches -128*0.9e-10/2pi,
        # below DENSITY_FLOOR, which the density check refuses for the same
        # moments given from outside the package
        povm = floor_povm(128, 0.9e-10)
        dist = average_distribution(povm, make_state(np.ones(128)))
        assert phasedist.density_grid(dist, 4096).min() == pytest.approx(
            -128 * 0.9e-10 / (2 * math.pi), rel=1e-3
        )
        with pytest.raises(ValidationError, match="dips to"):
            PhaseDistribution(dist.moments)


class TestCovariantSeed:
    def test_completeness_diagonal(self, rng):
        seed = covariant_seed(random_povm(rng, 5, 7))
        assert np.allclose(2 * math.pi * np.diagonal(seed), 1.0, atol=1e-10)

    def test_fixed_point_single_element(self):
        povm = EstimatePOM(np.array([0.0]), np.eye(3, dtype=complex)[None])
        seed = covariant_seed(povm)
        assert np.allclose(seed, np.eye(3) / (2 * math.pi), atol=1e-14)

    def test_kphase_seed_is_scaled_projector(self):
        K = 4
        psi, povm, _ = kphase_construction(K)
        seed = covariant_seed(povm)
        expected = np.outer(psi.amplitudes, np.conj(psi.amplitudes)) * K / (2 * math.pi)
        assert np.allclose(seed, expected, atol=1e-12)

    def test_two_path_moment_equality(self, rng):
        for _ in range(5):
            s = random_state(rng, 4)
            povm = random_povm(rng, 4, 6)
            direct = average_distribution(povm, s)
            via_seed = covariant_moments(covariant_seed(povm), s)
            assert np.allclose(direct.moments, via_seed, atol=1e-12)


class TestPerPhaseVariance:
    def test_kphase_zero_error_at_special_phases(self):
        psi, povm, _ = kphase_construction(4)
        for k in range(4):
            assert per_phase_variance(povm, psi, 2 * math.pi * k / 4) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_deterministic_zero_estimate(self, rng):
        povm = number_povm(4)  # all estimates 0
        s = random_state(rng, 4)
        assert per_phase_variance(povm, s, math.pi / 2) == pytest.approx(
            (math.pi / 2) ** 2, abs=1e-10
        )

    def test_phase_average_identity(self, rng):
        # averaging Var_phi over phi equals the msd of the average distribution
        s = random_state(rng, 4)
        povm = random_povm(rng, 4, 5)
        phis = np.linspace(0, 2 * math.pi, 4096, endpoint=False)
        avg = np.mean(per_phase_variance(povm, s, phis))
        msd = mean_square_deviation(average_distribution(povm, s))
        assert avg == pytest.approx(msd, abs=1e-6)

    @pytest.mark.parametrize("phi", [math.nan, math.inf, np.array([0.0, -math.inf, 1.0])])
    def test_non_finite_phi(self, rng, phi):
        povm = random_povm(rng, 4, 6)
        with pytest.raises(ValidationError, match="phi must be finite"):
            per_phase_variance(povm, random_state(rng, 4), phi)


class TestBatchedSweep:
    @pytest.mark.parametrize("dim", range(1, 9))
    def test_matches_scalar_and_direct(self, rng, dim):
        s = random_state(rng, dim)
        povm = random_povm(rng, dim, int(rng.integers(1, 7)))
        phis = np.concatenate([[0.0, math.pi], rng.uniform(-7, 14, 7)])
        batched = per_phase_variance(povm, s, phis)
        scalar = [per_phase_variance(povm, s, phi) for phi in phis]
        direct = [
            sum(
                float(wrap_angle(e - phi)) ** 2 * conditional_probability(povm, s, phi, j)
                for j, e in enumerate(povm.estimates)
            )
            for phi in phis
        ]
        assert batched.shape == phis.shape
        assert all(type(v) is float for v in scalar)
        np.testing.assert_allclose(batched, scalar, rtol=0, atol=1e-12)
        np.testing.assert_allclose(batched, direct, rtol=0, atol=1e-12)
        grid = per_phase_variance(povm, s, phis[:8].reshape(2, 4))
        np.testing.assert_allclose(grid.ravel(), batched[:8], rtol=0, atol=1e-15)

    def test_negative_probability_clamped(self):
        # outcome 0 has eigenvalue -5e-11 (inside the PSD floor) on |0>
        els = np.array([np.diag([-5e-11, 1.0]), np.diag([1 + 5e-11, 0.0])], dtype=complex)
        povm = EstimatePOM(np.array([1.0, math.pi]), els)
        s = make_state([1, 0])
        expected = math.pi**2 * (1 + 5e-11)
        assert per_phase_variance(povm, s, 0.0) == pytest.approx(expected, rel=0, abs=1e-14)
        assert per_phase_variance(povm, s, np.array([0.0, 2.0]))[1] == pytest.approx(
            (math.pi - 2.0) ** 2 * (1 + 5e-11), rel=0, abs=1e-14
        )

    def test_kphase_sweep_precision(self):
        # p(j|phi) is linear in e^{ik phi}, so the rounding of k*phi (k*phi
        # up to 800 at K = 128) would alone leave variances near 2e-13
        psi, povm, _ = kphase_construction(128)
        variances = per_phase_variance(povm, psi, povm.estimates)
        assert 0.0 <= variances.min() and variances.max() <= 1e-13

    def test_imaginary_probability_rejected(self):
        # an anti-Hermitian part inside the Hermitian tolerance still makes
        # p(j|phi) complex beyond 1e-12 on this state
        skew = np.array([[0, 4e-11], [-4e-11, 0]], dtype=complex)
        half = np.eye(2, dtype=complex) / 2
        povm = EstimatePOM(np.array([0.0, 1.0]), np.array([half + skew, half - skew]))
        s = make_state([1, 1j])
        with pytest.raises(ValidationError, match="imaginary part"):
            per_phase_variance(povm, s, np.array([0.0, 1.0]))


class TestKPhaseConstruction:
    def test_k2(self):
        psi, povm, report = kphase_construction(2)
        assert np.allclose(psi.amplitudes, [1 / math.sqrt(2)] * 2)
        assert report["gram_identity_error"] < 1e-12
        assert report["mean_number"] == 0.5
        assert np.allclose(report["success_probabilities"], 1.0, atol=1e-12)

    def test_k8_orthogonality_and_completeness(self):
        _, povm, report = kphase_construction(8)
        assert report["gram_identity_error"] < 1e-12
        assert np.allclose(dense_elements(povm).sum(axis=0), np.eye(8), atol=1e-12)

    def test_k1_trivial(self):
        psi, _, report = kphase_construction(1)
        assert report["mean_number"] == 0.0
        assert report["success_probabilities"] == [1.0]

    def test_invalid_k(self):
        with pytest.raises(ValidationError):
            kphase_construction(0)

    @pytest.mark.parametrize("K", [4.0, True])
    def test_non_integer_k_refused(self, K):
        with pytest.raises(ValidationError, match="^K must be an integer >= 1$"):
            kphase_construction(K)

    def test_numpy_integer_k_accepted(self):
        assert kphase_construction(np.int64(4))[2] == kphase_construction(4)[2]

    @pytest.mark.parametrize("K", [1, 2, 7, 64])
    def test_report_variances_match_public_sweep(self, K):
        psi, povm, report = kphase_construction(K)
        phis = 2 * math.pi * np.arange(K) / K
        # both are 0 in exact arithmetic; the report reads |gram|^2, the sweep
        # the Fourier coefficients, so they agree to rounding
        np.testing.assert_allclose(
            report["per_phase_variance"], per_phase_variance(povm, psi, phis), rtol=0, atol=1e-14
        )
        assert list(report) == [
            "K", "mean_number", "gram_identity_error",
            "success_probabilities", "per_phase_variance",
        ]

    def test_k407_builds(self):
        # 407^3 complex elements would take just over 2^30 bytes; the vector
        # POM holds 407^2 entries
        _, povm, report = kphase_construction(407)
        assert povm.vectors.shape == (407, 407)
        np.testing.assert_allclose(report["success_probabilities"], 1.0, rtol=0, atol=1e-12)

    def test_report_cap_refused_before_allocation(self, monkeypatch):
        first = math.isqrt(povm_module.MAX_KPHASE_BYTES // povm_module.KPHASE_BYTES_PER_ENTRY) + 1
        assert first == 4034
        tracemalloc.start()
        try:
            # the need is printed in bytes, so it visibly exceeds the limit
            message = r"^K = 4034 needs 1074028296 bytes .*\(limit 1073741824 bytes = 1 GiB\)$"
            with pytest.raises(ValidationError, match=message):
                kphase_construction(first)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

        # K = 4033 passes the cap and goes on to build the state
        def built(*args):
            raise RuntimeError("past the cap")

        monkeypatch.setattr(povm_module, "make_state", built)
        with pytest.raises(RuntimeError, match="past the cap"):
            kphase_construction(first - 1)

    def test_average_error_still_respects_bound(self):
        # zero error holds only at the K special phases; averaged over all
        # phases the universal bound still applies
        psi, povm, _ = kphase_construction(8)
        dist = average_distribution(povm, psi)
        delta = math.sqrt(mean_square_deviation(dist))
        assert delta > heisenberg_bound(mean_number(psi))


class TestUniversalBound:
    def test_average_msd_respects_heisenberg(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 8))
            s = random_state(rng, d)
            povm = random_povm(rng, d, int(rng.integers(2, 7)))
            dist = average_distribution(povm, s)
            delta = math.sqrt(mean_square_deviation(dist))
            assert delta > heisenberg_bound(mean_number(s))

    def test_quadrature_cross_check(self, rng):
        s = random_state(rng, 5)
        povm = random_povm(rng, 5, 4)
        dist = average_distribution(povm, s)
        assert mean_square_deviation(dist) == pytest.approx(
            msd_quadrature(dist), abs=1e-10
        )
