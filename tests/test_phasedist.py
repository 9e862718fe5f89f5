import math

import numpy as np
import pytest

from phaselimit import phasedist
from phaselimit import (
    ConvergenceError,
    PhaseDistribution,
    ValidationError,
    average_distribution,
    canonical_distribution,
    differential_entropy,
    holevo_variance,
    make_state,
    mean_square_deviation,
    number_entropy,
)
from conftest import density_at, msd_quadrature, random_povm, random_state, surrogate_cost

# High-precision quadrature oracle values for the density (1+cos t)/(2 pi)
# (state (|0>+|1>)/sqrt(2)), frozen from a 40-digit mpmath run:
#   H = ln(2 pi) - 1 + ln 2
H_HALF_HALF = 1.5310242469692908
L_HALF_HALF = 4.6229093991636869

UNIFORM = PhaseDistribution(np.array([1.0 + 0j]))
HALF_HALF = canonical_distribution(make_state([1, 1]))


def canonical_moments_by_loop(state):
    """Reference: m_k = sum_n c_n conj(c_{n+k}) as one dot product per lag."""
    c = state.amplitudes
    d = state.dim
    m = np.empty(d, dtype=complex)
    m[0] = 1.0
    for k in range(1, d):
        m[k] = np.dot(c[: d - k], np.conj(c[k:]))
    return m


class TestCanonicalDistribution:
    def test_fft_matches_loop(self, rng):
        for d in range(1, 601):
            state = random_state(rng, d, complex_amps=bool(d % 2))
            moments = canonical_distribution(state).moments
            assert moments[0] == 1.0
            np.testing.assert_allclose(
                moments, canonical_moments_by_loop(state), rtol=0, atol=1e-14
            )

    def test_fock_state_is_uniform(self):
        amps = np.zeros(6)
        amps[3] = 1
        dist = canonical_distribution(make_state(amps))
        assert dist.moments[0] == 1
        assert np.allclose(dist.moments[1:], 0)

    def test_half_half_first_moment(self):
        assert HALF_HALF.moments[1] == pytest.approx(0.5, abs=1e-15)

    def test_product_of_amplitudes(self):
        dist = canonical_distribution(make_state([0.6, 0.8]))
        assert dist.moments[1] == pytest.approx(0.48, abs=1e-15)


    @pytest.mark.parametrize("dim", [1, 2, 7, 64, 300])
    def test_moments_bitwise_without_density_check(self, rng, monkeypatch, dim):
        # a canonical density is a squared modulus, so no density grid is
        # built to check it; the moments are the one-FFT autocorrelation
        state = random_state(rng, dim)
        spectrum = np.fft.fft(state.amplitudes, 1 << (2 * dim - 1).bit_length())
        expected = np.conj(np.fft.ifft(spectrum.real**2 + spectrum.imag**2)[:dim])
        expected[0] = 1.0

        def no_grid(*args, **kwargs):
            raise AssertionError("density grid built")

        monkeypatch.setattr(phasedist, "density_grid", no_grid)
        dist = canonical_distribution(state)
        assert dist.moments.tobytes() == expected.tobytes()
        assert not dist.moments.flags.writeable


class TestDensityAt:
    """The pointwise density oracle (conftest) that checks `density_grid`."""

    def test_uniform(self):
        for theta in (-3.0, 0.0, 1.5):
            assert density_at(UNIFORM, theta) == pytest.approx(1 / (2 * math.pi))

    def test_half_half_peak_and_zero(self):
        assert density_at(HALF_HALF, 0.0) == pytest.approx(1 / math.pi, abs=1e-12)
        assert density_at(HALF_HALF, -math.pi) == pytest.approx(0.0, abs=1e-12)

    def test_integrates_to_one(self, rng):
        dist = canonical_distribution(random_state(rng, 8))
        theta = np.linspace(-math.pi, math.pi, 4096, endpoint=False)
        total = sum(density_at(dist, t) for t in theta) * 2 * math.pi / 4096
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta(self, theta):
        with pytest.raises(ValidationError, match="theta must be finite"):
            density_at(HALF_HALF, theta)


def complex_fft_density_grid(dist, points, midpoint=False):
    """Reference: the density as the real part of one complex FFT of the
    two-sided (mirrored, conjugated) moment spectrum."""
    m = np.asarray(dist.moments)
    offset = -math.pi + (math.pi / points if midpoint else 0.0)
    k = np.arange(m.size)
    spec = np.zeros(points, dtype=complex)
    twisted = m * np.exp(-1j * k * offset)
    spec[: m.size] = twisted
    spec[points - m.size + 1 :] += np.conj(twisted[1:][::-1])
    return np.fft.fft(spec).real / (2 * math.pi)


def complex_fft_entropy_on_grid(dist, points):
    """Reference midpoint-rule entropy on the complex-FFT density."""
    p = np.clip(complex_fft_density_grid(dist, points, midpoint=True), 0.0, None)
    mask = p > 0
    return float(-np.sum(p[mask] * np.log(p[mask])) * (2 * math.pi / points))


class TestDensityGrid:
    def random_distributions(self, rng):
        for d in (1, 2, 3, 8, 17, 40):
            yield canonical_distribution(random_state(rng, d))
        for d, outcomes in ((1, 2), (2, 3), (5, 4), (12, 6)):
            yield average_distribution(random_povm(rng, d, outcomes), random_state(rng, d))

    @pytest.mark.parametrize("midpoint", [False, True])
    def test_matches_density_at(self, rng, midpoint):
        for dist in self.random_distributions(rng):
            kmax = dist.kmax
            # the smallest grid (odd; 1 point at dim 1), the smallest even
            # grid, and larger ones
            for points in (2 * kmax + 1, 2 * kmax + 2, 2 * kmax + 37, 128):
                grid = phasedist.density_grid(dist, points, midpoint=midpoint)
                assert grid.dtype == np.float64
                assert grid.shape == (points,)
                step = 2 * math.pi / points
                theta = -math.pi + step * (np.arange(points) + (0.5 if midpoint else 0.0))
                expected = np.array([density_at(dist, t) for t in theta])
                np.testing.assert_allclose(grid, expected, rtol=0, atol=1e-13)

    def test_too_few_points_rejected(self, rng):
        dist = canonical_distribution(random_state(rng, 5))
        with pytest.raises(ValidationError, match="more points than twice kmax"):
            phasedist.density_grid(dist, 8)

    def test_non_integer_points_rejected(self, rng):
        dist = canonical_distribution(random_state(rng, 5))
        with pytest.raises(ValidationError, match="^grid must be an integer count"):
            phasedist.density_grid(dist, 64.5)
        grid = phasedist.density_grid(dist, np.int64(64))
        assert np.array_equal(grid, phasedist.density_grid(dist, 64))

    def test_entropy_matches_complex_fft_reference(self):
        # 64 seeded states with dims log-spread over 2..512: the entropy on
        # both grids agrees with the complex-FFT reference to rounding, and
        # the same states fail the refinement test
        rng = np.random.default_rng(14)
        dims = np.geomspace(2, 512, 64).round().astype(int)
        grid = phasedist.DEFAULT_ENTROPY_GRID
        failures = 0
        for d in dims:
            dist = canonical_distribution(random_state(rng, int(d)))
            coarse = complex_fft_entropy_on_grid(dist, grid)
            fine = complex_fft_entropy_on_grid(dist, 2 * grid)
            assert phasedist._entropy_on_grid(dist, grid) == pytest.approx(coarse, abs=1e-14)
            assert phasedist._entropy_on_grid(dist, 2 * grid) == pytest.approx(fine, abs=1e-14)
            if abs(fine - coarse) >= phasedist.ENTROPY_REFINE_TOL:
                failures += 1
                with pytest.raises(ConvergenceError):
                    differential_entropy(dist)
            else:
                assert differential_entropy(dist) == pytest.approx(coarse, abs=1e-14)
        assert 0 < failures < 64  # both outcomes are exercised


class TestMeanSquareDeviation:
    def test_uniform(self):
        assert mean_square_deviation(UNIFORM) == pytest.approx(math.pi**2 / 3, abs=1e-14)

    def test_half_half(self):
        assert mean_square_deviation(HALF_HALF) == pytest.approx(
            math.pi**2 / 3 - 2, abs=1e-14
        )

    def test_degenerate_moments_rejected(self):
        # m_1 = 1 with m_0 = 1 is not a nonnegative density
        with pytest.raises(ValidationError):
            PhaseDistribution(np.array([1.0, 1.0]))

    def test_matches_quadrature_on_random_states(self, rng):
        for _ in range(30):
            dist = canonical_distribution(random_state(rng, int(rng.integers(2, 65))))
            assert mean_square_deviation(dist) == pytest.approx(
                msd_quadrature(dist), abs=1e-8
            )


class TestHolevoVariance:
    def test_half_half(self):
        assert holevo_variance(HALF_HALF) == pytest.approx(3.0, abs=1e-12)

    def test_fock_unbounded(self):
        amps = np.zeros(4)
        amps[2] = 1
        assert holevo_variance(canonical_distribution(make_state(amps))) == math.inf

    def test_concentrated_limit(self):
        # moments of a sharply peaked admissible density: m_k = ((d-k)/d) at
        # uniform amplitudes; as d grows m_1 -> 1 and the variance -> 0
        d = 4096
        dist = canonical_distribution(make_state(np.ones(d)))
        assert holevo_variance(dist) < 1e-3


class TestDifferentialEntropy:
    def test_uniform(self):
        assert differential_entropy(UNIFORM) == pytest.approx(
            math.log(2 * math.pi), abs=1e-12
        )

    def test_half_half_frozen_oracle(self):
        assert differential_entropy(HALF_HALF) == pytest.approx(H_HALF_HALF, abs=1e-8)

    def test_uniform_is_maximal(self, rng):
        for _ in range(25):
            dist = canonical_distribution(random_state(rng, int(rng.integers(2, 33))))
            assert differential_entropy(dist) <= math.log(2 * math.pi) + 1e-9

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            differential_entropy(UNIFORM, 100)
        with pytest.raises(ValidationError):
            differential_entropy(UNIFORM, 32)
        with pytest.raises(ValidationError, match="at most"):
            differential_entropy(UNIFORM, 2**50)

    @pytest.mark.parametrize("grid", [64.0, True])
    def test_non_integer_grid_rejected(self, grid):
        with pytest.raises(ValidationError, match="^grid_points must be a power of two >= 64$"):
            differential_entropy(HALF_HALF, grid)

    def test_numpy_integer_grid_accepted(self):
        h = differential_entropy(HALF_HALF, np.int64(8192))
        assert h == differential_entropy(HALF_HALF, 8192)

    @pytest.mark.parametrize("top, grid", [(4095, 8192), (4097, 16384), (5000, 16384)])
    def test_default_grid_exceeds_twice_kmax(self, monkeypatch, top, grid):
        # amplitudes 0.6 and 0.8 at numbers 0 and top: the density is
        # (1 + 0.96 cos(top*theta))/2pi, whose entropy is the dim-2 state's,
        # on the smallest power-of-two grid >= DEFAULT_ENTROPY_GRID above
        # 2*kmax (the tops have few factors of 2, so no low harmonic of
        # p ln p aliases onto the grid); a given grid below it is refused
        amps = np.zeros(top + 1)
        amps[[0, top]] = 0.6, 0.8
        dist = canonical_distribution(make_state(amps))
        expected = differential_entropy(canonical_distribution(make_state([0.6, 0.8])))
        grids = []
        real = phasedist._entropy_on_grid
        monkeypatch.setattr(
            phasedist, "_entropy_on_grid", lambda d, points: grids.append(points) or real(d, points)
        )
        assert differential_entropy(dist) == pytest.approx(expected, abs=1e-12)
        assert grids == [grid, 2 * grid]
        if grid > phasedist.DEFAULT_ENTROPY_GRID:
            with pytest.raises(ValidationError, match="twice kmax"):
                differential_entropy(dist, phasedist.DEFAULT_ENTROPY_GRID)


class TestEnsembleLength:
    """The ensemble length exp(H(Theta)) that `simulate` reports."""

    def test_uniform(self):
        assert math.exp(differential_entropy(UNIFORM)) == pytest.approx(2 * math.pi, abs=1e-10)

    def test_half_half(self):
        assert math.exp(differential_entropy(HALF_HALF)) == pytest.approx(L_HALF_HALF, abs=1e-7)

    def test_monotone_decrease_toward_concentration(self):
        # zero-touching oscillatory densities need a finer entropy grid
        lengths = [
            math.exp(differential_entropy(canonical_distribution(make_state(np.ones(d))), 65536))
            for d in (1, 2, 4, 8, 16, 32)
        ]
        assert all(b < a for a, b in zip(lengths, lengths[1:]))
        assert lengths[-1] < 1.0  # heading to 0 as concentration sharpens


class TestSurrogateCost:
    """The surrogate-cost oracle (conftest) that checks the surrogate band."""

    def test_uniform(self):
        assert surrogate_cost(UNIFORM) == pytest.approx(2.5)

    def test_half_half(self):
        assert surrogate_cost(HALF_HALF) == pytest.approx(7 / 6, abs=1e-14)

    def test_lower_bounds_exact_cost(self, rng):
        for _ in range(50):
            dist = canonical_distribution(random_state(rng, int(rng.integers(1, 40))))
            assert surrogate_cost(dist) <= mean_square_deviation(dist) + 1e-10

    def test_pointwise_below_theta_squared(self):
        theta = np.linspace(-math.pi, math.pi, 100001)
        f = 2.5 - (8 / 3) * np.cos(theta) + (1 / 6) * np.cos(2 * theta)
        assert np.all(f <= theta**2 + 1e-12)
        assert f[len(theta) // 2] == pytest.approx(0.0, abs=1e-14)


class TestPaperInequalities:
    def test_entropic_uncertainty_relation(self, rng):
        for _ in range(50):
            s = random_state(rng, int(rng.integers(2, 33)))
            h_sum = differential_entropy(canonical_distribution(s)) + number_entropy(s)
            assert h_sum >= math.log(2 * math.pi) - 1e-8

    def test_entropic_equality_for_fock(self):
        amps = np.zeros(7)
        amps[4] = 1
        s = make_state(amps)
        h_sum = differential_entropy(canonical_distribution(s)) + number_entropy(s)
        assert h_sum == pytest.approx(math.log(2 * math.pi), abs=1e-8)

    def test_gaussian_entropy_bound(self, rng):
        for _ in range(50):
            dist = canonical_distribution(random_state(rng, int(rng.integers(2, 33))))
            msd = mean_square_deviation(dist)
            assert differential_entropy(dist) <= 0.5 * math.log(
                2 * math.pi * math.e * msd
            ) + 1e-9

    def test_holevo_chain(self, rng):
        for _ in range(50):
            dist = canonical_distribution(random_state(rng, int(rng.integers(2, 33))))
            m1 = complex(dist.moments[1])
            assert abs(m1) ** 2 >= m1.real**2 - 1e-15
            assert m1.real >= 1 - mean_square_deviation(dist) / 2 - 1e-10


class TestSerialization:
    def test_json_roundtrip(self, rng):
        dist = canonical_distribution(random_state(rng, 7))
        data = dist.to_json()
        assert data["kmax"] == 6
        back = PhaseDistribution.from_json(data)
        assert np.allclose(back.moments, dist.moments)

    def test_moment_magnitude_rejected(self):
        with pytest.raises(ValidationError):
            PhaseDistribution(np.array([1.0, 1.5]))
        with pytest.raises(ValidationError):
            PhaseDistribution(np.array([0.99, 0.1]))

    @pytest.mark.parametrize(
        "bad", [math.nan, complex(0.0, math.nan), math.inf, complex(-math.inf, 0.0)]
    )
    def test_non_finite_moment_rejected(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            PhaseDistribution(np.array([1.0, 0.2, bad]))
        with pytest.raises(ValidationError, match="finite"):
            PhaseDistribution.from_json({"moments": [[1, 0], [bad.real, bad.imag]]})

    def test_huge_integer_moment_rejected(self):
        # an integer too large for a float is malformed data, not an OverflowError
        with pytest.raises(ValidationError, match="malformed distribution data"):
            PhaseDistribution.from_json({"moments": [[1, 0], [10**400, 0]]})

    def test_negative_density_rejected(self):
        # (1 + 1.8 cos t)/2pi dips to -0.8/2pi
        with pytest.raises(ValidationError, match="dips to"):
            PhaseDistribution(np.array([1.0, 0.9]))
        with pytest.raises(ValidationError, match="dips to"):
            PhaseDistribution.from_json({"moments": [[1, 0], [0.9, 0]]})
