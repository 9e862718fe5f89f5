import math

import numpy as np
import pytest

from phaselimit import (
    GeneratorSpec,
    NumberDistribution,
    ProbeState,
    ValidationError,
    generator_eigenvalue,
    make_state,
    mean_number,
    number_distribution,
    number_entropy,
    reduce_to_single_mode,
    thermal_entropy,
)
from conftest import random_state


class TestMakeState:
    def test_vacuum(self):
        s = make_state([1])
        assert s.dim == 1
        assert s.amplitudes[0] == 1

    def test_equal_superposition(self):
        s = make_state([1, 1])
        assert np.allclose(s.amplitudes, [1 / math.sqrt(2)] * 2)

    def test_three_four_five(self):
        s = make_state([3, 4j])
        assert np.allclose(s.amplitudes, [0.6, 0.8j])

    def test_rejects_empty_zero_and_nonfinite(self):
        with pytest.raises(ValidationError):
            make_state([])
        with pytest.raises(ValidationError):
            make_state([0, 0])
        with pytest.raises(ValidationError):
            make_state([1, np.nan])

    def test_huge_and_tiny_entries(self):
        # the norm of [1e308, 1e308] overflows unless the entries are rescaled
        for amps in ([1e308, 1e308], [1e-320, 1e-320j]):
            s = make_state(amps)
            assert np.allclose(np.abs(s.amplitudes), [1 / math.sqrt(2)] * 2, rtol=0, atol=1e-15)

    def test_probe_state_requires_normalization(self):
        with pytest.raises(ValidationError):
            ProbeState(np.array([1.0, 1.0]))

    def test_json_roundtrip(self, rng):
        s = random_state(rng, 9)
        assert np.allclose(ProbeState.from_json(s.to_json()).amplitudes, s.amplitudes)


class TestNumberDistribution:
    def test_equal_superposition(self):
        p = number_distribution(make_state([1, 1]))
        assert np.allclose(p.probabilities, [0.5, 0.5])

    def test_vacuum(self):
        assert np.allclose(number_distribution(make_state([1])).probabilities, [1.0])

    def test_complex_amplitudes(self):
        p = number_distribution(make_state([3, 4j]))
        assert np.allclose(p.probabilities, [0.36, 0.64])

    def test_invariants_enforced(self):
        with pytest.raises(ValidationError):
            NumberDistribution(np.array([0.5, 0.4]))
        with pytest.raises(ValidationError):
            NumberDistribution(np.array([1.2, -0.2]))


class TestMeanNumber:
    def test_vacuum(self):
        assert mean_number(make_state([1])) == 0.0

    def test_half(self):
        assert mean_number(make_state([1, 1])) == pytest.approx(0.5)

    @pytest.mark.parametrize("K", [1, 2, 4, 16])
    def test_uniform_superposition(self, K):
        assert mean_number(make_state(np.ones(K))) == pytest.approx((K - 1) / 2)


class TestEntropies:
    def test_vacuum_entropy_zero(self):
        assert number_entropy(make_state([1])) == 0.0

    def test_two_level(self):
        assert number_entropy(make_state([1, 1])) == pytest.approx(math.log(2), abs=1e-12)

    def test_uniform_four(self):
        assert number_entropy(make_state([1, 1, 1, 1])) == pytest.approx(
            math.log(4), abs=1e-12
        )

    def test_thermal_values(self):
        assert thermal_entropy(0) == 0.0
        assert thermal_entropy(1) == pytest.approx(2 * math.log(2), abs=1e-12)
        with pytest.raises(ValidationError):
            thermal_entropy(-0.5)

    def test_thermal_majorizes_random_states(self, rng):
        # thermal distribution maximizes entropy at fixed mean
        for _ in range(200):
            s = random_state(rng, int(rng.integers(2, 40)))
            assert number_entropy(s) <= thermal_entropy(mean_number(s)) + 1e-10

    def test_thermal_at_mean_ten_beats_all(self, rng):
        h10 = thermal_entropy(10)
        for _ in range(50):
            raw = rng.uniform(0, 1, 40)
            s = make_state(np.sqrt(raw))
            if mean_number(s) <= 10:
                assert number_entropy(s) < h10 + 1e-10


class TestPhaseInvariance:
    def test_global_phase_irrelevant(self, rng):
        s = random_state(rng, 12)
        rotated = ProbeState(s.amplitudes * np.exp(1j * 0.7))
        assert np.allclose(
            number_distribution(s).probabilities,
            number_distribution(rotated).probabilities,
        )
        assert mean_number(s) == pytest.approx(mean_number(rotated), abs=1e-12)
        assert number_entropy(s) == pytest.approx(number_entropy(rotated), abs=1e-12)


class TestGeneratorEigenvalue:
    def test_linear_two_mode(self):
        spec = GeneratorSpec(passes=(1, 1), exponent=1, cutoffs=(5, 5))
        assert generator_eigenvalue(spec, (2, 3)) == 5

    def test_double_pass(self):
        spec = GeneratorSpec(passes=(2,), exponent=1, cutoffs=(5,))
        assert generator_eigenvalue(spec, (3,)) == 6

    def test_kerr_nonlinearity(self):
        spec = GeneratorSpec(passes=(1,), exponent=2, cutoffs=(5,))
        assert generator_eigenvalue(spec, (3,)) == 9

    def test_rejections(self):
        spec = GeneratorSpec(passes=(1, 1), exponent=1, cutoffs=(2, 2))
        with pytest.raises(ValidationError):
            generator_eigenvalue(spec, (3, 0))
        with pytest.raises(ValidationError):
            generator_eigenvalue(spec, (1,))


class TestReduceToSingleMode:
    def test_identity_spec_takes_modulus(self, rng):
        s = random_state(rng, 4)
        spec = GeneratorSpec(passes=(1,), exponent=1, cutoffs=(3,))
        reduced = reduce_to_single_mode(spec, s.amplitudes)
        assert np.allclose(reduced.amplitudes, np.abs(s.amplitudes), atol=1e-12)

    def test_degenerate_merge(self):
        # (|0,1> + |1,0>)/sqrt(2): both branches carry N = 1
        spec = GeneratorSpec(passes=(1, 1), exponent=1, cutoffs=(1, 1))
        amps = np.zeros(4, dtype=complex)
        amps[1] = amps[2] = 1 / math.sqrt(2)  # |0,1>, |1,0> in C-order
        reduced = reduce_to_single_mode(spec, amps)
        assert np.allclose(np.abs(reduced.amplitudes) ** 2, [0, 1])

    def test_spectrum_gap(self):
        # (|0> + |2>)/sqrt(2) under N = N_1^2 gives weight at 0 and 4
        spec = GeneratorSpec(passes=(1,), exponent=2, cutoffs=(2,))
        amps = np.array([1, 0, 1]) / math.sqrt(2)
        reduced = reduce_to_single_mode(spec, amps)
        assert np.allclose(np.abs(reduced.amplitudes) ** 2, [0.5, 0, 0, 0, 0.5])

    def test_mean_preserved(self, rng):
        spec = GeneratorSpec(passes=(2, 1), exponent=2, cutoffs=(2, 3))
        amps = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        amps /= np.linalg.norm(amps)
        reduced = reduce_to_single_mode(spec, amps)
        expected = 0.0
        idx = 0
        for n1 in range(3):
            for n2 in range(4):
                expected += abs(amps[idx]) ** 2 * (2 * n1**2 + n2**2)
                idx += 1
        assert mean_number(reduced) == pytest.approx(expected, abs=1e-12)

    def test_rejects_unnormalized_and_mismatched(self):
        spec = GeneratorSpec(passes=(1,), exponent=1, cutoffs=(2,))
        with pytest.raises(ValidationError):
            reduce_to_single_mode(spec, np.array([1.0, 1.0, 0.0]))
        with pytest.raises(ValidationError):
            reduce_to_single_mode(spec, np.array([1.0, 0.0]))
