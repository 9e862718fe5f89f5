import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phaselimit import (
    GeneratorSpec,
    ProbeState,
    ValidationError,
    generator_eigenvalue,
    make_state,
    mean_number,
    number_entropy,
    reduce_to_single_mode,
    thermal_entropy,
)
from conftest import random_state

# (passes, exponent, cutoffs, seed) of a multimode generator and state
SPECS = st.integers(1, 3).flatmap(
    lambda modes: st.tuples(
        st.lists(st.integers(1, 3), min_size=modes, max_size=modes),
        st.integers(1, 3),
        st.lists(st.integers(1, 4), min_size=modes, max_size=modes),
        st.integers(0, 2**32 - 1),
    )
)


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
    """p_n = |c_n|^2, which mean_number and number_entropy read."""

    def test_equal_superposition(self):
        assert np.allclose(np.abs(make_state([1, 1]).amplitudes) ** 2, [0.5, 0.5])

    def test_vacuum(self):
        assert np.allclose(np.abs(make_state([1]).amplitudes) ** 2, [1.0])

    def test_complex_amplitudes(self):
        s = make_state([3, 4j])
        assert np.allclose(np.abs(s.amplitudes) ** 2, [0.36, 0.64])
        assert mean_number(s) == pytest.approx(0.64, abs=1e-15)
        assert number_entropy(s) == pytest.approx(
            -(0.36 * math.log(0.36) + 0.64 * math.log(0.64)), abs=1e-15
        )


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

    @pytest.mark.parametrize("nbar", [math.nan, math.inf])
    def test_thermal_rejects_non_finite(self, nbar):
        with pytest.raises(ValidationError, match="finite"):
            thermal_entropy(nbar)

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
        assert np.allclose(np.abs(s.amplitudes) ** 2, np.abs(rotated.amplitudes) ** 2)
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


class TestGeneratorIntegers:
    """Pass counts, cutoffs, the exponent and occupations are an int or a
    numpy integer: a float is refused, not truncated, and a bool is refused,
    not taken as 1."""

    @pytest.mark.parametrize(
        "passes, exponent, cutoffs",
        [
            ((1,), 1.5, (3,)),
            ((2.7,), 1, (3,)),
            ((1,), 1, (2.9,)),
            ((1,), True, (3,)),
            ((True,), 1, (3,)),
            ((1,), 1, (True,)),
        ],
        ids=["float-exponent", "float-passes", "float-cutoffs",
             "bool-exponent", "bool-passes", "bool-cutoffs"],
    )
    def test_non_integer_refused(self, passes, exponent, cutoffs):
        with pytest.raises(ValidationError, match="^passes, exponent and cutoffs must be"):
            GeneratorSpec(passes, exponent, cutoffs)

    @pytest.mark.parametrize("occupation", [1.7, 1.0, True])
    def test_occupation_not_an_integer_refused(self, occupation):
        spec = GeneratorSpec(passes=(1,), exponent=1, cutoffs=(3,))
        with pytest.raises(ValidationError, match="^occupations must be integers$"):
            generator_eigenvalue(spec, (occupation,))

    @pytest.mark.parametrize(
        "passes, cutoffs",
        [(1, (3,)), ((1,), 3), (None, (3,))],
        ids=["bare-passes", "bare-cutoffs", "none-passes"],
    )
    def test_non_sequence_refused(self, passes, cutoffs):
        with pytest.raises(ValidationError, match="^passes and cutoffs must be sequences"):
            GeneratorSpec(passes, 1, cutoffs)

    def test_bare_occupation_refused(self):
        spec = GeneratorSpec(passes=(1,), exponent=1, cutoffs=(3,))
        with pytest.raises(ValidationError, match="^occupations must be a sequence"):
            generator_eigenvalue(spec, 2)

    def test_numpy_integers_accepted(self):
        spec = GeneratorSpec((np.int64(2),), np.int32(3), (np.int64(4),))
        assert (spec.passes, spec.exponent, spec.cutoffs) == ((2,), 3, (4,))
        value = generator_eigenvalue(spec, (np.int64(4),))
        assert value == 128 and type(value) is int
        reduced = reduce_to_single_mode(spec, np.eye(5)[1])
        assert np.abs(reduced.amplitudes[2]) == 1.0


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

    def test_wrong_shape_names_the_shape(self):
        spec = GeneratorSpec(passes=(1, 1), exponent=1, cutoffs=(1, 1))
        with pytest.raises(ValidationError, match=r"got shape \(1, 4\)$"):
            reduce_to_single_mode(spec, [[1, 0, 0, 0]])

    def test_non_numeric_amplitudes_refused(self):
        spec = GeneratorSpec(passes=(1, 1), exponent=1, cutoffs=(1, 1))
        with pytest.raises(ValidationError, match="^malformed joint amplitudes"):
            reduce_to_single_mode(spec, "abcd")

    @pytest.mark.parametrize(
        "passes, exponent, cutoffs",
        [((1,), 64, (2,)), ((1, 1, 1), 62, (2, 2, 2)), ((2**63,), 1, (1,))],
    )
    def test_rejects_eigenvalues_past_int64(self, passes, exponent, cutoffs):
        # 2^64 would wrap to eigenvalue 0 in int64 and merge with the vacuum
        spec = GeneratorSpec(passes=passes, exponent=exponent, cutoffs=cutoffs)
        amps = np.full(spec.joint_dim, spec.joint_dim**-0.5)
        with pytest.raises(ValidationError, match="int64"):
            reduce_to_single_mode(spec, amps)


def _reduce_by_occupations(spec, amps):
    """Reference reduction: one generator_eigenvalue call per joint basis
    state, in C order over the per-mode occupations."""
    weights = {}
    ranges = [range(c + 1) for c in spec.cutoffs]
    for occ, w in zip(itertools.product(*ranges), np.abs(amps) ** 2):
        m = generator_eigenvalue(spec, occ)
        weights[m] = weights.get(m, 0.0) + w
    top = max(m for m, w in weights.items() if w > 0)
    probs = np.array([weights.get(m, 0.0) for m in range(top + 1)])
    return np.sqrt(probs / probs.sum())


@settings(max_examples=60, deadline=None)
@given(SPECS)
def test_reduction_matches_occupation_loop(case):
    passes, exponent, cutoffs, seed = case
    spec = GeneratorSpec(passes=passes, exponent=exponent, cutoffs=cutoffs)
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(spec.joint_dim) + 1j * rng.standard_normal(spec.joint_dim)
    # zero some amplitudes, the last ones included, so empty eigenvalues and a
    # cut top of the spectrum both occur
    amps[rng.random(spec.joint_dim) < 0.3] = 0.0
    if not amps.any():
        amps[0] = 1.0
    amps /= np.linalg.norm(amps)
    # the weights are summed in the same order, so the results are equal
    reduced = reduce_to_single_mode(spec, amps)
    np.testing.assert_array_equal(reduced.amplitudes, _reduce_by_occupations(spec, amps))
