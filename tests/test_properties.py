"""Property tests of the measurement layer and the bound chain on random
POMs and probe states.

Each example draws a dimension, an outcome count (or amplitude kind) and a
generator seed; the POM and state are built from that seed, so a failing
example replays."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from phaselimit import (
    ConvergenceError,
    EstimatePOM,
    average_distribution,
    canonical_distribution,
    conditional_probability,
    entropy_chain_report,
    make_state,
    per_phase_variance,
    wrap_angle,
)
from phaselimit.phasedist import density_grid
from phaselimit.povm import PSD_EIG_FLOOR, _coefficients
from conftest import covariant_moments, covariant_seed, floor_povm, random_povm, random_state

CASES = st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
STATES = st.tuples(st.integers(1, 80), st.booleans(), st.integers(0, 2**32 - 1))
MASKED_STATES = st.tuples(st.integers(1, 63), st.floats(0.0, 0.9), st.integers(0, 2**32 - 1))
# (dim, extra outcomes beyond dim, seed) of a rank-1 POM
RANK1_CASES = st.tuples(st.integers(1, 40), st.integers(0, 8), st.integers(0, 2**32 - 1))
PHASES = st.lists(st.floats(-10.0, 10.0, allow_nan=False), min_size=1, max_size=6)


def _draw(case):
    dim, n_outcomes, seed = case
    rng = np.random.default_rng(seed)
    return random_povm(rng, dim, n_outcomes), random_state(rng, dim)


def _draw_rank1(case):
    """(estimates, u, state): the rows of a random J x dim isometry u are the
    vectors of a complete rank-1 POM."""
    dim, extra, seed = case
    rng = np.random.default_rng(seed)
    n_outcomes = dim + extra
    z = rng.standard_normal((n_outcomes, dim)) + 1j * rng.standard_normal((n_outcomes, dim))
    u = np.linalg.qr(z)[0]
    estimates = rng.uniform(0, 2 * math.pi, n_outcomes)
    return estimates, u, random_state(rng, dim)


def _direct_probabilities(povm, state, phis):
    """p(j|phi) = c_phi^H M_j c_phi as a quadratic form, shape (phases, outcomes)."""
    c_phi = state.amplitudes * np.exp(-1j * np.outer(phis, np.arange(state.dim)))
    return np.einsum("pn,jnm,pm->pj", np.conj(c_phi), povm.elements, c_phi).real


@settings(max_examples=60, deadline=None)
@given(CASES)
def test_average_distribution_three_paths(case):
    povm, state = _draw(case)
    moments = average_distribution(povm, state).moments
    via_seed = covariant_moments(covariant_seed(povm), state)
    # p(j|phi) e^{-ik phi} has frequencies of size at most 2(dim-1), so the
    # rectangle rule on 2*dim phases integrates it exactly
    n_phi = 2 * state.dim
    phis = 2 * math.pi * np.arange(n_phi) / n_phi
    probs = _direct_probabilities(povm, state, phis)
    k = np.arange(state.dim)
    errors = povm.estimates[None, :] - phis[:, None]
    quadrature = np.einsum("kpj,pj->k", np.exp(1j * k[:, None, None] * errors), probs) / n_phi
    np.testing.assert_allclose(moments, via_seed, rtol=0, atol=1e-12)
    np.testing.assert_allclose(moments, quadrature, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(CASES, PHASES)
def test_batched_sweep_matches_definition(case, phases):
    povm, state = _draw(case)
    phis = np.array(phases)
    probs = np.maximum(_direct_probabilities(povm, state, phis), 0.0)
    errors = wrap_angle(povm.estimates[None, :] - phis[:, None])
    expected = np.sum(errors**2 * probs, axis=1)
    np.testing.assert_allclose(per_phase_variance(povm, state, phis), expected, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(RANK1_CASES, PHASES)
@example((1, 0, 0), [0.0])
@example((1, 3, 1), [1.0, -2.0])
@example((40, 0, 2), [0.5])
def test_vector_pom_matches_dense(case, phases):
    # the same rank-1 POM expanded to matrices takes the dense paths
    estimates, u, state = _draw_rank1(case)
    n_outcomes = estimates.size
    vector = EstimatePOM(estimates, vectors=u)
    dense = EstimatePOM(estimates, u[:, :, None] * u.conj()[:, None, :])
    assert dense.vectors is None
    phis = np.array(phases)

    def close(a, b):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-13)

    close(_coefficients(vector, state), _coefficients(dense, state))
    close(average_distribution(vector, state).moments, average_distribution(dense, state).moments)
    close(per_phase_variance(vector, state, phis), per_phase_variance(dense, state, phis))
    close(
        [conditional_probability(vector, state, phis[0], j) for j in range(n_outcomes)],
        [conditional_probability(dense, state, phis[0], j) for j in range(n_outcomes)],
    )
    close(covariant_seed(vector), covariant_seed(dense))
    back = EstimatePOM.from_json(vector.to_json())
    np.testing.assert_array_equal(back.vectors, vector.vectors)
    np.testing.assert_array_equal(back.estimates, vector.estimates)


def _assert_density_bound(povm, state):
    # the averaged density is (1/2pi) sum_j p(j|est_j - theta), and each
    # p(j|phi) is at least the least eigenvalue of M_j, which validation
    # keeps above PSD_EIG_FLOOR (a vector outcome's is 0)
    dens = density_grid(average_distribution(povm, state), 4096)
    assert dens.min() >= povm.n_outcomes * PSD_EIG_FLOOR / (2 * math.pi) - 1e-13
    return dens


@settings(max_examples=60, deadline=None)
@given(CASES)
def test_average_density_bound_dense(case):
    _assert_density_bound(*_draw(case))


@settings(max_examples=60, deadline=None)
@given(RANK1_CASES)
def test_average_density_bound_vector(case):
    estimates, u, state = _draw_rank1(case)
    _assert_density_bound(EstimatePOM(estimates, vectors=u), state)


@pytest.mark.parametrize("dim", [2, 8, 64])
def test_average_density_bound_at_psd_floor(dim):
    # every element's least eigenvalue is -0.9e-10, inside the PSD floor,
    # and on the uniform state the density reaches the bound at grid
    # points (2*pi*m/dim lies on the 4096-point grid for these dims)
    povm = floor_povm(dim, 0.9e-10)
    assert np.linalg.eigvalsh(povm.elements).min() == pytest.approx(-0.9e-10, rel=1e-4)
    dens = _assert_density_bound(povm, make_state(np.ones(dim)))
    assert dens.min() == pytest.approx(dim * -0.9e-10 / (2 * math.pi), rel=1e-3)


@settings(max_examples=60, deadline=None)
@given(STATES)
def test_canonical_moments_match_quadrature(case):
    dim, complex_amps, seed = case
    state = random_state(np.random.default_rng(seed), dim, complex_amps)
    # (1/2pi)|sum_n c_n e^{in theta}|^2 e^{ik theta} has frequencies of size
    # at most 2(dim-1), so the rectangle rule on 2*dim phases is exact
    n_theta = 2 * dim
    thetas = 2 * math.pi * np.arange(n_theta) / n_theta
    density = np.abs(np.exp(1j * np.outer(thetas, np.arange(dim))) @ state.amplitudes) ** 2
    k = np.arange(dim)
    quadrature = np.exp(1j * np.outer(k, thetas)) @ density / n_theta
    np.testing.assert_allclose(
        canonical_distribution(state).moments, quadrature, rtol=0, atol=1e-12
    )


def _masked_state(case):
    """Complex amplitudes with each number zeroed with probability p (one
    kept), so gapped and sparse number distributions are drawn too."""
    dim, p, seed = case
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    amps[rng.uniform(size=dim) < p] = 0.0
    amps[rng.integers(dim)] = 1.0
    return make_state(amps)


@settings(max_examples=60, deadline=None)
@given(MASKED_STATES)
def test_entropy_chain_holds_on_random_states(case):
    report = entropy_chain_report(_masked_state(case))
    assert report.all_satisfied, report.to_text()


@pytest.mark.xfail(strict=True, raises=ConvergenceError,
                   reason="the fixed 8192/16384-point entropy grid misses 1e-8 on these draws")
@pytest.mark.parametrize(
    "case", [(60, 0.75, 2583), (60, 0.0, 323), (63, 0.0, 36), (63, 0.71875, 800277)]
)
def test_entropy_chain_on_known_unconverged_draws(case):
    # draws of the strategy above whose entropy quadrature does not converge
    # (refinement changes 1.25e-8, 1.22e-8, 1.01e-8 and 1.627e-8 at 8192
    # points)
    report = entropy_chain_report(_masked_state(case))
    assert report.all_satisfied, report.to_text()
