import math

import numpy as np
import pytest

from phaselimit import EstimatePOM, ProbeState, make_state


def random_state(rng, dim, complex_amps=True) -> ProbeState:
    amps = rng.standard_normal(dim)
    if complex_amps:
        amps = amps + 1j * rng.standard_normal(dim)
    return make_state(amps)


def msd_quadrature(dist, nodes=512) -> float:
    """Independent oracle: integral of theta^2 * p(theta) by Gauss-Legendre."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    theta = math.pi * x
    k = np.arange(1, dist.moments.size)
    dens = (1.0 + 2.0 * (np.exp(-1j * np.outer(theta, k)) @ dist.moments[1:]).real) / (
        2 * math.pi
    )
    return float(np.sum(w * math.pi * theta**2 * dens))


def random_povm(rng, dim, n_outcomes) -> EstimatePOM:
    """Random informationally-unstructured POM: M_j = S^{-1/2} r_j r_j^H S^{-1/2}
    with S = sum_j r_j r_j^H, so the elements sum to the identity.

    S^{-1/2} [r_1 ... r_n] is the polar factor U V^H of the stacked blocks,
    taken from an SVD so completeness holds to rounding however ill-conditioned
    S is (forming S^{-1/2} directly leaves errors of order cond(S) * eps)."""
    blocks = [
        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        for _ in range(n_outcomes)
    ]
    u, _, vh = np.linalg.svd(np.hstack(blocks), full_matrices=False)
    w = (u @ vh).reshape(dim, n_outcomes, dim).transpose(1, 0, 2)  # (j, dim, dim)
    elements = w @ w.conj().transpose(0, 2, 1)
    estimates = np.sort(rng.uniform(0, 2 * math.pi, n_outcomes))
    return EstimatePOM(estimates, elements)


def number_povm(dim, estimates=None) -> EstimatePOM:
    """Projective number measurement with estimate labels (default 0)."""
    if estimates is None:
        estimates = np.zeros(dim)
    elements = np.array([np.outer(e, e) for e in np.eye(dim, dtype=complex)])
    return EstimatePOM(np.asarray(estimates, dtype=float), elements)


@pytest.fixture
def rng():
    return np.random.default_rng(20260825)
