import math

import numpy as np
import pytest

from phaselimit import EstimatePOM, ProbeState, SymmetricBand, ValidationError, make_state
from phaselimit.fock import _from_pairs


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


def density_at(dist, theta: float) -> float:
    """Oracle for the density grid: (1/2pi)[1 + 2 sum_k Re(m_k e^{-ik theta})]."""
    if not math.isfinite(theta):
        raise ValidationError("theta must be finite")
    k = np.arange(1, dist.moments.size)
    val = 1.0 + 2.0 * float(np.sum((dist.moments[1:] * np.exp(-1j * k * theta)).real))
    return val / (2 * math.pi)


def surrogate_cost(dist) -> float:
    """Oracle for the surrogate band's quadratic form: the expectation of
    5/2 - (8/3)cos(theta) + (1/6)cos(2 theta), the sparse pointwise lower
    bound on theta^2; missing moments count as zero."""
    m1 = dist.moments[1].real if dist.kmax >= 1 else 0.0
    m2 = dist.moments[2].real if dist.kmax >= 2 else 0.0
    return 2.5 - (8.0 / 3.0) * m1 + (1.0 / 6.0) * m2


def band_of(dense) -> SymmetricBand:
    """A square matrix as a full-width SymmetricBand: band row k is its k-th
    superdiagonal, so only the upper triangle is read."""
    n = len(dense)
    band = np.zeros((n, n), order="F")
    for k in range(n):
        band[k, : n - k] = np.diagonal(dense, k)
    return SymmetricBand(band)


def dense_elements(povm) -> np.ndarray:
    """The (n_outcomes, dim, dim) elements of any POM; a vector POM's are
    u_j u_j^H from its rows u_j."""
    if povm.vectors is None:
        return povm.elements
    u = povm.vectors
    return u[:, :, None] * u.conj()[:, None, :]


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


def covariant_seed(povm) -> np.ndarray:
    """Oracle for the covariantization lemma, from the dense elements: the
    seed (1/2pi) sum_j e^{iN est_j} M_j e^{-iN est_j} of the covariant
    measurement e^{-iN theta} seed e^{iN theta} d(theta), whose phase-averaged
    error distribution equals that of ``povm``.  The covariant family is
    complete exactly when diag(2*pi*seed) is the all-ones vector."""
    phases = np.exp(1j * np.outer(povm.estimates, np.arange(povm.dim)))  # (j, n)
    return np.einsum("jn,jnm,jm->nm", phases, dense_elements(povm), phases.conj()) / (2 * math.pi)


def covariant_moments(seed, state) -> np.ndarray:
    """Moments m_k = 2*pi sum_n seed_{n+k,n} conj(c_{n+k}) c_n, k = 0..dim-1,
    of the average distribution a covariant seed generates on ``state``."""
    c = state.amplitudes
    weighted = 2 * math.pi * seed * np.outer(np.conj(c), c)
    return np.array([np.trace(weighted, offset=-k) for k in range(state.dim)])


def floor_povm(dim, delta) -> EstimatePOM:
    """Dense POM of ``dim`` outcomes, each with least eigenvalue -delta:
    M_j = (1 + delta*(dim-1)) P_j - delta (I - P_j), with P_j the projector
    onto e^{-iN est_j} of the uniform state and est_j = 2*pi*j/dim.  On the
    uniform state its averaged density is exactly -dim*delta/2pi at the
    phases 2*pi*m/dim, m != 0, where every p(j|est_j - theta) is -delta."""
    estimates = 2 * math.pi * np.arange(dim) / dim
    u = np.exp(-1j * np.outer(estimates, np.arange(dim))) / math.sqrt(dim)
    proj = u[:, :, None] * u.conj()[:, None, :]
    elements = (1 + delta * dim) * proj - delta * np.eye(dim)
    return EstimatePOM(estimates, elements)


def number_povm(dim, estimates=None) -> EstimatePOM:
    """Projective number measurement with estimate labels (default 0)."""
    if estimates is None:
        estimates = np.zeros(dim)
    elements = np.array([np.outer(e, e) for e in np.eye(dim, dtype=complex)])
    return EstimatePOM(np.asarray(estimates, dtype=float), elements)


def reference_pom_from_json(data) -> EstimatePOM:
    """Oracle for EstimatePOM.from_json: the reader that decoded every entry
    as complex(re, im) into nested lists before any array existed (a mixed
    file's vectors u as np.outer(u, u.conj())), with the same checks in the
    same order."""
    try:
        outcomes = data["outcomes"]
        if not all(type(o["estimate"]) in (int, float) for o in outcomes):
            raise ValueError("every estimate must be a JSON number")
        for j, o in enumerate(outcomes):
            if ("matrix" in o) == ("vector" in o):
                raise ValueError(f'outcome {j} must have exactly one of "matrix" and "vector"')
        est = np.array([float(o["estimate"]) for o in outcomes])
        if all("matrix" not in o for o in outcomes):
            form = {"vectors": np.array([_from_pairs(o["vector"]) for o in outcomes])}
        else:
            els = []
            for o in outcomes:
                if "matrix" in o:
                    els.append([_from_pairs(row) for row in o["matrix"]])
                else:
                    u = np.array(_from_pairs(o["vector"]))
                    els.append(np.outer(u, u.conj()))
            form = {"elements": np.array(els)}
    except (TypeError, ValueError, KeyError, OverflowError) as exc:
        raise ValidationError(f"malformed POM data: {exc}") from exc
    return EstimatePOM(est, **form)


@pytest.fixture
def rng():
    return np.random.default_rng(20260825)
