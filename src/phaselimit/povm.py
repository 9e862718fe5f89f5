"""Discrete estimate-valued measurements and the phase-averaged error
distribution they induce.

Each outcome carries an estimate value in [0, 2*pi) and a PSD matrix on the
number basis.  For a fixed probe c, the probability of outcome j at phase
phi is a trigonometric polynomial of degree dim-1,

    p(j|phi) = sum_{n,m} conj(c_n) (M_j)_{nm} c_m e^{i(n-m)phi}
             = sum_k a_{j,k} e^{ik phi},

whose coefficient a_{j,k} is the sum of the k-th diagonal (n - m = k) of
M_j * conj(c) c^T.  `_coefficients` computes all of them at once in
O(n_outcomes * dim^2), and everything phase-dependent is read from them:
the moments of the error distribution averaged uniformly over the phase
(closed form, never numerical integration) and the probabilities at any set
of phases.  This is the package's one moment formula: the covariantization
lemma, which gives the same moments from the seed of a covariant
measurement, is checked against it by a dense oracle in the tests
(tests/conftest.py), not computed here.  A validated POM keeps the
averaged density at or above J * PSD_EIG_FLOOR / 2pi for J outcomes (see
`average_distribution`), so no density grid is built to check it.

A POM whose outcomes are all rank 1, M_j = u_j u_j^H, can be held by the
vectors u_j alone ("vector" outcomes in the JSON form).  Then a_{j,k} is the
autocorrelation sum_m x_{m+k} conj(x_m) of x = u_j * conj(c), read from one
zero-padded FFT per outcome in O(n_outcomes * dim log dim), and storage is
O(n_outcomes * dim).  Such outcomes are PSD by construction, so only
finiteness and completeness are checked.  The K-phase construction is held
this way.  A POM holds either its dense (n_outcomes, dim, dim) elements or
its vectors, never both.
"""

from __future__ import annotations

import math
import operator
from itertools import chain

import numpy as np

from .errors import ValidationError, _is_integer
from .fock import ProbeState, _to_pairs, make_state
from .phasedist import PhaseDistribution, _autocorrelation

PSD_EIG_FLOOR = -1e-10
HERMITIAN_TOL = 1e-10
COMPLETENESS_TOL = 1e-10
IMAG_TOL = 1e-12
TWO_PI = 2 * math.pi
# Elements are validated this many at a time, which bounds the batched
# temporaries (16 outcomes at dim 128 is 4 MB).
VALIDATION_CHUNK = 16
# kphase_construction's work is a few K x K arrays and its report is O(K).
# This many bytes per K^2 bounds the peak memory of `discriminate`
# (measured: see CHANGES.md), and K is refused above MAX_KPHASE_BYTES of it.
KPHASE_BYTES_PER_ENTRY = 66
MAX_KPHASE_BYTES = 1 << 30


def wrap_angle(x):
    """Map angles into [-pi, pi) with wrap(pi) = -pi."""
    return np.mod(np.asarray(x) + math.pi, TWO_PI) - math.pi


def _read_only(values, dtype) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


class EstimatePOM:
    """Discrete POM; outcome j has estimate ``estimates[j]`` and PSD element
    ``elements[j]``, with the elements summing to the identity.

    ``EstimatePOM(estimates, vectors=u)`` holds rank-1 outcomes
    M_j = u_j u_j^H by the rows of the (n_outcomes, dim) array u, and its
    ``elements`` are None; ``vectors`` is None for a POM given by its
    elements.
    """

    def __init__(self, estimates, elements=None, *, vectors=None):
        if (elements is None) == (vectors is None):
            raise ValidationError("give exactly one of elements and vectors")
        est = _read_only(estimates, float)
        if est.ndim != 1 or est.size == 0:
            raise ValidationError("need at least one outcome")
        if not np.all((est >= 0) & (est < TWO_PI)):  # NaN fails too
            raise ValidationError("estimates must be finite and lie in [0, 2*pi)")
        self._estimates = est
        self._elements = None
        self._vectors = None
        if vectors is None:
            els = _read_only(elements, complex)
            if els.ndim != 3 or els.shape[0] != est.size or not 0 < els.shape[1] == els.shape[2]:
                raise ValidationError("elements must be (n_outcomes, dim, dim)")
            for start in range(0, est.size, VALIDATION_CHUNK):
                _validate_elements(els[start : start + VALIDATION_CHUNK], start)
            with np.errstate(over="ignore", invalid="ignore"):  # inf/NaN fail below
                total = els.sum(axis=0)
            _check_complete(total)
            self._elements = els
        else:
            vecs = _read_only(vectors, complex)
            if vecs.ndim != 2 or vecs.shape[0] != est.size or vecs.shape[1] == 0:
                raise ValidationError("vectors must be (n_outcomes, dim)")
            bad = np.flatnonzero(~np.isfinite(vecs).all(axis=1))
            if bad.size:
                raise ValidationError(f"vector {bad[0]} is not finite")
            # sum_j u_j u_j^H, with u_j the rows of vecs
            with np.errstate(over="ignore", invalid="ignore"):  # inf/NaN fail below
                total = vecs.T @ vecs.conj()
            _check_complete(total)
            self._vectors = vecs

    @property
    def estimates(self) -> np.ndarray:
        return self._estimates

    @property
    def vectors(self) -> np.ndarray | None:
        return self._vectors

    @property
    def elements(self) -> np.ndarray | None:
        return self._elements

    @property
    def dim(self) -> int:
        source = self._elements if self._vectors is None else self._vectors
        return source.shape[1]

    @property
    def n_outcomes(self) -> int:
        return self._estimates.size

    def to_json(self) -> dict:
        if self._vectors is None:
            outcomes = [
                {"estimate": float(e), "matrix": _to_pairs(m)}
                for e, m in zip(self._estimates, self._elements)
            ]
        else:
            outcomes = [
                {"estimate": float(e), "vector": _to_pairs(u)}
                for e, u in zip(self._estimates, self._vectors)
            ]
        return {"dim": self.dim, "outcomes": outcomes}

    @classmethod
    def from_json(cls, data) -> "EstimatePOM":
        """Read ``{"outcomes": [{"estimate": e, "matrix" or "vector": ...}]}``.

        Each outcome carries exactly one of "matrix" and "vector".  A file
        whose outcomes all carry "vector" gives a vector POM; one that mixes
        the two forms is read as dense, each vector u as u u^H.  A "matrix"
        or "vector" value is nested [re, im] pairs, or the float array of
        those pairs that `_decode_outcome` leaves in place of a parsed one.
        """
        try:
            outcomes = data["outcomes"]
            if not all(type(o["estimate"]) in (int, float) for o in outcomes):
                raise ValueError("every estimate must be a JSON number")
            for j, o in enumerate(outcomes):
                if ("matrix" in o) == ("vector" in o):
                    raise ValueError(f'outcome {j} must have exactly one of "matrix" and "vector"')
            est = np.array([float(o["estimate"]) for o in outcomes])
            if all("matrix" not in o for o in outcomes):
                form = {"vectors": np.array([_complex_array(o["vector"], 1) for o in outcomes])}
            else:
                els = []
                for o in outcomes:
                    if "matrix" in o:
                        els.append(_complex_array(o["matrix"], 2))
                    else:
                        u = _complex_array(o["vector"], 1)
                        with np.errstate(over="ignore", invalid="ignore"):  # inf/NaN fail below
                            els.append(np.outer(u, u.conj()))
                form = {"elements": np.array(els)}
        except (TypeError, ValueError, KeyError, OverflowError) as exc:
            raise ValidationError(f"malformed POM data: {exc}") from exc
        return cls(est, **form)


def _pair_floats(value, rank: int) -> np.ndarray:
    """The float array, of shape (n, 2) for rank 1 or (n, m, 2) for rank 2,
    of ``value``: a vector (rank 1) as a list of [re, im] pairs, or a matrix
    (rank 2) as a list of equal-length rows of them.

    A float array of that shape is returned as it is.  Otherwise each entry
    must be a number that complex(re, im) takes (int, float or bool);
    anything else raises TypeError or ValueError, and an int beyond the
    float range OverflowError.  No per-entry object is made: the entries go
    straight from the lists into the array.
    """
    if isinstance(value, np.ndarray) and value.dtype == float and value.shape[rank:] == (2,):
        return value
    shape, pairs = (len(value),), value
    if rank == 2:
        lengths = set(map(len, value))
        if len(lengths) > 1:
            raise ValueError("matrix rows differ in length")
        shape += (lengths.pop() if lengths else 0,)
        pairs = list(chain.from_iterable(value))
    if set(map(len, pairs)) - {2}:
        raise ValueError("every entry must be an [re, im] pair")
    try:
        # unary + refuses what float() would take but complex(re, im) does
        # not: strings
        flat = np.fromiter(
            map(operator.pos, chain.from_iterable(pairs)), float, count=2 * len(pairs)
        )
    except TypeError as exc:
        raise TypeError(f"every [re, im] entry must be a number: {exc}") from None
    return flat.reshape(shape + (2,))


def _complex_array(value, rank: int) -> np.ndarray:
    """The complex vector or matrix written in ``value`` (see `_pair_floats`)."""
    return np.ascontiguousarray(_pair_floats(value, rank)).view(complex)[..., 0]


def _decode_outcome(obj: dict) -> dict:
    """``json.load`` object hook: an outcome's "matrix" or "vector" becomes
    its float array of [re, im] pairs as soon as the outcome is parsed, so
    a file's nested lists are freed one outcome at a time.  A value that
    does not convert is left as parsed, for `EstimatePOM.from_json` to
    refuse in its usual order."""
    for key, rank in (("matrix", 2), ("vector", 1)):
        if key in obj:
            try:
                obj[key] = _pair_floats(obj[key], rank)
            except (TypeError, ValueError, OverflowError):
                pass
    return obj


def _check_complete(total: np.ndarray):
    err = np.max(np.abs(total - np.eye(total.shape[0])))
    if not err <= COMPLETENESS_TOL:  # NaN fails too
        raise ValidationError("elements do not sum to the identity")


def _validate_elements(block: np.ndarray, start: int):
    """Finiteness, Hermitian and PSD checks on elements start, start+1, ...
    at once.

    A Cholesky factor of M + |PSD_EIG_FLOOR| I exists exactly when the least
    eigenvalue of M exceeds PSD_EIG_FLOOR, up to rounding of order eps*|M|,
    so a block whose factorization fails is re-checked element by element
    with eigvalsh, which makes every rejection.
    """
    bad = np.flatnonzero(~np.isfinite(block).all(axis=(1, 2)))
    if bad.size:
        raise ValidationError(f"element {start + bad[0]} is not finite")
    with np.errstate(over="ignore"):  # a finite skew past the float range is inf
        skew = np.abs(block - block.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    bad = np.flatnonzero(~(skew <= HERMITIAN_TOL))  # NaN counts as bad
    if bad.size:
        raise ValidationError(f"element {start + bad[0]} is not Hermitian")
    try:
        np.linalg.cholesky(block - PSD_EIG_FLOOR * np.eye(block.shape[1]))
    except np.linalg.LinAlgError:
        for j, m in enumerate(block, start):
            low = float(np.linalg.eigvalsh(m).min())
            if low < PSD_EIG_FLOOR:
                raise ValidationError(f"element {j} has eigenvalue {low:.3e} < 0") from None


def conditional_probability(
    povm: EstimatePOM, state: ProbeState, phi: float, outcome_index: int
) -> float:
    """p(j|phi) = tr[M_j rho_phi] with rho_phi the phase-shifted probe."""
    n = povm.n_outcomes
    if not (_is_integer(outcome_index) and 0 <= outcome_index < n):
        raise ValidationError(f"outcome index {outcome_index!r} is not an integer in 0..{n - 1}")
    if not math.isfinite(phi):
        raise ValidationError("phi must be finite")
    if povm.dim != state.dim:
        raise ValidationError("POM and state dimensions differ")
    c_phi = state.amplitudes * np.exp(-1j * np.arange(state.dim) * phi)
    if povm.vectors is not None:
        return float(abs(np.vdot(povm.vectors[outcome_index], c_phi)) ** 2)
    val = complex(np.conj(c_phi) @ povm.elements[outcome_index] @ c_phi)
    if abs(val.imag) > IMAG_TOL:
        raise ValidationError(f"probability has imaginary part {val.imag:.3e}")
    return max(val.real, 0.0)


def _coefficients(povm: EstimatePOM, state: ProbeState) -> np.ndarray:
    """Fourier coefficients of the outcome probabilities in the phase.

    Column dim-1+k holds a_{j,k} = sum_{n-m=k} conj(c_n) (M_j)_{nm} c_m for
    k = -(dim-1)..dim-1, so that p(j|phi) = sum_k a_{j,k} e^{ik phi}.  For a
    vector POM, a_{j,k} = sum_m x_{m+k} conj(x_m) with x = u_j * conj(c),
    one autocorrelation per outcome.
    """
    if povm.dim != state.dim:
        raise ValidationError("POM and state dimensions differ")
    c = state.amplitudes
    if povm.vectors is not None:
        return _autocorrelation(povm.vectors * np.conj(c))
    # one diagonal of all elements per k, so no (n_outcomes, dim, dim)
    # temporary is formed
    d, elements = c.size, povm.elements
    a = np.empty((povm.n_outcomes, 2 * d - 1), dtype=complex)
    for k in range(-(d - 1), d):
        # numpy's offset is m - n; entry i of the diagonal is (n, m) =
        # (i + k, i) for k >= 0 and (i, i - k) for k < 0.
        diag = np.diagonal(elements, offset=-k, axis1=1, axis2=2)
        if k >= 0:
            w = np.conj(c[k:]) * c[: d - k]
        else:
            w = np.conj(c[: d + k]) * c[-k:]
        a[:, d - 1 + k] = diag @ w
    return a


def average_distribution(povm: EstimatePOM, state: ProbeState) -> PhaseDistribution:
    """Exact moments of the phase-averaged error distribution.

    Averaging e^{ik(est_j - phi)} p(j|phi) over a uniform phase keeps the
    e^{ik phi} term of p(j|phi): m_k = sum_j e^{ik est_j} a_{j,k}.

    The density-grid check of PhaseDistribution is skipped, because a
    validated POM bounds the density from below.  The density is
    (1/2pi) sum_j p(j|est_j - theta), and each p(j|phi) = c_phi^H M_j c_phi
    is at least the least eigenvalue of M_j: above PSD_EIG_FLOOR for a
    validated dense element, and >= 0 exactly for a vector outcome.  So the
    density is at least J * PSD_EIG_FLOOR / 2pi for J outcomes.  Setting m_0
    to 1 adds (1 - c^H (sum_j M_j) c)/2pi to it, a completeness rounding of
    at most dim * COMPLETENESS_TOL / 2pi in size.
    """
    a = _coefficients(povm, state)
    d = state.dim
    phases = np.exp(1j * np.outer(povm.estimates, np.arange(d)))  # (j, k)
    m = np.einsum("jk,jk->k", phases, a[:, d - 1 :])
    m[0] = 1.0
    return PhaseDistribution._nonnegative(m)


def _variances(estimates: np.ndarray, phis: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """sum_j wrap(est_j - phi_p)^2 p(j|phi_p) from the (phases, outcomes)
    probability matrix."""
    errors = wrap_angle(estimates[None, :] - phis[:, None])
    return np.einsum("pj,pj->p", errors**2, probs)


def per_phase_variance(povm: EstimatePOM, state: ProbeState, phi):
    """Var_phi of the estimate: sum_j wrap(est_j - phi)^2 p(j|phi).

    ``phi`` is one phase, giving a float, or an array of phases, giving an
    array of that shape; the probabilities at every phase come from one
    product with the Fourier coefficients.
    """
    phis = np.asarray(phi, dtype=float)
    flat = phis.reshape(-1)
    if not np.isfinite(flat).all():
        raise ValidationError("phi must be finite")
    a = _coefficients(povm, state)
    k = np.arange(-(state.dim - 1), state.dim)
    # The rounding of k*phi (up to 6e-14 at k*phi ~ 800) would pass straight
    # into p; with phi = hi + lo and hi on a 2^-36 grid, k*hi is exact.
    hi = np.round(flat * 2.0**36) / 2.0**36
    factors = np.exp(1j * np.outer(hi, k)) * np.exp(1j * np.outer(flat - hi, k))
    probs = factors @ a.T  # (phases, outcomes)
    worst = np.max(np.abs(probs.imag), initial=0.0)
    if worst > IMAG_TOL:
        raise ValidationError(f"probability has imaginary part {worst:.3e}")
    var = _variances(povm.estimates, flat, np.maximum(probs.real, 0.0))
    if phis.ndim == 0:
        return float(var[0])
    return var.reshape(phis.shape)


def kphase_construction(K: int):
    """Probe and measurement that perfectly discriminate the K phases
    2*pi*k/K: the uniform K-level state and the rank-1 projectors onto its
    shifted copies, held as a vector POM.

    Returns (state, povm, report); the report carries the mean number
    (K-1)/2, the largest deviation of the shifted states' Gram matrix from
    the identity, and the success probability and the estimate's variance
    at each special phase.  K is refused, before anything is allocated,
    when the O(K^2) work would need more than MAX_KPHASE_BYTES.
    """
    if not _is_integer(K) or K < 1:
        raise ValidationError("K must be an integer >= 1")
    need = KPHASE_BYTES_PER_ENTRY * K**2
    if need > MAX_KPHASE_BYTES:
        raise ValidationError(
            f"K = {K} needs {need} bytes for the K x K work "
            f"(limit {MAX_KPHASE_BYTES} bytes = {MAX_KPHASE_BYTES >> 30} GiB)"
        )
    psi = make_state(np.ones(K))
    phis = TWO_PI * np.arange(K) / K
    n = np.arange(K)
    shifted = np.exp(-1j * np.outer(phis, n)) * psi.amplitudes  # (k, n)
    povm = EstimatePOM(phis, vectors=shifted)
    gram = shifted @ shifted.conj().T
    # the outcome vectors are the shifted probes, so p(j|phi_p) = |gram[p, j]|^2
    probs = np.abs(gram) ** 2
    report = {
        "K": K,
        "mean_number": (K - 1) / 2,
        "gram_identity_error": float(np.max(np.abs(gram - np.eye(K)))),
        "success_probabilities": [float(p) for p in np.diagonal(probs)],
        "per_phase_variance": _variances(povm.estimates, phis, probs).tolist(),
    }
    return psi, povm, report
