"""Minimum phase-error cost over probe states at fixed generator mean.

The cost <theta^2> (or its trigonometric lower bound) is a quadratic
form c^T A c in the real amplitude vector, so the constrained minimum at
mean <N> is found with a Lagrange multiplier: for each lambda >= 0, the
smallest eigenpair of B(lambda) = A + lambda*diag(0..dim-1) gives the
unconstrained optimum of cost + lambda*mean, and lambda is found by a
safeguarded secant on log(mean+1) against log(lambda), started from the
large-mean asymptote lambda ~ 2 k_C^2/(mean+1)^3, until the achieved mean
hits the target.  The achieved mean is largest at lambda = 0, where it is
(dim-1)/2 (see _start_dim): a target above that is refused before any
solve, and one within the mean tolerance of it is the lambda = 0 solve.
Sweeping the target mean produces the minimum-product curve
(mean+1)*sqrt(cost).
The default dimension, default_dim(mean), is solved once: a tail mass below
TAIL_TOL certifies it, and one the kind's cap would clip is refused.
B(lambda) is built once per multiplier, with no cache, as its lower band
(SymmetricBand: LAPACK storage, Fortran order), whose row k holds the
Toeplitz value at offset k: the exact cost's cosine series has every
offset, so its band is full width (dim x dim), and the pentadiagonal
surrogate's is 3 x dim.  One eigensolver serves both kinds at every
dimension: inverse iteration on banded Cholesky factors (dpbtrf) of
B(lambda) - sigma*I, where each factorization that succeeds certifies
sigma below the spectrum.  Each multiplier's eigensolve starts from the
previous multiplier's eigenvector, which puts the first shift just below
the new smallest eigenvalue.
Along a curve (figure2_curve) a point close above its predecessor continues
from its result (predictor-corrector continuation; see _first_multiplier).
scipy (BLAS and LAPACK) is imported by the first eigensolve, not with the
package, so commands that solve nothing start without it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import bounds
from .errors import ConvergenceError, ValidationError, _is_integer
from .fock import ProbeState

DENSE_DIM_LIMIT = 4096
SPARSE_DIM_LIMIT = 1 << 20
SURROGATE_BAND = (2.5, -4.0 / 3.0, 1.0 / 12.0)  # diagonal, offsets 1 and 2
TAIL_TOL = 1e-10
RESIDUAL_TOL = 1e-9
# Inverse iteration stops once its residual is at rounding level,
# ROUNDING_TOL*||A||, and its vector turns by less than ANGLE_TOL per solve
# (or has stopped converging at that residual).  The angle test is what fixes
# the eigenvector: at dim 80000 a residual of 4*eps*||A|| still left
# errors of 4e-4 in a mean of 1e4.
ROUNDING_TOL = 4 * np.finfo(float).eps
ANGLE_TOL = 1e-12
MAX_INVERSE_STEPS = 100
MAX_MULTIPLIER_STEPS = 100
# d log(mean+1)/d log(lambda) on the asymptote lambda ~ 2 k_C^2/(mean+1)^3
ASYMPTOTIC_SLOPE = -1.0 / 3.0
LOG4 = math.log(4.0)
LOG2 = math.log(2.0)
# A curve point continues from its predecessor only if the predecessor's
# final secant slope lies in this range: at tiny means the slope tends to 0
# and a prediction along it overshoots by many decades.
CONTINUATION_SLOPES = (-1.0, -0.1)


class CostKind(enum.Enum):
    EXACT_SQUARE = "exact"
    SURROGATE = "surrogate"


@dataclass(frozen=True)
class OptimizationResult:
    state: ProbeState
    cost: float
    achieved_mean: float
    lam: float
    eigenvalue: float
    dim: int
    tail_mass: float
    residual: float
    iterations: int
    # the last secant slope d log(mean+1)/d log(lambda); None at lambda = 0
    slope: float | None

    def to_json(self) -> dict:
        return {
            "cost": self.cost,
            "achieved_mean": self.achieved_mean,
            "lambda": self.lam,
            "eigenvalue": self.eigenvalue,
            "dim": self.dim,
            "tail_mass": self.tail_mass,
            "residual": self.residual,
            "iterations": self.iterations,
            "state": self.state.to_json(),
        }


def cost_matrix(kind: CostKind, dim: int) -> np.ndarray:
    """Symmetric matrix A with c^T A c = cost of the canonical distribution
    of the real unit vector c, densified from the band the solver uses.

    Both kinds are symmetric Toeplitz, from the cosine series of the cost:
    exact square, diagonal pi^2/3 and offset-k entries 2(-1)^k/k^2 (every
    offset); surrogate, the pentadiagonal SURROGATE_BAND (diagonal 5/2,
    first offset -4/3, second offset 1/12).
    """
    if not _is_integer(dim) or dim < 1:
        raise ValidationError("dim must be an integer >= 1")
    return _cost_band(kind, dim, 0.0).toarray()


@dataclass(frozen=True, eq=False)
class SymmetricBand:
    """Symmetric banded matrix in LAPACK lower storage: ``band[k, j]`` is
    the entry (j+k, j), so row 0 is the diagonal and row k the k-th
    subdiagonal, whose last k entries are unused (LAPACK and BLAS never
    read them).  ``shape`` is the shape of the full matrix.  A band in
    Fortran order reaches LAPACK without a copy."""

    band: np.ndarray

    def __post_init__(self):
        band = np.asarray(self.band, dtype=float)
        if band.ndim != 2 or not 1 <= band.shape[0] <= band.shape[1]:
            raise ValidationError("band must be 2-d with 1 <= rows <= columns")
        object.__setattr__(self, "band", band)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.band.shape[1], self.band.shape[1])

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """B @ x for a vector x (BLAS ``dsbmv``)."""
        from scipy.linalg import blas

        return blas.dsbmv(self.band.shape[0] - 1, 1.0, self.band, x, lower=1)

    def toarray(self) -> np.ndarray:
        rows, n = self.band.shape
        a = np.zeros((n, n))
        flat = a.reshape(-1)  # entry (i, j) is flat[i*n + j]; a diagonal steps n+1
        for k in range(rows):
            stop = (n - k) * (n + 1)
            flat[k * n : k * n + stop : n + 1] = self.band[k, : n - k]  # (j+k, j)
            flat[k : k + stop : n + 1] = self.band[k, : n - k]  # (j, j+k)
        return a


def _cost_band(kind: CostKind, dim: int, lam: float) -> SymmetricBand:
    """Cost matrix plus lam*diag(0..dim-1) as its lower band, in Fortran
    order: row k holds the Toeplitz value at offset k, over all dim rows for
    the exact cost and the offsets of SURROGATE_BAND that fit for the
    surrogate (so dims 1 and 2 are exact too)."""
    if kind is CostKind.EXACT_SQUARE:
        k = np.arange(1.0, dim)
        toeplitz = np.concatenate([[math.pi**2 / 3], 2.0 / (k * k)])
        toeplitz[1::2] *= -1.0  # the odd offsets
    else:
        toeplitz = np.array(SURROGATE_BAND[:dim])
    band = np.empty((len(toeplitz), dim), order="F")
    band[:] = toeplitz[:, np.newaxis]  # the unused entries get values too; nothing reads them
    band[0] += lam * np.arange(dim)
    return SymmetricBand(band)


def min_eigenpair(matrix: SymmetricBand, start=None):
    """Algebraically smallest eigenvalue and unit eigenvector of a symmetric
    matrix held as a SymmetricBand, with a certified residual
    ||Av - mu v|| <= 1e-9 ||A||_inf.

    Inverse iteration on ``dpbtrf`` Cholesky factors of A - sigma*I (A is
    scaled by a power of two if ||A||_inf is outside 2^-500..2^500); any
    other input is refused.  A shift is used only once its factorization
    succeeds, which proves sigma below every eigenvalue.  The iteration runs
    until the residual is at rounding level, 4 eps ||A||_inf, and the vector
    has stopped turning or has stopped converging.  Later shifts come as
    close below the Rayleigh quotient as the residual or that level, so
    only eigenvalues closer than about that level stay unseparated, and mu
    then lies within their cluster.  With no ``start`` it begins from a
    fixed pseudo-random vector (from ``np.random.default_rng(0)``, so runs
    repeat) at sigma = 0, or at -2 ||A||_inf if that factorization fails.
    A ``start`` (such as the eigenvector of a nearby matrix) puts the first
    shift at rho - max(r, 1e-9 ||A||_inf), its Rayleigh quotient less its
    residual or the residual tolerance.  A start whose first shift fails
    lies nearer another eigenvector, and so does one whose result lies above
    a failed shift (a failed factorization at s proves an eigenvalue <= s):
    either is dropped for the fixed vector.  A start with no component
    along the lowest eigenvector can still end on another eigenpair if no
    shift on the way fails.  mu is the Rayleigh quotient of the returned v.
    """
    from scipy.linalg import blas

    if not isinstance(matrix, SymmetricBand):
        raise ValidationError("matrix must be a SymmetricBand")
    norm_est = float((SymmetricBand(abs(matrix.band)) @ np.ones(matrix.shape[0])).max())
    if not math.isfinite(norm_est):
        # the LAPACK calls below skip their own finiteness checks
        raise ValidationError("matrix entries must be finite")
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != (matrix.shape[0],):
            raise ValidationError("start must be a vector of the matrix's size")
        if not (np.isfinite(start).all() and start.any()):
            raise ValidationError("start must be finite and nonzero")
    exp = 0
    if not 2.0**-500 < norm_est < 2.0**500:
        # a norm in 2^-500..2^500 keeps the solves, norms and tolerances
        # below clear of overflow and underflow; a power of two scales exactly
        exp = -math.frexp(norm_est)[1]
        matrix = SymmetricBand(np.ldexp(matrix.band, exp))
    v = _inverse_iteration(matrix, math.ldexp(norm_est, exp), start)
    v = v / blas.dnrm2(v)
    av = matrix @ v
    mu = float(v @ av)
    residual = math.ldexp(float(blas.dnrm2(av - mu * v)), -exp)
    if not residual <= RESIDUAL_TOL * norm_est:
        raise ConvergenceError(
            f"eigenpair residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e}*||A|| = "
            f"{RESIDUAL_TOL * norm_est:.3e}"
        )
    return math.ldexp(mu, -exp), v, residual


def _shifted_cholesky(matrix: SymmetricBand, shift: float):
    """x -> (A - shift*I)^-1 x from a Cholesky factor of A - shift*I, or
    None when the factorization fails: then A has an eigenvalue <= shift."""
    from scipy.linalg import lapack

    ab = matrix.band.copy(order="K")  # a Fortran-order band stays one, so LAPACK copies nothing
    ab[0] -= shift
    c, info = lapack.dpbtrf(ab, lower=1, overwrite_ab=1)
    return None if info else lambda x: lapack.dpbtrs(c, x, lower=1)[0]


def _factor_below(matrix, rho: float, dist: float, floor: float):
    """Factor A - s*I at s = rho - dist*4^k for k = 0, 1, ... until one
    succeeds, trying only s > floor.  Returns (s, solver, lowest failed s);
    s and solver are None if every shift above floor failed."""
    failed = math.inf
    while (shift := rho - dist) > floor:
        solver = _shifted_cholesky(matrix, shift)
        if solver is not None:
            return shift, solver, failed
        failed = shift
        dist *= 4.0
    return None, None, failed


def _refactor_pays(q: float, delta: float, r: float, dist: float, stop: float, cost: float):
    """Whether factoring at distance ``dist`` below the Rayleigh quotient is
    predicted to save more solves than the factorization costs (``cost``, in
    solves).  The current shift, ``delta`` below the Rayleigh quotient,
    contracts the residual ``r`` by ``q`` per solve, so the next eigenvalue
    lies about delta*(1/q - 1) above the smallest; the new shift would
    contract it by dist/(dist + that gap).  A shift at distance d iterates
    until r <= min(stop, ANGLE_TOL*d)."""
    if q >= 1.0:
        return True
    gap = delta * (1.0 / q - 1.0)

    def solves(q, d):
        return max(0.0, math.log(min(stop, ANGLE_TOL * d) / r) / math.log(q))

    return cost + solves(dist / (dist + gap), dist) < solves(q, delta)


def _inverse_iteration(matrix, norm_est: float, start):
    """Eigenvector of the smallest eigenvalue of a symmetric matrix by
    Cholesky-certified inverse iteration; see min_eigenpair."""
    from scipy.linalg import blas

    n = matrix.shape[0]
    norm = norm_est or 1.0  # the zero matrix needs tolerances and a shift too
    tau = RESIDUAL_TOL * norm
    stop = ROUNDING_TOL * norm
    # one factorization in solves, from the band's row count: dpbtrf with
    # its copy over one dpbtrs measured 1.2-1.9 at 3 rows (dims 300-240000),
    # and at full width 5.5 at dim 64, 25 at 300 and 1200, 40 at 2400 and
    # 49 at 4000 (2-core Xeon VM)
    cost = math.sqrt(matrix.band.shape[0])
    ceiling = math.inf  # every failed factorization at s proves lambda_min <= s
    for v in ([] if start is None else [start]) + [None]:
        cold = v is None
        if cold:
            v = np.random.default_rng(0).standard_normal(n)
            v /= blas.dnrm2(v)
            shift, r, solve = 0.0, math.inf, _shifted_cholesky(matrix, 0.0)
            if solve is None:
                # lambda_min <= 0; every eigenvalue is >= -||A||_inf (Gershgorin)
                shift = -2.0 * norm
                solve = _shifted_cholesky(matrix, shift)
        else:
            v = v / blas.dnrm2(v)
            bv = matrix @ v
            rho = float(v @ bv)
            r = float(blas.dnrm2(bv - rho * v))
            shift = rho - max(r, tau)
            solve = _shifted_cholesky(matrix, shift)
            if solve is None:
                continue  # the start lies nearer another eigenvector
        for steps in range(1, MAX_INVERSE_STEPS + 1):
            # With (A - shift*I) w = v and x = w/|w|: A x = (v + shift*w)/|w|,
            # so x's Rayleigh quotient and residual need no product with A.
            w = solve(v)
            norm_w = float(blas.dnrm2(w))
            x = w / norm_w
            delta = float(x @ v) / norm_w
            r_new = float(blas.dnrm2(v / norm_w - delta * x))
            mu, v = shift + delta, x
            q, r = (r_new / r if r else 0.0), r_new  # q = 0: not yet known
            # r/delta is the angle x turned from v
            if r <= stop and (r <= ANGLE_TOL * delta or q > 0.5):
                break
            if q > 0 and _refactor_pays(q, delta, r, max(r, stop), stop, cost):
                s, solver, failed = _factor_below(matrix, mu, max(r, stop), shift)
                ceiling = min(ceiling, failed)
                if solver is not None:
                    shift, solve = s, solver
        else:
            raise ConvergenceError(
                f"inverse iteration residual {r:.3e} above {stop:.3e} after {steps} solves"
            )
        # A failed shift below mu proves a lower eigenvalue, which a start
        # near another eigenvector can miss and the fixed vector cannot.
        if cold or mu <= ceiling:
            return v


def solve_at_multiplier(kind: CostKind, dim: int, lam: float, start=None):
    """Smallest eigenpair of A + lam*diag(n) and the achieved mean.

    Returns (mu, state_vector, mean, residual).  The achieved mean is
    nonincreasing in lam.  ``start`` (an eigenvector at a nearby multiplier)
    is passed on to min_eigenpair.
    """
    if lam < 0:
        raise ValidationError("lambda must be nonnegative")
    if not _is_integer(dim) or dim < 1:
        raise ValidationError("dim must be an integer >= 1")
    mu, v, residual = min_eigenpair(_cost_band(kind, dim, lam), start=start)
    # Fix the sign convention so the dominant component is nonnegative.
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    mean = float(np.dot(np.arange(dim), v**2))
    return mu, v, mean, residual


def _vacuum_result(kind: CostKind, dim: int) -> OptimizationResult:
    amps = np.zeros(dim, dtype=complex)
    amps[0] = 1.0
    cost = float(_cost_band(kind, 1, 0.0).band[0, 0])
    return OptimizationResult(
        state=ProbeState(amps), cost=cost, achieved_mean=0.0, lam=0.0,
        eigenvalue=cost, dim=dim, tail_mass=0.0, residual=0.0, iterations=0, slope=None,
    )


def default_dim(target_mean: float) -> int:
    # 8 * mean is inf for means near the float maximum; a result above the
    # dimension caps, which are far below 2^62, is refused by _start_dim
    return max(64, math.ceil(min(8 * target_mean, 2.0**62)))


def optimize_at_mean(
    kind: CostKind,
    target_mean: float,
    dim: int | None = None,
    mean_tol: float = 1e-8,
    *,
    _previous: OptimizationResult | None = None,
) -> OptimizationResult:
    """Global minimum of the cost over probe states with the given mean.

    The multiplier is found by a secant in log(lambda), seeded from the
    asymptote lambda ~ 2 k_C^2/(mean+1)^3 and safeguarded by the bracket of
    multipliers tried so far, until the achieved mean is within
    mean_tol*(1+target_mean) of the target.  A target above the
    unconstrained mean (dim-1)/2 by more than that tolerance raises
    ValidationError before any eigensolve; one within it is answered by the
    lambda = 0 solve alone.  ``iterations`` counts every eigensolve and
    ``slope`` is the search's last secant slope (None at lambda = 0).  With
    ``dim`` None the search runs at default_dim(target_mean), refused with
    ValidationError if the kind's cap would clip it, and a tail mass not
    below TAIL_TOL raises ConvergenceError; an explicit ``dim`` is a hard
    truncation whose tail_mass the caller reads.  The first eigensolve
    starts from min_eigenpair's fixed pseudo-random vector, so every run
    gives the same result, unless ``_previous``, the result of the point
    before on figure2_curve, lets _first_multiplier continue from it.
    """
    if not math.isfinite(target_mean) or target_mean < 0:
        raise ValidationError("target mean must be finite and nonnegative")
    if not math.isfinite(mean_tol) or mean_tol <= 0:
        raise ValidationError("mean_tol must be finite and positive")
    auto_dim = dim is None
    dim = _start_dim(kind, target_mean, dim, mean_tol)
    if target_mean == 0:
        return _vacuum_result(kind, dim)
    tol = mean_tol * (1.0 + target_mean)
    # Secant on y = log(mean+1) against x = log(lambda), kept inside the
    # bracket lo < lambda < hi of the multipliers tried so far (the mean is
    # nonincreasing in lambda), each solve started from the last eigenvector.
    v, lam, slope = _first_multiplier(_previous, target_mean, dim, tol)
    y_target = math.log1p(target_mean)
    lo, hi = 0.0, math.inf
    last = None
    iterations = 0
    while True:
        mu, v, mean, residual = solve_at_multiplier(kind, dim, lam, start=v)
        iterations += 1
        if lam == 0.0:
            break
        x, y = math.log(lam), math.log1p(mean)
        if last is not None and x != last[0]:
            secant = (y - last[1]) / (x - last[0])
            slope = secant if secant < 0 else ASYMPTOTIC_SLOPE
        if abs(mean - target_mean) <= tol:
            break
        if mean > target_mean:
            lo = lam
        else:
            hi = lam
        if iterations >= MAX_MULTIPLIER_STEPS:
            raise ConvergenceError(
                f"mean {mean:.12g} not within {tol:.1e} of target {target_mean:.12g} "
                f"after {iterations} eigensolves"
            )
        last = (x, y)
        lam = _next_multiplier(lam, (y_target - y) / slope, lo, hi)

    tail_mass = float(np.sum(v[max(dim - 2, 0):] ** 2))
    if auto_dim and not tail_mass < TAIL_TOL:
        raise ConvergenceError(f"tail mass {tail_mass:.3e} >= {TAIL_TOL} at dim {dim}")
    return OptimizationResult(
        state=ProbeState(v.astype(complex)),
        cost=float(mu - lam * mean),
        achieved_mean=mean,
        lam=float(lam),
        eigenvalue=float(mu),
        dim=dim,
        tail_mass=tail_mass,
        residual=residual,
        iterations=iterations,
        slope=slope,
    )


def _start_dim(kind, target_mean, dim, mean_tol):
    """The dimension of a search: ``dim`` (at least 1) within the kind's
    cap, or default_dim if None, which is refused if the cap would clip it.
    Refuses a target above (dim-1)/2 by more than mean_tol*(1+target_mean):
    the mean falls as lambda grows, and at lambda = 0 B is symmetric
    Toeplitz, so centrosymmetric, and its simple lowest eigenvector is
    symmetric or skew about the middle (Cantoni & Butler, Linear Algebra
    Appl. 13, 275 (1976)), which puts its mean at (dim-1)/2."""
    cap = DENSE_DIM_LIMIT if kind is CostKind.EXACT_SQUARE else SPARSE_DIM_LIMIT
    if dim is None:
        dim = default_dim(target_mean)
        if dim > cap:
            raise ValidationError(
                f"target mean {target_mean} needs more than the {kind.value} cap of "
                f"{cap} dimensions (default dim 8*mean)"
            )
    elif not _is_integer(dim) or dim < 1:
        raise ValidationError("dim must be an integer >= 1")
    elif dim > cap:
        raise ValidationError(f"dim {dim} exceeds the {kind.value} cap {cap}")
    if target_mean > (dim - 1) / 2 + mean_tol * (1.0 + target_mean):
        raise ValidationError(f"target mean {target_mean} infeasible at dim {dim}")
    return dim


def _first_multiplier(previous, target_mean, dim, tol):
    """The search's start (vector or None, lambda, slope).  A target within
    ``tol`` of the unconstrained mean (dim-1)/2 (see _start_dim) starts, and
    ends, at lambda = 0 with no slope.  A target continues from ``previous``
    if that point's mean+1 is at most a factor 2 below and its slope lies in
    CONTINUATION_SLOPES: the multiplier is the previous one moved along the
    slope to the target, and the vector the previous eigenvector,
    zero-padded or truncated to ``dim``.  Otherwise it starts cold on the
    large-mean asymptote lambda ~ 2 k_C^2/(mean+1)^3, slope -1/3, from
    min_eigenpair's fixed vector."""
    if target_mean >= (dim - 1) / 2 - tol:
        return None, 0.0, None
    if previous is not None and previous.slope is not None:
        step = math.log1p(target_mean) - math.log1p(previous.achieved_mean)
        low, high = CONTINUATION_SLOPES
        if step <= LOG2 and low <= previous.slope <= high:
            v = np.zeros(dim)
            n = min(dim, previous.dim)
            v[:n] = previous.state.amplitudes[:n].real
            return v, previous.lam * math.exp(step / previous.slope), previous.slope
    return None, 2.0 * bounds.k_C() ** 2 / (target_mean + 1.0) ** 3, ASYMPTOTIC_SLOPE


def _next_multiplier(lam, step, lo, hi):
    """lam*exp(step), limited to a factor 4 toward a side not yet bracketed
    and replaced by the geometric midpoint of (lo, hi) if it leaves it.
    The step always points away from lam's own end of the bracket."""
    if step > 0:
        if hi == math.inf:
            return lam * math.exp(min(step, LOG4))
        if step < math.log(hi / lam):
            return lam * math.exp(step)
    else:
        if lo == 0.0:
            return lam * math.exp(max(step, -LOG4))
        if step > math.log(lo / lam):
            return lam * math.exp(step)
    return math.sqrt(lo) * math.sqrt(hi)


CURVE_COLUMNS = [
    "mean", "dim", "lambda", "cost", "delta", "product",
    "tail_mass", "residual", "iterations",
]


def figure2_curve(
    kind: CostKind,
    means,
    dim: int | None = None,
    mean_tol: float = 1e-8,
) -> list[dict]:
    """Minimum-product curve rows, one per requested mean, in input order,
    each a dict keyed by CURVE_COLUMNS in that order.

    product = (mean+1)*sqrt(cost), matching the <N+1> delta-Phi axis.
    Each point is one optimize_at_mean call given the previous point's
    result, which _first_multiplier continues from when the two lie close;
    the first point, and any other, is otherwise solved cold.  A continued
    row meets the same mean tolerance, tail and residual certificates, but
    may differ from a cold optimize_at_mean's row within the mean
    tolerance, and its ``iterations`` counts its own, usually fewer,
    eigensolves.  Every mean is checked by _start_dim before any point is
    solved.
    """
    means = [float(m) for m in means]
    if not all(math.isfinite(m) and m > 0 for m in means) or any(
        b <= a for a, b in zip(means, means[1:])
    ):
        raise ValidationError("means must be finite, positive and strictly ascending")
    for mean in means:
        _start_dim(kind, mean, dim, mean_tol)

    rows, res = [], None
    for mean in means:
        res = optimize_at_mean(kind, mean, dim=dim, mean_tol=mean_tol, _previous=res)
        delta = math.sqrt(res.cost)
        rows.append({
            "mean": res.achieved_mean,
            "dim": res.dim,
            "lambda": res.lam,
            "cost": res.cost,
            "delta": delta,
            "product": (res.achieved_mean + 1.0) * delta,
            "tail_mass": res.tail_mass,
            "residual": res.residual,
            "iterations": res.iterations,
        })
    return rows
