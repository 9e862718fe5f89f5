"""Minimum phase-error cost over probe states at fixed generator mean.

The cost <theta^2> (or its trigonometric lower bound) is a quadratic
form c^T A c in the real amplitude vector, so the constrained minimum at
mean <N> is found with a Lagrange multiplier: for each lambda >= 0, the
smallest eigenpair of B(lambda) = A + lambda*diag(0..dim-1) gives the
unconstrained optimum of cost + lambda*mean, and lambda is found by a
safeguarded secant on log(mean+1) against log(lambda), started from the
large-mean asymptote lambda ~ 2 k_C^2/(mean+1)^3, until the achieved mean
hits the target.  The unconstrained (lambda=0) solve is made only when the
search needs it: when a multiplier lands below the target before any has
landed above it, to tell an infeasible target from a short step.  Sweeping
the target mean produces the minimum-product curve (mean+1)*sqrt(cost).
B(lambda) is a dense Toeplitz matrix for the exact cost.  For the
surrogate it is pentadiagonal and is held as its lower band (SymmetricBand,
LAPACK storage, 3 x dim).  One eigensolver serves both kinds, its method
chosen by the dimension: up to DENSE_EIGH_MAX_DIM LAPACK's subset solvers
(dense or banded), above it inverse iteration on Cholesky factors of
B(lambda) - sigma*I (dense or banded).  Each factorization that succeeds
certifies sigma below the spectrum, and the one at sigma = 0 that B(lambda)
is positive definite.  Within one dimension each multiplier's eigensolve
starts from the previous multiplier's eigenvector, which puts the first
shift just below the new smallest eigenvalue.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from . import bounds
from .errors import ConvergenceError, ValidationError
from .fock import ProbeState

DENSE_DIM_LIMIT = 4096
SPARSE_DIM_LIMIT = 1 << 20
DENSE_EIGH_MAX_DIM = 256  # above it Cholesky inverse iteration beats the subset solvers
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
    of the real unit vector c.

    Exact square: dense Toeplitz from the cosine series of theta^2
    (diagonal pi^2/3, offset-k entries 2(-1)^k/k^2).  Surrogate: the
    pentadiagonal band SURROGATE_BAND (diagonal 5/2, first offset -4/3,
    second offset 1/12), densified from the banded storage the solver uses.
    """
    if dim < 1:
        raise ValidationError("dim must be >= 1")
    if kind is CostKind.SURROGATE:
        return _surrogate_band(dim, 0.0).toarray()
    k = np.arange(dim)
    col = np.empty(dim)
    col[0] = math.pi**2 / 3
    if dim > 1:
        col[1:] = 2.0 * (-1.0) ** k[1:] / k[1:] ** 2
    return scipy.linalg.toeplitz(col)


@dataclass(frozen=True, eq=False)
class SymmetricBand:
    """Symmetric banded matrix in LAPACK lower storage: ``band[k, j]`` is
    the entry (j+k, j), so row 0 is the diagonal and row k the k-th
    subdiagonal, whose last k entries are unused.  ``shape`` is the shape
    of the full matrix."""

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
        """B @ x for a vector x, one pass per stored diagonal."""
        y = self.band[0] * x
        for k in range(1, self.band.shape[0]):
            sub = self.band[k, :-k]
            y[k:] += sub * x[:-k]
            y[:-k] += sub * x[k:]
        return y

    def toarray(self) -> np.ndarray:
        a = np.diag(self.band[0])
        for k in range(1, self.band.shape[0]):
            off = np.diag(self.band[k, :-k], -k)
            a += off + off.T
        return a


def _surrogate_band(dim: int, lam: float) -> SymmetricBand:
    """Surrogate cost matrix plus lam*diag(0..dim-1) as its lower band; the
    band is cut to the offsets that fit, so dims 1 and 2 are exact too."""
    band = np.zeros((min(dim, len(SURROGATE_BAND)), dim))
    band[0] = SURROGATE_BAND[0] + lam * np.arange(dim)
    for k in range(1, band.shape[0]):
        band[k, : dim - k] = SURROGATE_BAND[k]
    return SymmetricBand(band)


@functools.lru_cache(maxsize=1)
def _base_matrix(kind: CostKind, dim: int) -> np.ndarray:
    """cost_matrix(kind, dim), built once for all the multipliers tried at
    one dimension.  Read-only, because every caller shares the array."""
    a = cost_matrix(kind, dim)
    a.flags.writeable = False
    return a


def min_eigenpair(matrix, seed: int = 0, start=None):
    """Algebraically smallest eigenvalue and unit eigenvector of a symmetric
    matrix, dense or a SymmetricBand, with a certified residual
    ||Av - mu v|| <= 1e-9 ||A||_inf.

    Up to DENSE_EIGH_MAX_DIM a LAPACK subset solver runs on the matrix:
    ``eigh`` for a dense matrix, ``eig_banded`` for a band; ``start`` is
    ignored there.  Above it the matrix must be positive definite (else
    ValidationError), and inverse iteration runs on Cholesky factors of
    A - sigma*I (``dpotrf`` dense, ``dpbtrf`` banded).  A shift is used only
    once its factorization succeeds, which proves sigma below every
    eigenvalue, so the iteration converges to the smallest eigenpair; it runs
    until the residual is at rounding level and the vector has stopped
    turning (eigenvalues closer than 1e-9 ||A||_inf, which no certified shift
    separates, stop at that residual).  With no ``start`` the iteration
    begins at sigma = 0 from a vector drawn from ``seed``, so runs repeat.
    A ``start`` vector (such as the eigenvector of a nearby matrix) sets the
    first shift to rho - max(r, 1e-9 ||A||_inf), its Rayleigh quotient rho
    less its residual r, backed off 4x per failed factorization.  A failed
    factorization at s proves an eigenvalue at or below s, so a result above
    any such s (a start close to another eigenvector) is discarded for the
    seeded start, and ConvergenceError is raised if that also ends above it.
    """
    band = matrix if isinstance(matrix, SymmetricBand) else None
    if band is None:
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValidationError("matrix must be square")
        # Exact equality, which every matrix built here passes, costs a small
        # fraction of the tolerance test it short-circuits (NaN fails both).
        if (matrix != matrix.T).max() and not abs(matrix - matrix.T).max() <= 1e-12:
            raise ValidationError("matrix is not symmetric")
        norm_est = float(abs(matrix).sum(axis=1).max())
    else:
        norm_est = float((SymmetricBand(abs(band.band)) @ np.ones(band.shape[0])).max())
    if not math.isfinite(norm_est):
        # the LAPACK calls below skip their own finiteness checks
        raise ValidationError("matrix entries must be finite")
    n = matrix.shape[0]
    if n <= DENSE_EIGH_MAX_DIM:
        if band is None:
            vals, vecs = scipy.linalg.eigh(matrix, subset_by_index=[0, 0], check_finite=False)
        else:
            vals, vecs = scipy.linalg.eig_banded(
                band.band, lower=True, select="i", select_range=(0, 0), check_finite=False
            )
        mu, v = float(vals[0]), vecs[:, 0]
    else:
        if start is not None:
            start = np.asarray(start, dtype=float)
            if start.shape != (n,):
                raise ValidationError("start must be a vector of the matrix's size")
            if not (np.isfinite(start).all() and start.any()):
                raise ValidationError("start must be finite and nonzero")
        mu, v = _inverse_iteration(matrix, norm_est, seed, start)
    v = v / np.linalg.norm(v)
    residual = float(np.linalg.norm(matrix @ v - mu * v))
    if residual > RESIDUAL_TOL * norm_est:
        raise ConvergenceError(
            f"eigenpair residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e}*||A|| = "
            f"{RESIDUAL_TOL * norm_est:.3e}"
        )
    return mu, v, residual


def _shifted_cholesky(matrix, shift: float):
    """x -> (A - shift*I)^-1 x from a Cholesky factor of A - shift*I, or
    None when the factorization fails: then A has an eigenvalue <= shift."""
    if isinstance(matrix, SymmetricBand):
        ab = matrix.band.copy()
        ab[0] -= shift
        c, info = lapack.dpbtrf(ab, lower=1, overwrite_ab=1)
        return None if info else lambda x: lapack.dpbtrs(c, x, lower=1)[0]
    a = np.array(matrix.T, order="F")  # A.T is A, and a plain copy in Fortran order
    a[np.diag_indices(len(a))] -= shift
    c, info = lapack.dpotrf(a, lower=1, clean=0, overwrite_a=1)
    return None if info else lambda x: lapack.dpotrs(c, x, lower=1)[0]


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


def _inverse_iteration(matrix, norm_est: float, seed: int, start):
    """(mu, v) of the smallest eigenpair of a positive definite matrix by
    Cholesky-certified inverse iteration; see min_eigenpair."""
    n = matrix.shape[0]
    tau = RESIDUAL_TOL * norm_est
    stop = ROUNDING_TOL * norm_est
    # one factorization in solves (dpotrf/dpotrs with the copy: 12 at dim
    # 300, 33 at 2400; dpbtrf/dpbtrs: 2)
    cost = 2.0 if isinstance(matrix, SymmetricBand) else 10.0 + n / 100.0
    ceiling = math.inf  # every failed factorization at s proves lambda_min <= s
    for v in ([] if start is None else [start]) + [None]:
        if v is not None:
            v = v / np.linalg.norm(v)
            bv = matrix @ v
            rho = float(v @ bv)
            r = float(np.linalg.norm(bv - rho * v))
            shift, solve, failed = _factor_below(matrix, rho, max(r, tau), 0.0)
            ceiling = min(ceiling, failed)
            if solve is None:
                continue
        else:
            v = np.random.default_rng(seed).standard_normal(n)
            v /= np.linalg.norm(v)
            shift, r, solve = 0.0, math.inf, _shifted_cholesky(matrix, 0.0)
            if solve is None:
                raise ValidationError("matrix is not positive definite")
        for steps in range(1, MAX_INVERSE_STEPS + 1):
            # With (A - shift*I) w = v and x = w/|w|: A x = (v + shift*w)/|w|,
            # so x's Rayleigh quotient and residual need no product with A.
            w = solve(v)
            norm_w = float(np.linalg.norm(w))
            x = w / norm_w
            delta = float(x @ v) / norm_w
            r_new = float(np.linalg.norm(v / norm_w - delta * x))
            mu, v = shift + delta, x
            q, r = (r_new / r if r else 0.0), r_new  # q = 0: not yet known
            # r/delta is the angle x turned from v.  A shift within 2*tau
            # that contracts by less than half faces eigenvalues closer than
            # tau, which no certified shift separates: r <= tau must do.
            slow = q > 0.5
            if r <= stop and (r <= ANGLE_TOL * delta or slow):
                break
            if slow and r <= tau and delta <= 2.0 * tau:
                break
            if q > 0 and _refactor_pays(q, delta, r, max(r, tau), stop, cost):
                s, solver, failed = _factor_below(matrix, mu, max(r, tau), shift)
                ceiling = min(ceiling, failed)
                if solver is not None:
                    shift, solve = s, solver
        else:
            raise ConvergenceError(
                f"inverse iteration residual {r:.3e} above {stop:.3e} after {steps} solves"
            )
        if mu <= ceiling:
            return mu, v
    raise ConvergenceError(
        f"eigenvalue {mu:.12g} lies above a failed Cholesky shift {ceiling:.12g}"
    )


def solve_at_multiplier(kind: CostKind, dim: int, lam: float, seed: int = 0, start=None):
    """Smallest eigenpair of A + lam*diag(n) and the achieved mean.

    Returns (mu, state_vector, mean, residual).  The achieved mean is
    nonincreasing in lam.  ``start`` (an eigenvector at a nearby multiplier)
    is passed on to min_eigenpair.
    """
    if lam < 0:
        raise ValidationError("lambda must be nonnegative")
    if dim < 1:
        raise ValidationError("dim must be >= 1")
    if kind is CostKind.EXACT_SQUARE:
        b = _base_matrix(kind, dim).copy()
        b[np.diag_indices(dim)] += lam * np.arange(dim)
    else:
        b = _surrogate_band(dim, lam)
    mu, v, residual = min_eigenpair(b, seed=seed, start=start)
    # Fix the sign convention so the dominant component is nonnegative.
    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    mean = float(np.dot(np.arange(dim), v**2))
    return mu, v, mean, residual


def _vacuum_result(kind: CostKind, dim: int) -> OptimizationResult:
    amps = np.zeros(dim, dtype=complex)
    amps[0] = 1.0
    cost = math.pi**2 / 3 if kind is CostKind.EXACT_SQUARE else 2.5
    return OptimizationResult(
        state=ProbeState(amps), cost=cost, achieved_mean=0.0, lam=0.0,
        eigenvalue=cost, dim=dim, tail_mass=0.0, residual=0.0, iterations=0,
    )


def default_dim(target_mean: float) -> int:
    return max(64, math.ceil(8 * target_mean))


def optimize_at_mean(
    kind: CostKind,
    target_mean: float,
    dim: int | None = None,
    mean_tol: float = 1e-8,
    seed: int = 0,
) -> OptimizationResult:
    """Global minimum of the cost over probe states with the given mean.

    The multiplier is found by a secant in log(lambda), seeded from the
    asymptote lambda ~ 2 k_C^2/(mean+1)^3 and safeguarded by the bracket of
    multipliers tried so far, until the achieved mean is within
    mean_tol*(1+target_mean) of the target.  The unconstrained (lambda=0)
    solve runs only if a multiplier gives a mean below the target before
    any gives one above it; ConvergenceError is raised if even lambda=0
    falls short of the target, and its solution is the result if it meets
    the target.  ``iterations`` counts every eigensolve.  If the optimal
    state's tail mass shows the truncation is inadequate, the dimension is
    doubled and the solve repeated, up to the per-path dimension cap.  A
    negative ``seed`` is rejected.
    """
    if not math.isfinite(target_mean) or target_mean < 0:
        raise ValidationError("target mean must be finite and nonnegative")
    if not math.isfinite(mean_tol) or mean_tol <= 0:
        raise ValidationError("mean_tol must be finite and positive")
    if seed < 0:
        raise ValidationError("seed must be nonnegative")
    cap = DENSE_DIM_LIMIT if kind is CostKind.EXACT_SQUARE else SPARSE_DIM_LIMIT
    auto_dim = dim is None
    if auto_dim:
        dim = min(default_dim(target_mean), cap)
    elif dim > cap:
        raise ValidationError(f"dim {dim} exceeds the {kind.value} cap {cap}")
    if target_mean > dim - 1:
        raise ValidationError(f"target mean {target_mean} infeasible at dim {dim}")
    if target_mean == 0:
        return _vacuum_result(kind, dim)

    # The tail certificate drives dimension doubling only when the dimension
    # came from the policy; an explicit dim is honored as a hard truncation.
    while True:
        result = _solve_fixed_dim(kind, target_mean, dim, mean_tol, seed)
        if not auto_dim or result.tail_mass < TAIL_TOL:
            return result
        if dim >= cap:
            raise ConvergenceError(
                f"truncation cap {cap} reached with tail mass {result.tail_mass:.3e}"
            )
        dim = min(2 * dim, cap)


def _solve_fixed_dim(kind, target_mean, dim, mean_tol, seed) -> OptimizationResult:
    tol = mean_tol * (1.0 + target_mean)
    iterations = 0

    def solve(lam, start=None):
        nonlocal iterations
        iterations += 1
        return solve_at_multiplier(kind, dim, lam, seed=seed, start=start)

    # Secant on y = log(mean+1) against x = log(lambda), started on the
    # large-mean asymptote and kept inside the bracket lo < lambda < hi of
    # the multipliers tried so far (the mean is nonincreasing in lambda).
    # The unconstrained (lambda=0) solve only tests feasibility, so it runs
    # only when a multiplier has landed below the target with no multiplier
    # above it yet; its point never enters the secant or the bracket, and
    # each multiplier's eigensolve starts from the previous multiplier's
    # eigenvector, never from the lambda=0 one.
    y_target = math.log1p(target_mean)
    lo, hi = 0.0, math.inf
    lam = 2.0 * bounds.k_C() ** 2 / (target_mean + 1.0) ** 3
    slope = ASYMPTOTIC_SLOPE
    last = None
    feasible = False
    v = None
    while True:
        mu, v, mean, residual = solve(lam, start=v)
        if abs(mean - target_mean) <= tol:
            break
        if mean > target_mean:
            lo = lam
            feasible = True
        else:
            hi = lam
            if not feasible:
                unconstrained = solve(0.0)
                if unconstrained[2] < target_mean - tol:
                    raise ConvergenceError(
                        f"unconstrained mean {unconstrained[2]:.6g} below target "
                        f"{target_mean:.6g}; increase dim"
                    )
                if abs(unconstrained[2] - target_mean) <= tol:
                    lam = 0.0
                    mu, v, mean, residual = unconstrained
                    break
                feasible = True
        if iterations >= MAX_MULTIPLIER_STEPS:
            raise ConvergenceError(
                f"mean {mean:.12g} not within {tol:.1e} of target {target_mean:.12g} "
                f"after {iterations} eigensolves"
            )
        x, y = math.log(lam), math.log1p(mean)
        if last is not None and x != last[0]:
            secant = (y - last[1]) / (x - last[0])
            slope = secant if secant < 0 else ASYMPTOTIC_SLOPE
        last = (x, y)
        lam = _next_multiplier(lam, (y_target - y) / slope, lo, hi)

    cost = mu - lam * mean
    tail_mass = float(np.sum(v[max(dim - 2, 0):] ** 2))
    return OptimizationResult(
        state=ProbeState(v.astype(complex)),
        cost=float(cost),
        achieved_mean=mean,
        lam=float(lam),
        eigenvalue=float(mu),
        dim=dim,
        tail_mass=tail_mass,
        residual=residual,
        iterations=iterations,
    )


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


def figure2_curve(
    kind: CostKind,
    means,
    dim: int | None = None,
    mean_tol: float = 1e-8,
    seed: int = 0,
) -> list[dict]:
    """Minimum-product curve rows, one per requested mean, in input order.

    product = (mean+1)*sqrt(cost), matching the <N+1> delta-Phi axis.
    """
    means = [float(m) for m in means]
    if not all(math.isfinite(m) and m > 0 for m in means) or any(
        b <= a for a, b in zip(means, means[1:])
    ):
        raise ValidationError("means must be finite, positive and strictly ascending")

    def run(mean):
        res = optimize_at_mean(kind, mean, dim=dim, mean_tol=mean_tol, seed=seed)
        delta = math.sqrt(res.cost)
        return {
            "mean": res.achieved_mean,
            "dim": res.dim,
            "lambda": res.lam,
            "cost": res.cost,
            "delta": delta,
            "product": (res.achieved_mean + 1.0) * delta,
            "tail_mass": res.tail_mass,
            "residual": res.residual,
            "iterations": res.iterations,
        }

    return [run(m) for m in means]
