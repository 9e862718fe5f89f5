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
LAPACK storage, 3 x dim): up to DENSE_EIGH_MAX_DIM the band is solved by
LAPACK's banded subset solver, above it a banded Cholesky factor is both the
shift-invert operator and the certificate that B(lambda) is positive
definite.  One eigensolver serves both kinds; its method follows the
dimension and the storage.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from . import bounds
from .errors import ConvergenceError, ValidationError
from .fock import ProbeState

DENSE_DIM_LIMIT = 4096
SPARSE_DIM_LIMIT = 1 << 20
DENSE_EIGH_MAX_DIM = 256  # above it shift-invert Lanczos beats the subset solvers
SURROGATE_BAND = (2.5, -4.0 / 3.0, 1.0 / 12.0)  # diagonal, offsets 1 and 2
TAIL_TOL = 1e-10
RESIDUAL_TOL = 1e-9
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


def min_eigenpair(matrix, seed: int = 0):
    """Algebraically smallest eigenvalue and unit eigenvector of a symmetric
    matrix, dense or a SymmetricBand, with a certified residual
    ||Av - mu v|| <= 1e-9 ||A||_inf.

    Up to DENSE_EIGH_MAX_DIM a LAPACK subset solver runs on the matrix:
    ``eigh`` for a dense matrix, ``eig_banded`` for a band.  Above it,
    shift-invert Lanczos at sigma=0 finds the eigenvalue nearest 0, which is
    the smallest only for a positive definite matrix.  A band is factored by
    banded Cholesky, which certifies that it is positive definite (else
    ValidationError) and is the shift-invert operator.  A dense matrix is
    LU-factored by scipy, and only a nonpositive result is rejected, so an
    indefinite dense matrix whose eigenvalue nearest 0 is positive passes
    unnoticed.  The start vector is drawn from ``seed``, so runs repeat.
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
    elif not np.isfinite(band.band).all():
        # the LAPACK calls below skip their own finiteness checks
        raise ValidationError("matrix entries must be finite")
    n = matrix.shape[0]
    if n <= DENSE_EIGH_MAX_DIM:
        if band is None:
            vals, vecs = scipy.linalg.eigh(matrix, subset_by_index=[0, 0])
        else:
            vals, vecs = scipy.linalg.eig_banded(
                band.band, lower=True, select="i", select_range=(0, 0), check_finite=False
            )
    else:
        v0 = np.random.default_rng(seed).standard_normal(n)
        op, op_inv = matrix, None
        if band is not None:
            try:
                factor = scipy.linalg.cholesky_banded(band.band, lower=True, check_finite=False)
            except np.linalg.LinAlgError:
                raise ValidationError("matrix is not positive definite") from None
            op = scipy.sparse.linalg.LinearOperator(
                (n, n), matvec=lambda x: band @ x.ravel(), dtype=float
            )
            op_inv = scipy.sparse.linalg.LinearOperator(
                (n, n),
                matvec=lambda x: scipy.linalg.cho_solve_banded(
                    (factor, True), x, check_finite=False
                ),
                dtype=float,
            )
        try:
            vals, vecs = scipy.sparse.linalg.eigsh(
                op, k=1, sigma=0.0, which="LM", OPinv=op_inv, v0=v0, tol=1e-12
            )
        except scipy.sparse.linalg.ArpackNoConvergence as exc:
            raise ConvergenceError(f"sparse eigensolver did not converge: {exc}") from exc
        if not vals[0] > 0:
            raise ValidationError("matrix is not positive definite")
    mu, v = float(vals[0]), vecs[:, 0]
    v = v / np.linalg.norm(v)
    residual = float(np.linalg.norm(matrix @ v - mu * v))
    if band is None:
        norm_est = float(abs(matrix).sum(axis=1).max())
    else:
        norm_est = float((SymmetricBand(abs(band.band)) @ np.ones(n)).max())
    if residual > RESIDUAL_TOL * norm_est:
        raise ConvergenceError(
            f"eigenpair residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e}*||A|| = "
            f"{RESIDUAL_TOL * norm_est:.3e}"
        )
    return mu, v, residual


def solve_at_multiplier(kind: CostKind, dim: int, lam: float, seed: int = 0):
    """Smallest eigenpair of A + lam*diag(n) and the achieved mean.

    Returns (mu, state_vector, mean, residual).  The achieved mean is
    nonincreasing in lam.
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
    mu, v, residual = min_eigenpair(b, seed=seed)
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

    def solve(lam):
        nonlocal iterations
        iterations += 1
        return solve_at_multiplier(kind, dim, lam, seed=seed)

    # Secant on y = log(mean+1) against x = log(lambda), started on the
    # large-mean asymptote and kept inside the bracket lo < lambda < hi of
    # the multipliers tried so far (the mean is nonincreasing in lambda).
    # The unconstrained (lambda=0) solve only tests feasibility, so it runs
    # only when a multiplier has landed below the target with no multiplier
    # above it yet; its point never enters the secant or the bracket.
    y_target = math.log1p(target_mean)
    lo, hi = 0.0, math.inf
    lam = 2.0 * bounds.k_C() ** 2 / (target_mean + 1.0) ** 3
    slope = ASYMPTOTIC_SLOPE
    last = None
    feasible = False
    while True:
        mu, v, mean, residual = solve(lam)
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
