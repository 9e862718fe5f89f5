"""2*pi-periodic phase-error distributions held exactly by their
trigonometric moments m_k = <e^{ik Theta}>, k = 0..kmax.

Every distribution produced in this package is a trigonometric polynomial
(finite states, discrete measurements), so the moments are exact and all
polynomial concentration measures are closed-form; only the differential
entropy needs quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError, _is_integer
from .fock import ProbeState, _from_pairs, _to_pairs

DENSITY_FLOOR = -1e-9
HOLEVO_SENTINEL = 1e-14
DEFAULT_ENTROPY_GRID = 8192
# At this limit the doubled grid's 2^23-point real inverse FFT allocates a
# 64 MB half spectrum and a 64 MB density; with the 64 MB p ln p buffer and
# the 8 MB mask of _entropy_on_grid, differential_entropy peaks at about
# 136 MB (measured with tracemalloc).
MAX_ENTROPY_GRID = 1 << 22
ENTROPY_REFINE_TOL = 1e-8


@dataclass(frozen=True)
class PhaseDistribution:
    """Moment vector m_0..m_kmax of a phase-error density on [-pi, pi)."""

    moments: np.ndarray

    def __post_init__(self):
        m = _checked_moments(self.moments)
        object.__setattr__(self, "moments", m)
        dens = density_grid(self, _grid_above(m.size - 1, 4096))
        worst = float(dens.min())
        if worst < DENSITY_FLOOR:
            raise ValidationError(
                f"reconstructed density dips to {worst:.3e} (< {DENSITY_FLOOR})"
            )

    @classmethod
    def _nonnegative(cls, moments) -> "PhaseDistribution":
        """A distribution whose density cannot be negative by construction:
        the moment checks run, the density-grid check is skipped."""
        dist = object.__new__(cls)
        object.__setattr__(dist, "moments", _checked_moments(moments))
        return dist

    @property
    def kmax(self) -> int:
        return self.moments.size - 1

    def to_json(self) -> dict:
        return {
            "kmax": self.kmax,
            "moments": _to_pairs(self.moments),
        }

    @classmethod
    def from_json(cls, data) -> "PhaseDistribution":
        try:
            m = np.array(_from_pairs(data["moments"]))
        except (TypeError, ValueError, KeyError) as exc:
            raise ValidationError(f"malformed distribution data: {exc}") from exc
        return cls(m)


def _checked_moments(moments) -> np.ndarray:
    m = np.asarray(moments, dtype=complex)
    m.setflags(write=False)
    if m.ndim != 1 or m.size < 1:
        raise ValidationError("moments must be a nonempty 1-d vector")
    if m[0] != 1.0:
        raise ValidationError(f"m_0 must be exactly 1, got {m[0]!r}")
    if not np.all(np.abs(m) <= 1 + 1e-12):  # NaN fails too
        raise ValidationError("moments must be finite with magnitudes at most 1")
    return m


def canonical_distribution(state: ProbeState) -> PhaseDistribution:
    """Moments of the canonical phase density (1/2pi)|sum_n c_n e^{in theta}|^2.

    m_k = sum_n c_n conj(c_{n+k}); all moments beyond dim-1 vanish.  They
    are the autocorrelation of c, from one zero-padded FFT.  The density is
    a squared modulus, so the density-grid check of PhaseDistribution is
    skipped.
    """
    m = np.conj(_autocorrelation(state.amplitudes)[state.dim - 1 :])
    m[0] = 1.0
    return PhaseDistribution._nonnegative(m)


def _autocorrelation(x: np.ndarray) -> np.ndarray:
    """sum_m x_{m+k} conj(x_m) along the last axis (length d) at index d-1+k,
    k = -(d-1)..d-1, by one FFT on the power of two at or above 2d points,
    so that no lag wraps around."""
    d = x.shape[-1]
    points = 1 << (2 * d - 1).bit_length()
    spectrum = np.fft.fft(x, points, axis=-1)
    corr = np.fft.ifft(spectrum.real**2 + spectrum.imag**2, axis=-1)
    return np.concatenate([corr[..., points - d + 1 :], corr[..., :d]], axis=-1)


def density_grid(dist: PhaseDistribution, points: int, midpoint: bool = False) -> np.ndarray:
    """Density p(theta_j) = (1/2pi) sum_{|k|<=kmax} m_k e^{-ik theta_j} on the
    uniform grid theta_j = -pi + 2pi j/points (shifted by half a step when
    ``midpoint``), as a float64 array of length ``points``.

    The density is real, so one real inverse FFT of the one-sided spectrum
    k = 0..kmax evaluates it; m_{-k} = conj(m_k) is implied, never stored.
    """
    if not _is_integer(points) or points <= 2 * dist.kmax:
        raise ValidationError("grid must be an integer count with more points than twice kmax")
    m = dist.moments
    offset = -math.pi + (math.pi / points if midpoint else 0.0)
    # e^{-ik theta_j} = e^{-ik offset} e^{-2pi i jk/points}: the grid origin's
    # phase and the 1/2pi are folded into the one-sided spectrum, conjugated
    # because irfft's kernel is e^{+2pi i jk/points}; norm="forward" leaves
    # the sum unscaled.  kmax < points/2, so an even grid's Nyquist bin is 0.
    spec = np.zeros(points // 2 + 1, dtype=complex)
    spec[: m.size] = np.conj(m * np.exp(-1j * offset * np.arange(m.size))) / (2 * math.pi)
    return np.fft.irfft(spec, points, norm="forward")


def mean_square_deviation(dist: PhaseDistribution) -> float:
    """<Theta^2> from the cosine series of theta^2 on [-pi, pi]:
    pi^2/3 + 4 sum_k (-1)^k Re(m_k)/k^2, exact for moment-complete densities."""
    k = np.arange(1, dist.moments.size)
    signs = np.where(k % 2 == 0, 1.0, -1.0)
    return math.pi**2 / 3 + 4.0 * float(np.sum(signs * dist.moments[1:].real / k**2))


def holevo_variance(dist: PhaseDistribution) -> float:
    """|m_1|^-2 - 1; +inf when |m_1| is below the sentinel threshold."""
    if dist.kmax < 1:
        return math.inf
    m1 = abs(complex(dist.moments[1]))
    if m1 < HOLEVO_SENTINEL:
        return math.inf
    return 1.0 / m1**2 - 1.0


def _grid_above(kmax: int, least: int) -> int:
    """The smallest power of two >= the power of two ``least`` that exceeds
    2*kmax, so that a density grid of that many points resolves kmax."""
    return max(least, 1 << (2 * kmax).bit_length())


def differential_entropy(dist: PhaseDistribution, grid_points: int | None = None) -> float:
    """H(Theta) = -int p ln p by the composite midpoint rule.

    p is evaluated by ``density_grid`` on midpoint grids of ``grid_points``
    and 2*``grid_points`` points, one real inverse FFT each.  The result at
    ``grid_points`` must agree with the doubled grid to ENTROPY_REFINE_TOL,
    else ConvergenceError is raised.  ``grid_points`` defaults to the
    smallest power of two >= DEFAULT_ENTROPY_GRID that exceeds 2*kmax
    (DEFAULT_ENTROPY_GRID itself for kmax < DEFAULT_ENTROPY_GRID / 2); a
    given ``grid_points`` must itself exceed 2*kmax.  ``grid_points`` above
    MAX_ENTROPY_GRID is refused before anything is allocated.
    """
    if grid_points is None:
        grid_points = _grid_above(dist.kmax, DEFAULT_ENTROPY_GRID)
    if not _is_integer(grid_points) or grid_points < 64 or grid_points & (grid_points - 1):
        raise ValidationError("grid_points must be a power of two >= 64")
    if grid_points > MAX_ENTROPY_GRID:
        raise ValidationError(f"grid_points must be at most {MAX_ENTROPY_GRID}")
    coarse = _entropy_on_grid(dist, grid_points)
    fine = _entropy_on_grid(dist, 2 * grid_points)
    if abs(fine - coarse) >= ENTROPY_REFINE_TOL:
        raise ConvergenceError(
            f"entropy quadrature not converged at {grid_points} points "
            f"(refinement change {abs(fine - coarse):.3e})"
        )
    return coarse


def _entropy_on_grid(dist: PhaseDistribution, points: int) -> float:
    p = density_grid(dist, points, midpoint=True)
    np.maximum(p, 0.0, out=p)
    # 0 ln 0 = 0: the logarithm is taken where p > 0 and left 0 elsewhere
    plogp = np.log(p, out=np.zeros_like(p), where=p > 0)
    plogp *= p
    return float(-plogp.sum() * (2 * math.pi / points))
