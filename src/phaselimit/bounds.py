"""Analytic constants and inequality chains bounding random-phase estimation.

The variance bound constant is k_A = sqrt(2*pi/e^3) and the conjectured
asymptotically optimal constant is k_C = 2(-z_A/3)^{3/2}, with z_A the first
negative zero of the Airy function Ai.  Ai is evaluated from its Maclaurin
series (adequate for |z| < 2.4), so no special-function library is needed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import ConvergenceError, ValidationError
from .fock import ProbeState, mean_number, number_entropy, thermal_entropy
from .phasedist import canonical_distribution, differential_entropy, mean_square_deviation

_SERIES_TOL = 1e-18
# Ai(0) = 3^(-2/3)/Gamma(2/3), Ai'(0) = -3^(-1/3)/Gamma(1/3)
_AI0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)
_AIP0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)

TWO_PI = 2 * math.pi


def airy_ai(z: float) -> float:
    """Ai(z) = Ai(0) f(z) + Ai'(0) g(z) by the Maclaurin series."""
    f_term, g_term = 1.0, z
    f_sum, g_sum = f_term, g_term
    z3 = z**3
    k = 0
    while abs(f_term) > _SERIES_TOL or abs(g_term) > _SERIES_TOL:
        f_term *= z3 / ((3 * k + 2) * (3 * k + 3))
        g_term *= z3 / ((3 * k + 3) * (3 * k + 4))
        f_sum += f_term
        g_sum += g_term
        k += 1
    return _AI0 * f_sum + _AIP0 * g_sum


def airy_ai_prime(z: float) -> float:
    """Ai'(z), termwise derivative of the Maclaurin series."""
    z3 = z**3
    # f'(z): terms 3k z^{3k-1} a_k, k >= 1; g'(z): terms (3k+1) z^{3k} b_k.
    f_term = z**2 / 2.0  # k = 1 term of f': 3 z^2 / 6
    f_sum = f_term
    g_term = 1.0
    g_sum = g_term
    k = 1
    while abs(f_term) > _SERIES_TOL or abs(g_term) > _SERIES_TOL:
        f_term *= z3 * (3 * k + 3) / ((3 * k) * (3 * k + 2) * (3 * k + 3))
        g_term *= z3 * (3 * k + 1) / ((3 * k - 2) * (3 * k) * (3 * k + 1))
        f_sum += f_term
        g_sum += g_term
        k += 1
    return _AI0 * f_sum + _AIP0 * g_sum


@functools.cache
def airy_first_zero() -> float:
    """First negative zero z_A of Ai, bracketed in (-2.4, -2.3),
    located by bisection and polished by Newton steps.  Computed once per
    process."""
    lo, hi = -2.4, -2.3
    f_lo = airy_ai(lo)
    if f_lo * airy_ai(hi) >= 0:
        raise ConvergenceError("Airy zero not bracketed in (-2.4, -2.3)")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        f_mid = airy_ai(mid)
        if f_lo * f_mid <= 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    z = 0.5 * (lo + hi)
    for _ in range(8):
        z -= airy_ai(z) / airy_ai_prime(z)
    if abs(airy_ai(z)) >= 1e-13:
        raise ConvergenceError(f"Airy zero refinement stalled at Ai(z) = {airy_ai(z):.3e}")
    return z


def k_A() -> float:
    """sqrt(2*pi/e^3), the proven variance-bound constant."""
    return math.sqrt(TWO_PI) * math.exp(-1.5)


def k_C() -> float:
    """2(-z_A/3)^{3/2}, the conjectured asymptotically optimal constant."""
    return 2.0 * (-airy_first_zero() / 3.0) ** 1.5


def heisenberg_bound(nbar: float) -> float:
    """Proven lower bound k_A/(nbar+1) on the rms average phase error."""
    if not math.isfinite(nbar) or nbar < 0:
        raise ValidationError("nbar must be finite and nonnegative")
    return k_A() / (nbar + 1.0)


def conjectured_bound(nbar: float) -> float:
    """Conjectured lower bound k_C/(nbar+1) on the rms average phase error."""
    if not math.isfinite(nbar) or nbar < 0:
        raise ValidationError("nbar must be finite and nonnegative")
    return k_C() / (nbar + 1.0)


@dataclass(frozen=True)
class BoundEntry:
    name: str
    lhs: float
    rhs: float
    relation: str  # ">" or ">="
    satisfied: bool
    margin: float
    informational: bool = False

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "relation": self.relation,
            "satisfied": self.satisfied,
            "margin": self.margin,
            "informational": self.informational,
        }


@dataclass(frozen=True)
class BoundReport:
    entries: tuple
    mean_number: float

    @property
    def all_satisfied(self) -> bool:
        return all(e.satisfied for e in self.entries if not e.informational)

    def to_json(self) -> dict:
        return {
            "mean_number": self.mean_number,
            "all_satisfied": self.all_satisfied,
            "entries": [e.to_json() for e in self.entries],
        }

    def to_text(self) -> str:
        width = max(len(e.name) for e in self.entries)
        lines = [f"mean_number = {self.mean_number:.12g}"]
        for e in self.entries:
            status = "ok" if e.satisfied else "VIOLATED"
            info = "  (informational)" if e.informational else ""
            lines.append(
                f"{e.name:<{width}}  {e.lhs: .12e} {e.relation} {e.rhs: .12e}"
                f"  margin {e.margin: .3e}  {status}{info}"
            )
        return "\n".join(lines)


def _entry(name, lhs, rhs, relation, informational=False) -> BoundEntry:
    margin = lhs - rhs
    if relation == ">=":
        satisfied = margin >= -1e-10
    else:
        satisfied = margin > 0
    return BoundEntry(name, float(lhs), float(rhs), relation, satisfied, float(margin), informational)


def entropy_chain_report(state: ProbeState) -> BoundReport:
    """Evaluate the entropic inequality chain on a probe state.

    Theta-side quantities come from the canonical phase distribution of the
    state, which by the reduction lemma bounds every estimation strategy with
    the same number distribution.
    """
    nbar = mean_number(state)
    h_n = number_entropy(state)
    dist = canonical_distribution(state)
    msd = mean_square_deviation(dist)
    h_theta = differential_entropy(dist)
    length = math.exp(h_theta)

    ent_rhs = (TWO_PI / math.e) * math.exp(-2.0 * h_n)
    mean_rhs = (TWO_PI / math.e**3) / (nbar + 1.0) ** 2
    len_ent_rhs = TWO_PI * math.exp(-h_n)
    len_mean_rhs = (TWO_PI / math.e) / (nbar + 1.0)

    entries = (
        _entry("entropic_uncertainty", h_theta + h_n, math.log(TWO_PI), ">="),
        _entry("msd_vs_entropy_bound", msd, ent_rhs, ">"),
        _entry("entropy_bound_vs_mean_bound", ent_rhs, mean_rhs, ">"),
        _entry("heisenberg_variance_bound", math.sqrt(msd), k_A() / (nbar + 1.0), ">"),
        _entry("length_vs_entropy_bound", length, len_ent_rhs, ">="),
        _entry("length_entropy_vs_mean_bound", len_ent_rhs, len_mean_rhs, ">"),
        # Sharper variant of the mean-number bound using the exact thermal
        # entropy instead of the weakened constant; reported for information.
        _entry(
            "msd_vs_thermal_entropy_bound",
            msd,
            (TWO_PI / math.e) * math.exp(-2.0 * thermal_entropy(nbar)),
            ">",
            informational=True,
        ),
    )
    return BoundReport(entries=entries, mean_number=nbar)
