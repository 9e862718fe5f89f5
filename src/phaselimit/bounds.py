"""Analytic constants and inequality chains bounding random-phase estimation.

The variance bound constant is k_A = sqrt(2*pi/e^3) and the conjectured
asymptotically optimal constant is k_C = 2(-z_A/3)^{3/2}, with z_A the first
negative zero of the Airy function Ai.  z_A is the tabulated value
(Abramowitz & Stegun 10.4.94; DLMF Table 9.9.1) rounded to the nearest
double, so no special-function evaluation is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError
from .fock import ProbeState, mean_number, number_entropy, thermal_entropy
from .phasedist import canonical_distribution, differential_entropy, mean_square_deviation

# First zero of Ai, -2.33810 74104 59767 03849..., correctly rounded.
Z_A = -2.338107410459767

TWO_PI = 2 * math.pi


def airy_first_zero() -> float:
    """First negative zero z_A of Ai, the tabulated constant Z_A."""
    return Z_A


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
