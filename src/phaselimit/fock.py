"""Probe states in the eigenbasis of the phase-shift generator.

A probe is a pure state with amplitudes c_n over the nonnegative-integer
eigenvalues n of the generator.  This module provides the state type, the
mean and the Shannon entropy of its number distribution p_n = |c_n|^2 (read
from the amplitudes), multimode generator specs N = sum_k p_k (N_k)^q, and
the reduction of a multimode probe to the equivalent single-mode state with
the same distribution of N.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, _is_integer

NORM_TOL = 1e-12


@dataclass(frozen=True)
class ProbeState:
    """Pure probe state; ``amplitudes[n]`` is the amplitude on eigenvalue n."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        if amps.ndim != 1 or amps.size < 1:
            raise ValidationError("amplitudes must be a nonempty 1-d vector")
        if not np.all(np.isfinite(amps.view(float))):
            raise ValidationError("amplitudes must be finite")
        norm2 = float(np.sum(np.abs(amps) ** 2))
        if abs(norm2 - 1.0) > NORM_TOL:
            raise ValidationError(f"state not normalized: sum |c_n|^2 = {norm2!r}")

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def to_json(self) -> list:
        return _to_pairs(self.amplitudes)

    @classmethod
    def from_json(cls, data) -> "ProbeState":
        try:
            amps = np.array(_from_pairs(data))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"malformed state data: {exc}") from exc
        return make_state(amps)


def _to_pairs(values) -> list:
    """A complex array as nested lists with [re, im] pairs for its entries."""
    arr = np.ascontiguousarray(values, dtype=complex)
    return arr.view(float).reshape(arr.shape + (2,)).tolist()


def _from_pairs(pairs) -> list:
    """Complex numbers from [re, im] pairs; a malformed pair raises
    TypeError or ValueError, as does an integer too large for a float."""
    try:
        return [complex(re, im) for re, im in pairs]
    except OverflowError as exc:
        raise ValueError(exc) from exc


@dataclass(frozen=True)
class GeneratorSpec:
    """Multimode shift generator N = sum_k passes[k] * (N_k)**exponent.

    ``cutoffs[k]`` is the maximum occupation of mode k, so mode k has
    cutoffs[k] + 1 basis states.
    """

    passes: tuple
    exponent: int
    cutoffs: tuple

    def __post_init__(self):
        try:
            passes, cutoffs = tuple(self.passes), tuple(self.cutoffs)
        except TypeError as exc:
            raise ValidationError("passes and cutoffs must be sequences of integers") from exc
        if not all(_is_integer(v) for v in (*passes, *cutoffs, self.exponent)):
            raise ValidationError("passes, exponent and cutoffs must be integers")
        # held as Python ints, whose eigenvalue sums cannot wrap as numpy's can
        object.__setattr__(self, "passes", tuple(int(p) for p in passes))
        object.__setattr__(self, "cutoffs", tuple(int(c) for c in cutoffs))
        object.__setattr__(self, "exponent", int(self.exponent))
        if len(self.passes) != len(self.cutoffs) or not self.passes:
            raise ValidationError("passes and cutoffs must be nonempty and equal length")
        if any(p < 1 for p in self.passes):
            raise ValidationError("all pass counts must be >= 1")
        if any(c < 1 for c in self.cutoffs):
            raise ValidationError("all cutoffs must be >= 1")
        if self.exponent < 1:
            raise ValidationError("exponent must be >= 1")

    @property
    def mode_count(self) -> int:
        return len(self.passes)

    @property
    def joint_dim(self) -> int:
        return math.prod(c + 1 for c in self.cutoffs)


def make_state(amplitudes) -> ProbeState:
    """Normalize a raw amplitude vector into a ProbeState."""
    amps = np.asarray(amplitudes, dtype=complex)
    if amps.ndim != 1 or amps.size == 0:
        raise ValidationError("amplitude vector must be nonempty and 1-d")
    if not np.all(np.isfinite(amps.view(float))):
        raise ValidationError("amplitude vector contains non-finite entries")
    # Divide by the power of two just above the largest real or imaginary
    # part first, so that the norm of huge or tiny entries neither overflows
    # nor underflows; the scaling is exact, so ordinary inputs round as
    # without it.
    _, exp = np.frexp(np.max(np.abs(amps.view(float))))
    amps = np.ldexp(amps.real, -exp) + 1j * np.ldexp(amps.imag, -exp)
    norm = float(np.linalg.norm(amps))
    if norm == 0.0:
        raise ValidationError("amplitude vector has zero norm")
    return ProbeState(amps / norm)


def mean_number(state: ProbeState) -> float:
    """Mean of the generator eigenvalue, sum_n n |c_n|^2."""
    p = np.abs(state.amplitudes) ** 2
    return float(np.dot(np.arange(state.dim), p))


def number_entropy(state: ProbeState) -> float:
    """Shannon entropy of the number distribution, in nats (0 ln 0 := 0)."""
    p = np.abs(state.amplitudes) ** 2
    p = p[p > 0]
    return max(0.0, float(-np.dot(p, np.log(p))))


def thermal_entropy(nbar: float) -> float:
    """Maximum entropy over number distributions with mean nbar:
    ln(nbar+1) + nbar ln(1 + 1/nbar), continuous at nbar = 0."""
    if not math.isfinite(nbar) or nbar < 0:
        raise ValidationError("nbar must be finite and nonnegative")
    if nbar == 0:
        return 0.0
    return math.log(nbar + 1.0) + nbar * math.log1p(1.0 / nbar)


def generator_eigenvalue(spec: GeneratorSpec, occupations) -> int:
    """Eigenvalue sum_k p_k * n_k**q for a joint occupation tuple."""
    try:
        occ = tuple(occupations)
    except TypeError as exc:
        raise ValidationError("occupations must be a sequence of integers") from exc
    if not all(_is_integer(n) for n in occ):
        raise ValidationError("occupations must be integers")
    occ = tuple(int(n) for n in occ)
    if len(occ) != spec.mode_count:
        raise ValidationError("occupation vector length does not match mode count")
    for n, c in zip(occ, spec.cutoffs):
        if not 0 <= n <= c:
            raise ValidationError(f"occupation {n} outside [0, {c}]")
    return sum(p * n**spec.exponent for p, n in zip(spec.passes, occ))


def reduce_to_single_mode(spec: GeneratorSpec, multimode_amplitudes) -> ProbeState:
    """Collapse a joint multimode state onto the spectrum of N.

    The joint basis is ordered lexicographically with mode 0 slowest
    (C order over the per-mode ranges).  The result is the single-mode state
    with amplitudes sqrt(p_m), where p_m is the total probability of
    eigenvalue m; phases are discarded since only the distribution of N
    enters the bounds.
    """
    try:
        amps = np.asarray(multimode_amplitudes, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed joint amplitudes: {exc}") from exc
    if amps.shape != (spec.joint_dim,):
        raise ValidationError(
            f"expected a vector of {spec.joint_dim} joint amplitudes, got shape {amps.shape}"
        )
    norm2 = float(np.sum(np.abs(amps) ** 2))
    if abs(norm2 - 1.0) > NORM_TOL:
        raise ValidationError("multimode amplitudes are not normalized")

    # numpy's int64 eigenvalues below would wrap silently past 2^63
    if sum(p * c**spec.exponent for p, c in zip(spec.passes, spec.cutoffs)) >= 1 << 63:
        raise ValidationError("generator eigenvalues exceed the int64 range")
    # eigenvalue of every joint basis state, in the same C order
    eigvals = functools.reduce(
        np.add.outer,
        [p * np.arange(c + 1) ** spec.exponent for p, c in zip(spec.passes, spec.cutoffs)],
    ).ravel()
    probs = np.bincount(eigvals, weights=np.abs(amps) ** 2)
    probs = probs[: int(np.nonzero(probs)[0].max()) + 1]
    return ProbeState(np.sqrt(probs / probs.sum()).astype(complex))
