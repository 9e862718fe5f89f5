"""Seeded inputs for the four benchmark workloads.

Each workload is a fixed list of ops (one ``phaselimit`` command each) made
from the seed alone, plus one fixed warm-up op.  Every seed covers the same
size classes or strata in the same proportions and draws the contents (means,
states, POMs) and the order, so two seeds give different inputs with the
same mix of costs; the run-level medians then depend on the program, not on
which seed was drawn.

Every op writes JSON to its own ``--out`` file; ``expect`` carries what the
output checks need, computed here from the generated inputs without calling
the package.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("fig2-exact", "fig2-surrogate", "pom-simulate", "state-bounds")

TWO_PI = 2 * math.pi


@dataclass
class Op:
    kind: str  # curve | simulate | discriminate | bounds
    argv: list
    out: Path
    expect: dict = field(default_factory=dict)
    input_bytes: int = 0
    element_bytes: int = 0  # POM element storage, computed from array shapes


@dataclass
class Workload:
    warmup: Op
    ops: list


def build(name: str, seed: int, workdir: Path, tiny: bool = False) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` under ``workdir``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    make = {
        "fig2-exact": _fig2_exact,
        "fig2-surrogate": _fig2_surrogate,
        "pom-simulate": _pom_simulate,
        "state-bounds": _state_bounds,
    }[name]
    warmup, ops = make(rng, workdir, tiny)
    return Workload(warmup, ops)


def stratified(rng, lo: float, hi: float, count: int) -> np.ndarray:
    """One log-uniform draw from each of ``count`` equal log-width strata of
    [lo, hi], in a seeded random order."""
    edges = np.log(lo) + (np.arange(count) + rng.uniform(size=count)) * (
        (np.log(hi) - np.log(lo)) / count
    )
    return np.exp(rng.permutation(edges))


# -- fig2 curves ------------------------------------------------------------


def _curve_op(kind: str, means, out: Path) -> Op:
    text = ",".join(f"{m:.6g}" for m in means)
    targets = [float(x) for x in text.split(",")]
    argv = ["curve", "--kind", kind, "--means", text, "--format", "json", "--out", str(out)]
    return Op("curve", argv, out, {"kind": kind, "means": targets, "mean_tol": 1e-8})


def _fig2_exact(rng, workdir: Path, tiny: bool):
    # Each op is a whole Fig.-2 grid: 8-12 geometrically spaced means from
    # 0.5 to a top mean near 32 (dims 64-270), each interior mean jittered
    # by up to a quarter of its step.  Every seed gets each grid size twice,
    # so all seeds share one mix of op costs; neighbouring means are close
    # enough for a warm start.
    sizes, top = ([3, 4], 3.0) if tiny else ([8, 9, 10, 11, 12] * 2, 32.0)
    ops = []
    for i, n in enumerate(rng.permutation(sizes)):
        grid = np.geomspace(0.5, top * math.exp(rng.uniform(-0.03, 0.03)), n)
        step = math.log(grid[1] / grid[0])
        grid[1:-1] *= np.exp(0.25 * step * rng.uniform(-1, 1, n - 2))
        ops.append(_curve_op("exact", grid, workdir / f"op{i}.json"))
    return _curve_op("exact", [1.0, 2.0], workdir / "warmup.json"), ops


def _fig2_surrogate(rng, workdir: Path, tiny: bool):
    # Decade-spaced means c, 10c, 100c, 1000c with c near 0.4: the two lower
    # means stay at dim 64, 100c lands near dim 320 on the dense branch and
    # 1000c near dim 3200 on the sparse branch (SPARSE_THRESHOLD is 512), so
    # both eigensolver paths run in every op.  The jitter is small because a
    # dense solve costs dim^3: 5% on a mean moves the op's cost by 15%.
    count, decades = (2, 3) if tiny else (10, 4)
    ops = []
    for i in range(count):
        means = 0.4 * 10.0 ** np.arange(decades) * np.exp(rng.uniform(-0.015, 0.015, decades))
        ops.append(_curve_op("surrogate", means, workdir / f"op{i}.json"))
    return _curve_op("surrogate", [1.0, 100.0], workdir / "warmup.json"), ops


# -- POM simulation ---------------------------------------------------------


def random_state(rng, dim: int) -> np.ndarray:
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return amps / np.linalg.norm(amps)


def random_povm(rng, dim: int, n_outcomes: int):
    """Random PSD blocks conjugated by S^{-1/2} so they sum to the identity,
    with sorted uniform estimates in [0, 2*pi)."""
    r = rng.standard_normal((n_outcomes, dim, dim)) + 1j * rng.standard_normal(
        (n_outcomes, dim, dim)
    )
    blocks = r @ np.conj(np.swapaxes(r, 1, 2))
    vals, vecs = np.linalg.eigh(blocks.sum(axis=0))
    inv_sqrt = (vecs * (1.0 / np.sqrt(vals))) @ vecs.conj().T
    elements = inv_sqrt @ blocks @ inv_sqrt
    elements = 0.5 * (elements + np.conj(np.swapaxes(elements, 1, 2)))
    estimates = np.sort(rng.uniform(0, TWO_PI, n_outcomes))
    return estimates, elements


def phase_grid_moments(amps, estimates, elements) -> np.ndarray:
    """Moments m_k, k = 0..dim-1, of the phase-averaged error estimate - phi,
    by the uniform-grid rule over phi.

    p(j|phi) is a trigonometric polynomial of degree dim-1, so the integrand
    e^{-ik phi} p(j|phi) has degree below 2*dim and a grid of 4*dim phases
    integrates it exactly.
    """
    d = amps.size
    points = 4 * d
    phi = TWO_PI * np.arange(points) / points
    n = np.arange(d)
    shifted = amps[None, :] * np.exp(-1j * np.outer(phi, n))  # (phi, n)
    probs = np.einsum("pm,jmn,pn->jp", np.conj(shifted), elements, shifted, optimize=True).real
    k = np.arange(d)
    spectra = probs @ np.exp(-1j * np.outer(phi, k)) / points  # (j, k)
    return np.sum(np.exp(1j * np.outer(estimates, k)) * spectra, axis=0)


def _write_json_rows(path: Path, text_parts) -> int:
    with open(path, "w") as fh:
        for part in text_parts:
            fh.write(part)
    return path.stat().st_size


def write_state(path: Path, amps) -> int:
    pairs = np.stack([amps.real, amps.imag], axis=-1).tolist()
    return _write_json_rows(path, [json.dumps(pairs)])


def write_povm(path: Path, estimates, elements) -> int:
    """Stream the POM one outcome at a time, so the benchmark never holds
    the whole JSON text."""

    def parts():
        yield '{"outcomes": ['
        for j, (est, el) in enumerate(zip(estimates, elements)):
            matrix = np.stack([el.real, el.imag], axis=-1).tolist()
            yield ("," if j else "") + json.dumps({"estimate": float(est), "matrix": matrix})
        yield "]}"

    return _write_json_rows(path, parts())


def _simulate_op(rng, dim: int, n_outcomes: int, workdir: Path, tag: str) -> Op:
    amps = random_state(rng, dim)
    estimates, elements = random_povm(rng, dim, n_outcomes)
    state_path, pom_path = workdir / f"{tag}-state.json", workdir / f"{tag}-pom.json"
    size = write_state(state_path, amps) + write_povm(pom_path, estimates, elements)
    out = workdir / f"{tag}.json"
    argv = ["simulate", "--povm", str(pom_path), "--state", str(state_path),
            "--format", "json", "--out", str(out)]
    expect = {
        "moments": phase_grid_moments(amps, estimates, elements),
        "mean_number": float(np.dot(np.arange(dim), np.abs(amps) ** 2)),
    }
    return Op("simulate", argv, out, expect, size, elements.size * 16)


def _discriminate_op(K: int, workdir: Path, tag: str) -> Op:
    out = workdir / f"{tag}.json"
    argv = ["discriminate", "--K", str(K), "--format", "json", "--out", str(out)]
    return Op("discriminate", argv, out, {"K": K}, 0, K**3 * 16)


# One round of pom-simulate: (dim, outcomes) of each simulate op and K of
# each discriminate op.  Op costs range from milliseconds to about a second;
# the middle class (32, 16) holds the median and the two K = 128 ops the
# tail, so both fall inside a class of like ops rather than between classes.
SIMULATE_SIZES = ((8, 8), (16, 4), (16, 16)) + ((32, 16),) * 4 + ((64, 16), (64, 64))
DISCRIMINATE_KS = (16, 32, 64, 128, 128)


def _pom_simulate(rng, workdir: Path, tiny: bool):
    # Simulate on random POMs, where parsing and validating the POM
    # dominate, and discriminate, where the K-phase construction and the
    # per-phase sweep do.  The construction stores K^3 complex entries, so K
    # is capped at 128 (K = 2000 would need about 128 GB).
    rounds, sim_sizes, ks = (1, ((8, 4),), (8,)) if tiny else (3, SIMULATE_SIZES, DISCRIMINATE_KS)
    ops = []
    for r in range(rounds):
        for i, (d, n_out) in enumerate(sim_sizes):
            ops.append(_simulate_op(rng, d, n_out, workdir, f"sim{r}-{i}"))
        for i, K in enumerate(ks):
            ops.append(_discriminate_op(K, workdir, f"disc{r}-{i}"))
    ops = [ops[i] for i in rng.permutation(len(ops))]
    warm = _simulate_op(np.random.default_rng(0), 8, 4, workdir, "warmup")
    return warm, ops


# -- bounds reports ---------------------------------------------------------


def _bounds_op(amps, workdir: Path, tag: str) -> Op:
    state_path = workdir / f"{tag}-state.json"
    size = write_state(state_path, amps)
    out = workdir / f"{tag}.json"
    argv = ["bounds", "--state", str(state_path), "--format", "json", "--out", str(out)]
    expect = {"mean_number": float(np.dot(np.arange(amps.size), np.abs(amps) ** 2))}
    return Op("bounds", argv, out, expect, size)


def _state_bounds(rng, workdir: Path, tiny: bool):
    # Random complex states with dims log-uniform over 2-512.  At the
    # default entropy grid most states of dim 128 and above fail the
    # refinement test (exit 2); those dims stay in so that the failures
    # show in the failed-op count.
    count, dim_hi = (8, 16) if tiny else (512, 512)
    ops = [
        _bounds_op(random_state(rng, min(int(d), dim_hi)), workdir, f"st{i}")
        for i, d in enumerate(stratified(rng, 2, dim_hi + 1, count))
    ]
    warm = _bounds_op(random_state(np.random.default_rng(0), 16), workdir, "warmup")
    return warm, ops
