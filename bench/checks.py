"""Output checks, one per command.  Each returns a list of failure reasons;
an empty list means the output passed.  The reference values (k_C from
scipy's Airy zeros, moments from a phase-grid quadrature) are computed
without the package under test."""

from __future__ import annotations

import math

import numpy as np
import scipy.special

K_C = 2.0 * (-float(scipy.special.ai_zeros(1)[0][0]) / 3.0) ** 1.5
TAIL_TOL = 1e-10
MOMENT_TOL = 1e-6
KPHASE_TOL = 1e-12
MEAN_NUMBER_TOL = 1e-9


def check(op, data: dict) -> list:
    if data.get("schema") != "phaselimit/1":
        return ["schema"]
    return {
        "curve": _curve,
        "simulate": _simulate,
        "discriminate": _discriminate,
        "bounds": _bounds,
    }[op.kind](op.expect, data)


def _curve(expect, data) -> list:
    rows = data["rows"]
    targets = expect["means"]
    if len(rows) != len(targets):
        return ["curve.row_count"]
    bad = []
    for row, target in zip(rows, targets):
        if not abs(row["mean"] - target) <= expect["mean_tol"] * (1.0 + target):
            bad.append("curve.mean_tol")
        if not row["tail_mass"] < TAIL_TOL:
            bad.append("curve.tail_mass")
        if not math.isfinite(row["residual"]):
            bad.append("curve.residual")
        if not row["product"] >= K_C - 1e-6:
            bad.append("curve.product_below_kC")
    # The exact-cost product falls monotonically towards its asymptote; the
    # surrogate product rises below mean ~1, so only the floor applies to it.
    products = [row["product"] for row in rows]
    if expect["kind"] == "exact" and any(b > a * (1 + 1e-9) for a, b in zip(products, products[1:])):
        bad.append("curve.product_increases")
    return sorted(set(bad))


def _simulate(expect, data) -> list:
    sim = data["simulation"]
    bad = []
    if not sim["heisenberg_margin"] > 0:
        bad.append("simulate.heisenberg_margin")
    if not sim["conjectured_margin"] > 0:
        bad.append("simulate.conjectured_margin")
    if not abs(sim["mean_number"] - expect["mean_number"]) <= MEAN_NUMBER_TOL * (1 + expect["mean_number"]):
        bad.append("simulate.mean_number")
    got = np.array([complex(re, im) for re, im in sim["moments"]["moments"]])
    want = expect["moments"]
    if got.shape != want.shape or np.max(np.abs(got - want)) > MOMENT_TOL:
        bad.append("simulate.moments")
    return bad


def _discriminate(expect, data) -> list:
    rep = data["discrimination"]
    K = expect["K"]
    bad = []
    if rep["K"] != K or len(rep["success_probabilities"]) != K or len(rep["per_phase_variance"]) != K:
        return ["discriminate.shape"]
    if not rep["gram_identity_error"] <= KPHASE_TOL:
        bad.append("discriminate.gram_identity")
    if not all(abs(p - 1.0) <= KPHASE_TOL for p in rep["success_probabilities"]):
        bad.append("discriminate.success_probability")
    if not all(0.0 <= v <= KPHASE_TOL for v in rep["per_phase_variance"]):
        bad.append("discriminate.per_phase_variance")
    return bad


def _bounds(expect, data) -> list:
    rep = data["bound_report"]
    bad = []
    if rep["all_satisfied"] is not True:
        bad.append("bounds.all_satisfied")
    if not abs(rep["mean_number"] - expect["mean_number"]) <= MEAN_NUMBER_TOL * (1 + expect["mean_number"]):
        bad.append("bounds.mean_number")
    return bad
