"""Command-line front end.

Commands:
  constants     print k_A, k_C and the Airy zero z_A
  bounds        entropy/variance inequality report for a probe state
  optimize      minimize the phase-error cost at a target mean
  curve         minimum-product curve over a list of means (Fig.-2 style data)
  simulate      average-error statistics of a measurement on a state
  discriminate  K-phase perfect-discrimination construction

Exit status: 0 success, 1 validation error, 2 numerical non-convergence.
CSV column order is fixed as shown in --help for each command.  JSON output
carries a top-level "schema": "phaselimit/1".
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import tempfile

from . import bounds, fock, optimizer, phasedist, povm
from .errors import ConvergenceError, ValidationError

SCHEMA = "phaselimit/1"

CURVE_COLUMNS = [
    "mean", "dim", "lambda", "cost", "delta", "product",
    "tail_mass", "residual", "iterations",
]


def _emit(text: str, out_path: str | None):
    """Write to stdout, or atomically to a file (temp file + rename)."""
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".phaselimit-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_text(payload: dict) -> str:
    payload = {"schema": SCHEMA, **payload}
    return json.dumps(payload, indent=2, allow_nan=False)


def _jsonable(x):
    if isinstance(x, float) and math.isinf(x):
        return "unbounded"
    return x


def _load_state(spec: str) -> fock.ProbeState:
    text = spec
    if os.path.exists(spec):
        with open(spec) as fh:
            text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"state is neither a file nor valid JSON: {exc}") from exc
    return fock.ProbeState.from_json(data)


def _load_povm(path: str) -> povm.EstimatePOM:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read POM file {path}: {exc}") from exc
    return povm.EstimatePOM.from_json(data)


def _cmd_constants(args):
    za = bounds.airy_first_zero()
    if args.format == "json":
        return _json_text({"k_A": bounds.k_A(), "k_C": bounds.k_C(), "z_A": za})
    return "\n".join(
        f"{name} = {value:.12f}"
        for name, value in [("k_A", bounds.k_A()), ("k_C", bounds.k_C()), ("z_A", za)]
    )


def _cmd_bounds(args):
    report = bounds.entropy_chain_report(_load_state(args.state))
    if args.format == "json":
        return _json_text({"bound_report": report.to_json()})
    return report.to_text()


def _cmd_optimize(args):
    result = optimizer.optimize_at_mean(
        _kind(args.kind), args.mean, dim=args.dim, mean_tol=args.mean_tol, seed=args.seed
    )
    return _json_text({"optimization": result.to_json()})


def _curve_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CURVE_COLUMNS)
    for row in rows:
        writer.writerow([repr(row[c]) if isinstance(row[c], float) else row[c] for c in CURVE_COLUMNS])
    return buf.getvalue()


def _cmd_curve(args):
    try:
        means = [float(x) for x in args.means.split(",")]
    except ValueError as exc:
        raise ValidationError(f"--means must be comma-separated numbers: {exc}") from exc
    rows = optimizer.figure2_curve(
        _kind(args.kind), means, dim=args.dim, mean_tol=args.mean_tol, seed=args.seed
    )
    if args.format == "json":
        return _json_text({"kind": args.kind, "columns": CURVE_COLUMNS, "rows": rows})
    return _curve_csv(rows)


def _cmd_simulate(args):
    state = _load_state(args.state)
    pom = _load_povm(args.povm)
    dist = povm.average_distribution(pom, state)
    nbar = fock.mean_number(state)
    msd = phasedist.mean_square_deviation(dist)
    delta = math.sqrt(msd)
    entropy = phasedist.differential_entropy(dist, args.grid)
    hb = bounds.heisenberg_bound(nbar)
    cb = bounds.conjectured_bound(nbar)
    payload = {
        "mean_number": nbar,
        "moments": dist.to_json(),
        "mean_square_deviation": msd,
        "delta": delta,
        "holevo_variance": _jsonable(phasedist.holevo_variance(dist)),
        "entropy": entropy,
        "ensemble_length": math.exp(entropy),
        "heisenberg_bound": hb,
        "heisenberg_margin": delta - hb,
        "conjectured_bound": cb,
        "conjectured_margin": delta - cb,
    }
    if args.format == "json":
        return _json_text({"simulation": payload})
    lines = [f"{k} = {v}" for k, v in payload.items() if k != "moments"]
    return "\n".join(lines)


def _cmd_discriminate(args):
    state, _, report = povm.kphase_construction(args.K)
    if args.format == "json":
        return _json_text({"discrimination": report, "state": state.to_json()})
    lines = [
        f"K = {report['K']}",
        f"mean_number = {report['mean_number']}",
        f"gram_identity_error = {report['gram_identity_error']:.3e}",
        f"success_probabilities = {report['success_probabilities']}",
        f"per_phase_variance = {report['per_phase_variance']}",
    ]
    return "\n".join(lines)


def _kind(name: str) -> optimizer.CostKind:
    return optimizer.CostKind.EXACT_SQUARE if name == "exact" else optimizer.CostKind.SURROGATE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phaselimit", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fmt_default="json"):
        p.add_argument("--format", choices=["csv", "json", "text"], default=fmt_default)
        p.add_argument("--out", default=None, help="write output atomically to PATH")

    p = sub.add_parser("constants", help="print k_A, k_C, z_A to 12 digits")
    common(p, "text")
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("bounds", help="inequality-chain report for a state")
    p.add_argument("--state", required=True, help="JSON file or inline JSON [[re,im],...]")
    common(p, "text")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("optimize", help="minimize cost at a target mean")
    p.add_argument("--kind", choices=["exact", "surrogate"], default="exact")
    p.add_argument("--mean", type=float, required=True)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--mean-tol", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser(
        "curve",
        help="minimum-product curve; CSV columns: " + ",".join(CURVE_COLUMNS),
    )
    p.add_argument("--kind", choices=["exact", "surrogate"], default="exact")
    p.add_argument("--means", required=True, help="comma-separated ascending means")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--mean-tol", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=0)
    common(p, "csv")
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("simulate", help="average-error statistics of a POM on a state")
    p.add_argument("--povm", required=True, help="POM JSON file")
    p.add_argument("--state", required=True, help="JSON file or inline JSON")
    p.add_argument("--grid", type=int, default=phasedist.DEFAULT_ENTROPY_GRID)
    common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("discriminate", help="K-phase perfect discrimination demo")
    p.add_argument("--K", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_discriminate)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built once per process: building it costs more than
    parsing (about 1.3 ms against a 2 ms small op), and parse_args fills a
    fresh namespace from the defaults on every call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _emit(args.func(args), args.out)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
