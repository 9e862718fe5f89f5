"""Command-line front end.

Commands:
  constants     print k_A, k_C and the Airy zero z_A
  bounds        entropy/variance inequality report for a probe state
  optimize      minimize the phase-error cost at a target mean
  curve         minimum-product curve over a list of means (Fig.-2 style data)
  simulate      average-error statistics of a measurement on a state
  discriminate  K-phase perfect-discrimination construction

Formats (--format, default first): constants and bounds text|json, curve
csv|json, simulate and discriminate json|text, optimize json.
Exit status: 0 success (--help too), 1 validation or usage error, 2
numerical non-convergence; an error is one line on stderr.  CSV column
order is fixed as shown in --help for each command.  JSON output carries a
top-level "schema": "phaselimit/1".
"""

from __future__ import annotations

import argparse
import csv
import functools
import gc
import io
import json
import math
import os
import sys

from . import bounds, fock, optimizer, phasedist, povm
from .errors import ConvergenceError, ValidationError
from .optimizer import CURVE_COLUMNS

SCHEMA = "phaselimit/1"


def _emit(text: str, out_path: str | None):
    """Write the text, ending in a newline, to stdout or to PATH opened as
    open(PATH, "w") opens it.  main builds the whole text before it calls
    this, so a command that fails leaves PATH as it was."""
    if not text.endswith("\n"):
        text += "\n"
    if out_path is None:
        sys.stdout.write(text)
        return
    with open(out_path, "w") as fh:
        fh.write(text)


def _json_text(payload: dict) -> str:
    payload = {"schema": SCHEMA, **payload}
    return json.dumps(payload, indent=2, allow_nan=False)


def _jsonable(x):
    if isinstance(x, float) and math.isinf(x):
        return "unbounded"
    return x


def _load_state(spec: str) -> fock.ProbeState:
    """A state from the file at ``spec`` if that path exists, else from
    ``spec`` itself as inline JSON."""
    if os.path.exists(spec):
        try:
            with open(spec) as fh:
                data = json.load(fh)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise ValidationError(f"cannot read state file {spec}: {exc}") from exc
    else:
        try:
            data = json.loads(spec)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValidationError(f"state is neither a file nor valid JSON: {exc}") from exc
    return fock.ProbeState.from_json(data)


def _load_povm(path: str) -> povm.EstimatePOM:
    # Each outcome's [re, im] lists become one float array as soon as the
    # outcome is parsed (povm._decode_outcome), so the load peaks at about
    # the file's text plus its elements, not at all of its lists.  The parse
    # runs with the cyclic collector paused: the lists hold no cycles, yet
    # allocating them triggers collections, about 22 ms of a 250-300 ms load
    # of a 12.7 MB file of 64 dense dim-64 outcomes.
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path) as fh:
            data = json.load(fh, object_hook=povm._decode_outcome)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ValidationError(f"cannot read POM file {path}: {exc}") from exc
    finally:
        if enabled:
            gc.enable()
    return povm.EstimatePOM.from_json(data)


def _cmd_constants(args):
    values = {"k_A": bounds.k_A(), "k_C": bounds.k_C(), "z_A": bounds.airy_first_zero()}
    if args.format == "json":
        return _json_text(values)
    return "\n".join(f"{name} = {value:.12f}" for name, value in values.items())


def _cmd_bounds(args):
    report = bounds.entropy_chain_report(_load_state(args.state))
    if args.format == "json":
        return _json_text({"bound_report": report.to_json()})
    return report.to_text()


def _cmd_optimize(args):
    result = optimizer.optimize_at_mean(
        optimizer.CostKind(args.kind), args.mean, dim=args.dim, mean_tol=args.mean_tol
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
    kind = optimizer.CostKind(args.kind)
    rows = optimizer.figure2_curve(kind, means, dim=args.dim, mean_tol=args.mean_tol)
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 with one line; argparse's 2 means non-convergence here
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="phaselimit", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("json",)):  # the formats the command writes, default first
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", default=None, help="write output to PATH")

    p = sub.add_parser("constants", help="print k_A, k_C, z_A to 12 digits")
    common(p, ("text", "json"))
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("bounds", help="inequality-chain report for a state")
    p.add_argument("--state", required=True, help="JSON file or inline JSON [[re,im],...]")
    common(p, ("text", "json"))
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("optimize", help="minimize cost at a target mean")
    p.add_argument("--kind", choices=["exact", "surrogate"], default="exact")
    p.add_argument("--mean", type=float, required=True)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--mean-tol", type=float, default=1e-8)
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
    common(p, ("csv", "json"))
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("simulate", help="average-error statistics of a POM on a state")
    p.add_argument("--povm", required=True, help="POM JSON file")
    p.add_argument("--state", required=True, help="JSON file or inline JSON")
    p.add_argument(
        "--grid", type=int, default=None,
        help="entropy quadrature points, a power of two above 2*(dim-1); "
        f"default: the smallest such at or above {phasedist.DEFAULT_ENTROPY_GRID}",
    )
    common(p, ("json", "text"))
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("discriminate", help="K-phase perfect discrimination demo")
    p.add_argument("--K", type=int, required=True)
    common(p, ("json", "text"))
    p.set_defaults(func=_cmd_discriminate)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built once per process: building it costs more than
    parsing (about 1.3 ms against a 2 ms small op), and parse_args fills a
    fresh namespace from the defaults on every call."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
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
