"""phaselimit benchmark.

    python3 bench/run.py --workload fig2-exact --seed 1 --seconds 20 --trace 0

Runs one workload of ``bench/workloads.py`` against the package in ``src/``
of the checkout that holds this file.  Each op is one in-process call of
``phaselimit.cli.main(argv)`` writing JSON to ``--out``; one client runs ops
back to back (a closed loop), and every output is checked.

``--trace 0`` makes whole passes over the workload's op list for about
``--seconds`` (at least one) and prints the end-to-end metrics.  ``--trace
1`` runs the op list once untraced, once with spans around the package's
public functions, and once in a child process with
``OPENBLAS_NUM_THREADS=1``, and prints the per-layer metrics.  The last
line of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``, where ``attempted`` and ``failed`` count the
distinct ops of the list; the lines before it show every metric with its
unit, the failure tally and the environment.  Working files go to
``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170

# A fresh interpreter imports the package and runs the warm-up op; the
# parent times it from spawn to the "ready" line.
SETUP_CODE = (
    "import json, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import phaselimit.cli\n"
    "rc = phaselimit.cli.main(json.loads(sys.argv[2]))\n"
    "print('ready', rc, flush=True)\n"
)


def load_package():
    """Import ``phaselimit`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "phaselimit" / "__init__.py").is_file():
        raise SystemExit(f"error: no phaselimit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import phaselimit
    import phaselimit.cli

    if Path(phaselimit.__file__).resolve().parent != SRC / "phaselimit":
        raise SystemExit(f"error: imported phaselimit from {phaselimit.__file__}, not {SRC}")
    return phaselimit


# -- running ops --------------------------------------------------------------


@dataclass
class OpResult:
    wall_s: float
    cpu_s: float
    ok: bool
    reason: str | None  # why the op failed
    incorrect: bool  # a wrong output, a crash or an undocumented exit
    output_bytes: int = 0
    rows: list | None = None  # curve rows, kept for the per-layer certificates
    key: str = ""  # which op of the list this is an execution of


def _reason(rc: int, stderr: str) -> str:
    line = stderr.strip().splitlines()[0] if stderr.strip() else ""
    return f"exit{rc}: " + re.sub(r"\d[\d.e+-]*", "#", line)[:80]


def run_op(pkg, op, check) -> OpResult:
    """One op: the timed cli call, then its output check (untimed)."""
    result = _run_op(pkg, op, check)
    result.key = str(op.out)
    return result


def _run_op(pkg, op, check) -> OpResult:
    if op.out.exists():
        op.out.unlink()
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            rc = pkg.cli.main(op.argv)
        except SystemExit as exc:  # argparse rejected the argv
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback is a program defect: record it, keep going
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            return OpResult(wall, cpu, False, f"crash: {type(exc).__name__}", True)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if rc != 0:
        # Exit 2 is the documented non-convergence report; any other exit on
        # inputs the benchmark made valid is a wrong answer.
        return OpResult(wall, cpu, False, _reason(rc, err.getvalue()), rc != 2)
    text = op.out.read_text()
    data = json.loads(text)
    bad = check(op, data)
    if bad:
        return OpResult(wall, cpu, False, "check: " + ",".join(bad), True, len(text), data.get("rows"))
    return OpResult(wall, cpu, True, None, False, len(text), data.get("rows"))


def warm_up(pkg, op, check):
    """Run the warm-up op untimed, so that lazy set-up is done before timing."""
    result = run_op(pkg, op, check)
    if not result.ok:
        raise RuntimeError(f"warm-up op failed: {result.reason}")


def run_pass(pkg, ops, check, tracer=None) -> list:
    results = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        results.append(run_op(pkg, op, check))
    return results


def run_for(pkg, ops, check, seconds: float) -> list:
    """Whole passes over the op list for about ``seconds``: at least one, and
    another only while more than half a pass's time is left.  Every op then
    runs equally often, so the op costs a run samples do not depend on where
    the clock happened to stop."""
    results = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results += run_pass(pkg, ops, check)
        now = time.perf_counter()
        if seconds - (now - start) <= (now - t0) / 2:
            return results


def measure_setup(warmup, repeats: int) -> list:
    """Seconds from spawning a fresh interpreter to its 'ready' line."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE, str(SRC), json.dumps(warmup.argv)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.split() != ["ready", "0"]:
            raise RuntimeError(f"set-up process did not become ready: {line!r}")
        times.append(elapsed)
    return times


def reference_pass_s(args) -> float:
    """Wall time of one untraced pass in a child whose only change is
    OPENBLAS_NUM_THREADS=1."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--reference-pass"] + (["--tiny"] if args.tiny else [])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"reference pass failed: {proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["pass_s"]


# -- statistics -----------------------------------------------------------------


def tail_percentile(values):
    """Highest integer percentile (nearest rank) with at least ten values
    above its rank: (percentile, value, count beyond).  With ten values or
    fewer no percentile qualifies and the maximum is returned as p100."""
    ordered = sorted(values)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, ordered[rank - 1], n - rank
    return 100, ordered[-1], 0


def op_outcomes(results) -> tuple:
    """(attempted, failed) over the distinct ops of the list: an op failed
    if any of its executions failed.  Every run executes the whole list at
    least once, so both counts depend on the seed alone, not on how many
    passes fitted in the run."""
    failed_keys = {r.key for r in results if not r.ok}
    return len({r.key for r in results}), len(failed_keys)


def failure_tally(results) -> dict:
    tally = {}
    for r in results:
        if not r.ok:
            tally[r.reason] = tally.get(r.reason, 0) + 1
    return dict(sorted(tally.items(), key=lambda kv: -kv[1]))


def op_walls(results) -> list:
    """Each distinct op's median wall time over its executions.  A stall
    from outside the program (another process taking the core) hits one
    execution of an op, not the op's median over several passes."""
    by_op = {}
    for r in results:
        by_op.setdefault(r.key, []).append(r.wall_s)
    return [statistics.median(walls) for walls in by_op.values()]


def end_to_end_metrics(results, setup_times) -> tuple:
    walls = op_walls(results)
    attempted, failed = op_outcomes(results)
    p, tail, beyond = tail_percentile(walls)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_p50_ms": 1000 * statistics.median(walls),
        "op_tail_ms": 1000 * tail,
        "ok_ops_per_s": (attempted - failed) / sum(walls),
        "ok_frac": 1.0 - failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {
        "op_tail_percentile": p,
        "op_tail_beyond": beyond,
        "ops": attempted,
        "executions": len(results),
        "failed_frac": failed / attempted,
        "failures": failure_tally(results),
        "setup_runs_s": setup_times,
    }
    return metrics, details


def _curve_certificates(pkg, ops, results) -> dict:
    out = {"residual_max": 0.0, "tail_mass_max": 0.0, "mean_err_max": 0.0, "dim_doublings": 0}
    for op, r in zip(ops, results):
        if r.rows is None:
            continue
        cap = pkg.optimizer.DENSE_DIM_LIMIT if op.expect["kind"] == "exact" else pkg.optimizer.SPARSE_DIM_LIMIT
        for row, target in zip(r.rows, op.expect["means"]):
            out["residual_max"] = max(out["residual_max"], row["residual"])
            out["tail_mass_max"] = max(out["tail_mass_max"], row["tail_mass"])
            out["mean_err_max"] = max(out["mean_err_max"], abs(row["mean"] - target) / (1 + target))
            base = min(pkg.optimizer.default_dim(target), cap)
            out["dim_doublings"] += round(math.log2(row["dim"] / base))
    return out


def layer_metrics(pkg, ops, untraced, traced, spans, ref_s) -> dict:
    """Per-layer metrics of one traced pass over the op list.  Counts are
    totals over the pass and repeat exactly at a fixed seed; times are
    seconds summed over the pass unless named *_ms_p50."""
    from spans import Summary

    s = Summary(spans)
    wall_a = sum(r.wall_s for r in untraced)
    wall_b = sum(r.wall_s for r in traced)

    def med_ms(xs):
        return 1000 * statistics.median(xs) if xs else 0.0

    points = s.calls["optimizer.optimize_at_mean"]
    solves = s.calls["optimizer.solve_at_multiplier"]
    entropy_calls = s.calls["phasedist.differential_entropy"]
    cert = _curve_certificates(pkg, ops, traced)
    return {
        "optimizer.points": points,
        "optimizer.solves": solves,
        "optimizer.solves_per_point": solves / points if points else 0.0,
        "optimizer.useful_solve_ratio": points / solves if solves else 0.0,
        "optimizer.dim_doublings": cert["dim_doublings"],
        "optimizer.eigensolve_calls": s.calls["optimizer.min_eigenpair"],
        "optimizer.eigensolve_ms_p50": med_ms(s.durations["optimizer.min_eigenpair"]),
        "optimizer.eigensolve_self_s": s.self_total["optimizer.min_eigenpair"],
        "optimizer.eigensolve_dim_max": max(s.sizes["optimizer.min_eigenpair"], default=0),
        "optimizer.matrix_build_s": s.self_total["optimizer.cost_matrix"],
        "optimizer.search_self_s": sum(
            s.self_total[n] for n in ("optimizer.figure2_curve", "optimizer.optimize_at_mean",
                                      "optimizer.solve_at_multiplier")
        ),
        "optimizer.residual_max": cert["residual_max"],
        "optimizer.tail_mass_max": cert["tail_mass_max"],
        "optimizer.mean_err_max": cert["mean_err_max"],
        "povm.pom_load_s": s.total["povm.pom_load"],
        "cli.input_bytes": sum(op.input_bytes for op in ops),
        "cli.self_ms_p50": med_ms(s.selfs["cli.main"]),
        "povm.kphase_construction_s": s.total["povm.kphase_construction"],
        "povm.per_phase_variance_s": s.total["povm.per_phase_variance"],
        "povm.per_phase_variance_calls": s.calls["povm.per_phase_variance"],
        "povm.conditional_probability_calls": s.calls["povm.conditional_probability"],
        "povm.average_distribution_s": s.total["povm.average_distribution"],
        "povm.element_bytes": max((op.element_bytes for op in ops), default=0),
        "cli.output_bytes": sum(r.output_bytes for r in traced),
        "phasedist.canonical_s": s.total["phasedist.canonical_distribution"],
        "phasedist.entropy_s": s.total["phasedist.differential_entropy"],
        "phasedist.entropy_calls": entropy_calls,
        "phasedist.entropy_ok_ratio": (
            s.ok["phasedist.differential_entropy"] / entropy_calls if entropy_calls else 0.0
        ),
        "phasedist.density_grid_calls": s.calls["phasedist.density_grid"],
        "phasedist.density_grid_points": sum(s.sizes["phasedist.density_grid"]),
        "phasedist.density_grid_s": s.total["phasedist.density_grid"],
        "bounds.chain_report_self_s": s.self_total["bounds.entropy_chain_report"],
        "bounds.airy_zero_calls": s.calls["bounds.airy_first_zero"],
        "bounds.airy_zero_s": s.total["bounds.airy_first_zero"],
        "fock.state_load_s": s.total["fock.state_load"],
        "fock.number_stats_s": sum(
            s.total[n] for n in ("fock.mean_number", "fock.number_entropy", "fock.thermal_entropy")
        ),
        "process.cpu_per_wall": sum(r.cpu_s for r in untraced) / wall_a,
        "process.blas_1thread_wall_ratio": ref_s / wall_a,
        "bench.trace_overhead_frac": wall_b / wall_a - 1.0,
    }


# -- environment ------------------------------------------------------------------


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {
            k: v for k, v in sorted(os.environ.items())
            if k.endswith("_NUM_THREADS") or k == "PHASELIMIT_THREADS"
        },
        "seed": seed,
        "commit": _git_commit(),
    }


# -- main -----------------------------------------------------------------------


def parse_args(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the benchmark's tests")
    parser.add_argument("--reference-pass", action="store_true",
                        help="internal: time one untraced pass and print it")
    return parser.parse_args(argv)


def _print_metrics(metrics: dict, units: dict, details: dict):
    for name, value in metrics.items():
        print(f"  {name:<40} {value:.6g} {units[name]}")
    for name, value in details.items():
        print(f"  {name:<40} {json.dumps(value)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    pkg = load_package()
    import checks
    import workloads

    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        wl = workloads.build(args.workload, args.seed, tmp, tiny=args.tiny)
        return _run(args, pkg, wl, checks.check)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run(args, pkg, wl, check) -> int:
    if args.reference_pass:
        warm_up(pkg, wl.warmup, check)
        results = run_pass(pkg, wl.ops, check)
        print(json.dumps({"pass_s": sum(r.wall_s for r in results)}))
        return 0

    if args.trace == 0:
        setup_times = measure_setup(wl.warmup, 1 if args.tiny else SETUP_REPEATS)
        warm_up(pkg, wl.warmup, check)
        results = run_for(pkg, wl.ops, check, args.seconds)
        metrics, details = end_to_end_metrics(results, setup_times)
    else:
        from spans import Tracer

        warm_up(pkg, wl.warmup, check)
        untraced = run_pass(pkg, wl.ops, check)
        tracer = Tracer()
        tracer.install(pkg)
        try:
            traced = run_pass(pkg, wl.ops, check, tracer)
        finally:
            tracer.uninstall()
        ref_s = reference_pass_s(args)
        metrics = layer_metrics(pkg, wl.ops, untraced, traced, tracer.spans, ref_s)
        results = untraced + traced
        details = {"ops_per_pass": len(wl.ops), "failures": failure_tally(results)}
        tracer.write(WORK / f"spans-{args.workload}.json")

    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    env = environment(args.seed)
    print("env " + json.dumps(env))
    _print_metrics(metrics, units, details)
    attempted, failed = op_outcomes(results)
    summary = {
        "correct": not any(r.incorrect for r in results),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(WORK / f"result-{args.workload}-trace{args.trace}.json", "w") as fh:
        json.dump({**summary, "details": details, "env": env}, fh, indent=1)
    print(json.dumps(summary))
    return 0


def declared_units(section: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


if __name__ == "__main__":
    sys.exit(main())
