"""Fast tests of the benchmark itself:

    python3 -m pytest -q bench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args, "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_smoke_run(workload):
    result = bench("--workload", workload, "--seed", "7", "--seconds", "0.3", "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_traced_run_counts_repeat():
    args = ("--workload", "fig2-exact", "--seed", "7", "--seconds", "0.3", "--trace", "1")
    first, second = bench(*args), bench(*args)
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name in ("optimizer.points", "optimizer.solves", "optimizer.eigensolve_calls"):
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"] > 0
    assert first["metrics"]["povm.conditional_probability_calls"]["value"] == 0


def test_seed_fixes_inputs(tmp_path):
    a = workloads.build("pom-simulate", 3, tmp_path / "a", tiny=True)
    b = workloads.build("pom-simulate", 3, tmp_path / "b", tiny=True)
    c = workloads.build("pom-simulate", 4, tmp_path / "c", tiny=True)
    files = lambda w: sorted((p.name, p.read_bytes()) for p in (tmp_path / w).iterdir())  # noqa: E731
    assert files("a") == files("b") != files("c")
    assert [op.kind for op in a.ops] == [op.kind for op in b.ops]


def test_self_time_subtracts_covered_child_time():
    # parent [0, 10]; children [1, 3] and [2, 5] overlap, [8, 12] runs past
    # the parent's end; grandchild [1.5, 2.5] lies inside the first child.
    s = [
        ["parent", 0.0, 10.0, -1, 0, None, True],
        ["child", 1.0, 3.0, 0, 0, None, True],
        ["child", 2.0, 5.0, 0, 0, None, True],
        ["child", 8.0, 12.0, 0, 0, None, True],
        ["grandchild", 1.5, 2.5, 1, 0, None, True],
    ]
    assert spans.self_times(s) == pytest.approx([10.0 - 6.0, 1.0, 3.0, 4.0, 1.0])
    summary = spans.Summary(s)
    assert summary.calls["child"] == 3
    assert summary.self_total["child"] == pytest.approx(8.0)


def test_tracer_sees_calls_through_names_bound_at_import():
    pkg = run.load_package()
    tracer = spans.Tracer()
    tracer.install(pkg)
    try:
        pkg.bounds.entropy_chain_report(pkg.make_state([1, 2, 1]))
    finally:
        tracer.uninstall()
    names = [s[spans.NAME] for s in tracer.spans]
    report = names.index("bounds.entropy_chain_report")
    parents = {s[spans.NAME]: s[spans.PARENT] for s in tracer.spans}
    assert parents["phasedist.canonical_distribution"] == report
    assert parents["phasedist.differential_entropy"] == report
    assert parents["fock.mean_number"] == report
    assert "phasedist.density_grid" in names
    assert pkg.bounds.canonical_distribution is pkg.phasedist.canonical_distribution
    assert not hasattr(pkg.bounds.canonical_distribution, "__wrapped__")


@pytest.mark.parametrize(
    "n, percentile, beyond",
    [(1000, 99, 10), (100, 90, 10), (37, 72, 10), (11, 9, 10), (10, 100, 0)],
)
def test_tail_percentile_keeps_ten_beyond(n, percentile, beyond):
    values = [float(v) for v in range(1, n + 1)]
    p, value, count = run.tail_percentile(values[::-1])
    assert (p, count) == (percentile, beyond)
    assert value == (n if p == 100 else n - beyond)
    assert sum(v > value for v in values) == count


def test_forced_convergence_error_counts_as_failed(tmp_path, monkeypatch):
    pkg = run.load_package()
    import checks

    wl = workloads.build("state-bounds", 1, tmp_path, tiny=True)
    ops = wl.ops[:4]

    def no_convergence(*args, **kwargs):
        raise pkg.ConvergenceError("entropy quadrature not converged (forced)")

    good = run.run_pass(pkg, ops[:3], checks.check)
    monkeypatch.setattr(pkg.bounds, "differential_entropy", no_convergence)
    forced = run.run_pass(pkg, ops[3:], checks.check)
    metrics, details = run.end_to_end_metrics(good + forced, [0.1])

    assert [r.ok for r in good + forced] == [True, True, True, False]
    assert details["failed_frac"] == 0.25
    assert metrics["ok_frac"] == 0.75
    assert details["failures"] == {"exit2: non-convergence: entropy quadrature not converged (forced)": 1}
    assert not forced[0].incorrect  # exit 2 is a documented refusal, not a wrong answer


def test_outcomes_count_distinct_ops_not_executions():
    def r(key, ok):
        return run.OpResult(0.001, 0.001, ok, None if ok else "exit2: x", False, key=key)

    one_pass = [r("a", True), r("b", False), r("c", True)]
    assert run.op_outcomes(one_pass) == (3, 1)
    assert run.op_outcomes(one_pass * 4 + one_pass[:2]) == (3, 1)


def test_op_walls_take_each_ops_median_over_passes():
    def r(key, wall):
        return run.OpResult(wall, wall, True, None, False, key=key)

    passes = [r("a", 1.0), r("b", 2.0)] * 3 + [r("a", 50.0)]  # one stalled execution
    assert run.op_walls(passes) == [1.0, 2.0]
    metrics, _ = run.end_to_end_metrics(passes, [0.1])
    assert metrics["op_tail_ms"] == 2000.0
    assert metrics["ok_ops_per_s"] == pytest.approx(2 / 3.0)


def test_run_for_covers_the_whole_list(tmp_path):
    pkg = run.load_package()
    import checks

    wl = workloads.build("state-bounds", 1, tmp_path, tiny=True)
    results = run.run_for(pkg, wl.ops, checks.check, 0.0)
    assert [res.key for res in results] == [str(op.out) for op in wl.ops]


def test_wrong_output_is_incorrect(tmp_path):
    pkg = run.load_package()
    wl = workloads.build("fig2-exact", 1, tmp_path, tiny=True)
    result = run.run_op(pkg, wl.ops[0], lambda op, data: ["curve.forced"])
    assert not result.ok and result.incorrect
    assert result.reason == "check: curve.forced"


def test_benchmark_json_matches_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"]) <= 0.25
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
