import contextlib
import io
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phaselimit import kphase_construction, make_state, optimizer
from phaselimit.cli import _curve_csv, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstants:
    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "constants")
        assert code == 0
        assert "k_A = 0.559304368351" in out
        assert "k_C = 1.376083543344" in out
        assert "z_A = -2.338107410460" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--format", "json")
        data = json.loads(out)
        assert data["schema"] == "phaselimit/1"
        assert data["k_A"] == pytest.approx(math.sqrt(2 * math.pi / math.e**3), abs=1e-12)


class TestBounds:
    def test_inline_state(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--state", "[[1,0],[1,0]]")
        assert code == 0
        assert "VIOLATED" not in out

    def test_state_file(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(make_state([1, 2, 1]).to_json()))
        code, out, _ = run_cli(capsys, "bounds", "--state", str(path), "--format", "json")
        data = json.loads(out)
        assert data["bound_report"]["all_satisfied"]

    def test_malformed_state_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--state", "not json")
        assert code == 1
        assert "error" in err


class TestOptimize:
    def test_basic(self, capsys):
        code, out, _ = run_cli(capsys, "optimize", "--mean", "0.5", "--dim", "2")
        data = json.loads(out)
        assert data["optimization"]["cost"] == pytest.approx(math.pi**2 / 3 - 2, abs=1e-9)

    def test_infeasible_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "optimize", "--mean", "10", "--dim", "4")
        assert code == 1


class TestCurve:
    def test_csv_columns_and_floor(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "--kind", "surrogate", "--means", "0.5,1,2")
        lines = out.strip().splitlines()
        assert lines[0] == "mean,dim,lambda,cost,delta,product,tail_mass,residual,iterations"
        products = [float(line.split(",")[5]) for line in lines[1:]]
        assert all(p >= 1.376083 - 1e-6 for p in products)

    def test_deterministic_byte_identical(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code, _, _ = run_cli(
                capsys, "curve", "--means", "0.5,1", "--seed", "7", "--out", str(p)
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_defaults_do_not_leak_between_calls(self, capsys, monkeypatch):
        # the parser is built once per process: a call without --seed/--dim
        # gets the defaults, not an earlier call's options (mean 40 runs at
        # dim 320, where the seed draws the cold-start vector)
        real = optimizer.figure2_curve
        seen = []

        def spy(*args, **kwargs):
            seen.append((kwargs["seed"], kwargs["dim"]))
            return real(*args, **kwargs)

        monkeypatch.setattr(optimizer, "figure2_curve", spy)
        argv = ("curve", "--kind", "surrogate", "--means", "40")
        assert run_cli(capsys, *argv, "--seed", "3", "--dim", "400")[0] == 0
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert seen == [(3, 400), (0, None)]
        assert out == _curve_csv(real(optimizer.CostKind.SURROGATE, [40.0], seed=0))

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "curve", "--means", "1", "--format", "json", "--kind", "exact"
        )
        data = json.loads(out)
        assert data["rows"][0]["product"] >= 1.376083


class TestBadInput:
    """Every bad input exits 1 with one 'error:' line, never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("optimize", "--mean", "nan"),
            ("optimize", "--mean", "inf"),
            ("optimize", "--mean", "1", "--mean-tol", "nan"),
            ("curve", "--means", "1,x"),
            ("curve", "--means", "1,nan"),
            ("curve", "--means", "1", "--mean-tol", "inf"),
            ("constants", "--out", "/nonexistent/dir/f"),
            ("optimize", "--mean", "1", "--dim", "1000000"),
            ("optimize", "--kind", "surrogate", "--mean", "1", "--dim", "2000000"),
            ("discriminate", "--K", "2000"),
            ("optimize", "--kind", "surrogate", "--mean", "100", "--seed", "-1"),
            ("curve", "--kind", "surrogate", "--means", "1,100", "--seed", "-5"),
            ("simulate", "--state", "[[1,0]]", "--povm", "null-estimate.json"),
            ("simulate", "--state", "[[1,0]]", "--povm", "text-estimate.json"),
            ("simulate", "--state", "[[1,0]]", "--povm", "zero-estimate.json",
             "--grid", str(2**50)),
        ],
    )
    def test_exits_1_with_one_line(self, capsys, tmp_path, monkeypatch, argv):
        # POM files named in argv, relative to the working directory
        for name, estimate in (
            ("null-estimate.json", None), ("text-estimate.json", "x"), ("zero-estimate.json", 0.0)
        ):
            pom = {"dim": 1, "outcomes": [{"estimate": estimate, "matrix": [[[1.0, 0.0]]]}]}
            (tmp_path / name).write_text(json.dumps(pom))
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_threads_variable_is_ignored(self, capsys, monkeypatch):
        monkeypatch.setenv("PHASELIMIT_THREADS", "abc")
        code, out, _ = run_cli(capsys, "curve", "--means", "0.5,1")
        assert code == 0
        assert len(out.strip().splitlines()) == 3


class TestSimulate:
    def test_kphase_files(self, capsys, tmp_path):
        state, povm, _ = kphase_construction(4)
        spath = tmp_path / "state.json"
        ppath = tmp_path / "povm.json"
        spath.write_text(json.dumps(state.to_json()))
        ppath.write_text(json.dumps(povm.to_json()))
        code, out, _ = run_cli(
            capsys, "simulate", "--state", str(spath), "--povm", str(ppath)
        )
        assert code == 0
        data = json.loads(out)
        sim = data["simulation"]
        assert sim["mean_number"] == pytest.approx(1.5)
        assert sim["heisenberg_margin"] > 0

    def test_missing_povm_exits_1(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--state", "[[1,0]]", "--povm", "/nope.json")
        assert code == 1


class TestDiscriminate:
    def test_k4(self, capsys):
        code, out, _ = run_cli(capsys, "discriminate", "--K", "4")
        data = json.loads(out)
        rep = data["discrimination"]
        assert rep["mean_number"] == 1.5
        assert rep["gram_identity_error"] < 1e-12
        assert np.allclose(rep["per_phase_variance"], 0, atol=1e-12)

    def test_k64_exact_at_special_phases(self, capsys):
        code, out, _ = run_cli(capsys, "discriminate", "--K", "64")
        assert code == 0
        rep = json.loads(out)["discrimination"]
        assert len(rep["per_phase_variance"]) == 64
        assert all(0.0 <= v <= 1e-12 for v in rep["per_phase_variance"])
        assert all(abs(p - 1.0) <= 1e-12 for p in rep["success_probabilities"])

    def test_invalid_k_exits_1(self, capsys):
        code, _, _ = run_cli(capsys, "discriminate", "--K", "0")
        assert code == 1


# Edge values for every numeric flag: each is refused, by argparse (exit 2)
# or by validation (exit 1).
EDGES = ["nan", "inf", "-inf", "-1", "0", str(2**50), "x", ""]
# "@name" is a file in the fuzz directory; "missing.json" is never written.
BAD_FILES = ["@missing.json", "@empty.json", "@empty-object.json", "@null.json"]
GOOD_STATES = ["@state.json", "[[1,0]]", "[[1,0],[1,0]]"]
BAD_STATES = BAD_FILES + [
    "[[NaN,0]]", "[[Infinity,0]]", "[[1e308,0],[1e308,0]]", "[[0,0]]",
    "[]", "{}", "[1]", "[[1,0,0]]", "x", "",
]
# Per command: (flag, values whose runs are cheap, values to refuse).
FUZZ_OPTIONS = {
    "constants": [],
    "bounds": [("--state", GOOD_STATES, BAD_STATES)],
    "optimize": [
        ("--kind", ["exact", "surrogate"], ["x"]),
        ("--mean", ["0.5", "3"], EDGES),
        ("--dim", ["2", "64"], EDGES),
        ("--mean-tol", ["1e-6", "1e-8"], EDGES),
        ("--seed", ["0", "3"], EDGES),
    ],
    "curve": [
        ("--kind", ["exact", "surrogate"], ["x"]),
        ("--means", ["0.5", "0.5,3", "1,4"], EDGES + ["3,0.5", "0.5,nan", "1,x"]),
        ("--dim", ["2", "64"], EDGES),
        ("--mean-tol", ["1e-6", "1e-8"], EDGES),
        ("--seed", ["0", "3"], EDGES),
    ],
    "simulate": [
        ("--povm", ["@pom.json", "@pom-k2.json"], BAD_FILES + ["@state.json"]),
        ("--state", GOOD_STATES, BAD_STATES),
        ("--grid", ["64", "8192"], EDGES),
    ],
    "discriminate": [("--K", ["1", "4"], EDGES)],
}
COMMON_OPTIONS = [
    ("--format", ["csv", "json", "text"], ["x"]),
    ("--out", ["@out.txt"], ["@missing-dir/f", "@sub"]),
]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    state, pom, _ = kphase_construction(2)
    files = {
        "empty.json": "",
        "empty-object.json": "{}",
        "null.json": "null",
        "state.json": json.dumps(state.to_json()),
        "pom.json": json.dumps(
            {"dim": 1, "outcomes": [{"estimate": 0.0, "matrix": [[[1.0, 0.0]]]}]}
        ),
        "pom-k2.json": json.dumps(pom.to_json()),
    }
    for name, text in files.items():
        (d / name).write_text(text)
    (d / "sub").mkdir()
    return d


@st.composite
def fuzzed_argv(draw):
    command = draw(st.sampled_from(sorted(FUZZ_OPTIONS)))
    argv = [command]
    for flag, good, bad in FUZZ_OPTIONS[command] + COMMON_OPTIONS:
        # each flag, a required one too, is left out or given a value to
        # refuse a sixth of the time each
        choice = draw(st.integers(0, 5))
        if choice:
            argv += [flag, draw(st.sampled_from(bad if choice == 1 else good))]
    return argv


@settings(max_examples=300, deadline=None)
@given(argv=fuzzed_argv())
def test_fuzzed_argv_exits_with_one_line(fuzz_dir, argv):
    argv = [os.path.join(fuzz_dir, a[1:]) if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the command line
            code = exc.code
    err = err.getvalue()
    assert "Traceback" not in err
    assert code in (0, 1, 2)
    messages = [line for line in err.splitlines() if "error:" in line or "non-convergence:" in line]
    if code == 0:
        assert err == ""
        return
    assert len(messages) == 1
    if messages[0].startswith(("error: ", "non-convergence: ")):
        # the package's own refusals are exactly one line on stderr
        assert err == messages[0] + "\n"
        assert out.getvalue() == ""
