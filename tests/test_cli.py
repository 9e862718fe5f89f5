import contextlib
import gc
import io
import json
import math
import os
import stat
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from phaselimit import EstimatePOM, ValidationError, kphase_construction, make_state, optimizer
from phaselimit.cli import _curve_csv, _load_povm, main
from phaselimit.fock import _to_pairs
from conftest import dense_elements, random_povm, reference_pom_from_json


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

    def test_dim_above_4096(self, capsys, tmp_path):
        # the default entropy grid grows with the state's dimension
        amps = np.zeros(5001)
        amps[[0, 5000]] = 0.6, 0.8
        path = tmp_path / "state.json"
        path.write_text(json.dumps(make_state(amps).to_json()))
        code, out, err = run_cli(capsys, "bounds", "--state", str(path), "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["bound_report"]["all_satisfied"]

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
                capsys, "curve", "--means", "0.5,1", "--out", str(p)
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "replaced"])
    def test_out_file_mode_follows_umask(self, capsys, tmp_path, existing):
        # the file gets the mode open(path, "w") would give, not mkstemp's 0600
        path = tmp_path / "constants.txt"
        if existing:
            path.write_text("old\n")
            path.chmod(0o644)
        umask = os.umask(0o022)
        try:
            code, _, _ = run_cli(capsys, "constants", "--out", str(path))
        finally:
            os.umask(umask)
        assert code == 0
        assert stat.S_IMODE(path.stat().st_mode) == 0o644
        assert "k_C" in path.read_text()

    def test_defaults_do_not_leak_between_calls(self, capsys, monkeypatch):
        # the parser is built once per process: a call without --mean-tol/--dim
        # gets the defaults, not an earlier call's options
        real = optimizer.figure2_curve
        seen = []

        def spy(*args, **kwargs):
            seen.append((kwargs["mean_tol"], kwargs["dim"]))
            return real(*args, **kwargs)

        monkeypatch.setattr(optimizer, "figure2_curve", spy)
        argv = ("curve", "--kind", "surrogate", "--means", "40")
        assert run_cli(capsys, *argv, "--mean-tol", "1e-6", "--dim", "400")[0] == 0
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert seen == [(1e-6, 400), (1e-8, None)]
        assert out == _curve_csv(real(optimizer.CostKind.SURROGATE, [40.0]))

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "curve", "--means", "1", "--format", "json", "--kind", "exact"
        )
        data = json.loads(out)
        assert data["rows"][0]["product"] >= 1.376083


class TestOut:
    """--out PATH is opened as open(PATH, "w") opens it: PATH keeps its kind,
    its links and its mode, and gets the bytes stdout gets."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("constants",),
            ("constants", "--format", "json"),
            ("bounds", "--state", "[[1,0],[1,0]]"),
            ("bounds", "--state", "[[1,0],[1,0]]", "--format", "json"),
            ("optimize", "--mean", "0.5", "--dim", "2"),
            ("curve", "--kind", "surrogate", "--means", "0.5,1"),
            ("curve", "--kind", "surrogate", "--means", "0.5,1", "--format", "json"),
            ("simulate", "--povm", "pom.json", "--state", "state.json"),
            ("simulate", "--povm", "pom.json", "--state", "state.json", "--format", "text"),
            ("discriminate", "--K", "4"),
            ("discriminate", "--K", "4", "--format", "text"),
        ],
        ids=" ".join,
    )
    def test_out_bytes_equal_stdout(self, capsys, tmp_path, monkeypatch, argv):
        state, pom, _ = kphase_construction(4)
        (tmp_path / "state.json").write_text(json.dumps(state.to_json()))
        (tmp_path / "pom.json").write_text(json.dumps(pom.to_json()))
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert run_cli(capsys, *argv, "--out", "out")[0] == 0
        assert (tmp_path / "out").read_bytes() == out.encode()

    @staticmethod
    def _constants(capsys, path):
        expected = run_cli(capsys, "constants")[1].encode()
        assert run_cli(capsys, "constants", "--out", str(path))[0] == 0
        return expected

    def test_symlink_kept(self, capsys, tmp_path):
        target, link = tmp_path / "target", tmp_path / "link"
        target.write_text("old\n")
        link.symlink_to(target)
        expected = self._constants(capsys, link)
        assert link.is_symlink()
        assert target.read_bytes() == expected

    def test_fifo_kept(self, capsys, tmp_path):
        # with a reader open, open(fifo, "w") returns at once, and the output
        # fits the pipe buffer; were the FIFO replaced, the read gets nothing
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            expected = self._constants(capsys, fifo)
            received = os.read(fd, 1 << 16)
        finally:
            os.close(fd)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert received == expected

    def test_hard_link_kept(self, capsys, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        first.write_text("old\n")
        os.link(first, second)
        expected = self._constants(capsys, first)
        assert first.read_bytes() == second.read_bytes() == expected

    def test_private_mode_kept(self, capsys, tmp_path):
        path = tmp_path / "private.txt"
        path.write_text("old\n")
        path.chmod(0o600)
        umask = os.umask(0o022)
        try:
            expected = self._constants(capsys, path)
        finally:
            os.umask(umask)
        assert stat.S_IMODE(path.stat().st_mode) == 0o600
        assert path.read_bytes() == expected

    @pytest.mark.parametrize(
        "argv, code",
        [
            # refused before any solve
            (("optimize", "--kind", "exact", "--mean", "1400"), 1),
            # fails its tail test after one solve
            (("optimize", "--kind", "exact", "--mean", "5", "--mean-tol", "1e300"), 2),
        ],
    )
    def test_failure_leaves_out_unchanged(self, capsys, tmp_path, argv, code):
        path = tmp_path / "out.json"
        path.write_bytes(b"old bytes, no newline")
        assert run_cli(capsys, *argv, "--out", str(path))[0] == code
        assert path.read_bytes() == b"old bytes, no newline"


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
            ("discriminate", "--K", "4034"),
            ("simulate", "--state", "[[1,0]]", "--povm", "null-estimate.json"),
            ("simulate", "--state", "[[1,0]]", "--povm", "text-estimate.json"),
            ("simulate", "--state", "[[1,0]]", "--povm", "zero-estimate.json",
             "--grid", str(2**50)),
            ("simulate", "--state", "[[1,0],[1,0]]", "--povm", "ragged.json"),
            # integers too large for a float, in a state, an element, an estimate
            ("bounds", "--state", f"[[{10**400},0]]"),
            ("simulate", "--state", "[[1,0]]", "--povm", "huge-entry.json"),
            ("simulate", "--state", "[[1,0]]", "--povm", "huge-estimate.json"),
            # files that are not UTF-8 text, or nest deeper than the JSON
            # decoder can recurse, for each loader
            ("bounds", "--state", "utf16.json"),
            ("simulate", "--state", "[[1,0]]", "--povm", "utf16.json"),
            ("bounds", "--state", "deep.json"),
            ("bounds", "--state", "[" * 200000),
            ("simulate", "--state", "[[1,0]]", "--povm", "deep.json"),
            # means whose default dimension 8*mean overflows a float
            ("optimize", "--mean", "1e308"),
            ("curve", "--kind", "surrogate", "--means", "1,1e308"),
            # usage errors: a value the parser refuses, a format the
            # command does not write, a missing required option
            ("optimize", "--mean", "x"),
            ("optimize", "--mean", "1", "--format", "csv"),
            ("constants", "--format", "csv"),
            ("curve", "--means", "1", "--format", "text"),
            ("optimize",),
            # a dimension below 1
            ("optimize", "--mean", "5", "--dim", "-3"),
            # estimates that float() would take but are no JSON numbers
            ("simulate", "--state", "[[1,0]]", "--povm", "numeric-text-estimate.json"),
            ("simulate", "--state", "[[1,0]]", "--povm", "padded-text-estimate.json"),
            ("simulate", "--state", "[[1,0]]", "--povm", "true-estimate.json"),
        ],
    )
    def test_exits_1_with_one_line(self, capsys, tmp_path, monkeypatch, argv):
        # POM files named in argv, relative to the working directory
        for name, estimate, entry in (
            ("null-estimate.json", None, 1.0),
            ("text-estimate.json", "x", 1.0),
            ("numeric-text-estimate.json", "1.5", 1.0),
            ("padded-text-estimate.json", " 2 ", 1.0),
            ("true-estimate.json", True, 1.0),
            ("zero-estimate.json", 0.0, 1.0),
            ("huge-estimate.json", 10**400, 1.0),
            ("huge-entry.json", 0.0, 10**400),
        ):
            pom = {"dim": 1, "outcomes": [{"estimate": estimate, "matrix": [[[entry, 0.0]]]}]}
            (tmp_path / name).write_text(json.dumps(pom))
        ragged = {"outcomes": [
            {"estimate": 0, "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]},
            {"estimate": 1, "matrix": [[[0.5, 0]]]},
        ]}
        (tmp_path / "ragged.json").write_text(json.dumps(ragged))
        (tmp_path / "utf16.json").write_bytes(b"\xff\xfe[[1,0]]")
        (tmp_path / "deep.json").write_text("[" * 200000)
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "content",
        [b"[[1,0],", b"[" * 200000, b"\xff\xfe[[1,0]]"],
        ids=["truncated", "deep", "utf16"],
    )
    def test_state_file_not_json_names_the_file(self, capsys, tmp_path, content):
        # the path exists, so the message names the file, not inline JSON
        path = tmp_path / "state.json"
        path.write_bytes(content)
        code, out, err = run_cli(capsys, "bounds", "--state", str(path))
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot read state file {path}: ")
        assert err.count("\n") == 1

    def test_state_path_is_a_directory_names_the_file(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "bounds", "--state", str(tmp_path))
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot read state file {tmp_path}: ")
        assert err.count("\n") == 1

    def test_inline_state_not_json(self, capsys):
        code, out, err = run_cli(capsys, "bounds", "--state", "[[1,0],")
        assert code == 1 and out == ""
        assert err.startswith("error: state is neither a file nor valid JSON: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, cap",
        [(("optimize", "--mean", "1e308"), 4096),
         (("curve", "--kind", "surrogate", "--means", "1,1e308"), 1048576)],
    )
    def test_huge_mean_infeasible_at_cap(self, capsys, argv, cap):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        kind = "surrogate" if "surrogate" in argv else "exact"
        assert err == (
            f"error: target mean 1e+308 needs more than the {kind} cap of {cap} dimensions"
            " (default dim 8*mean)\n"
        )

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["optimize", "--help"])
        assert exited.value.code == 0
        assert "--mean" in capsys.readouterr().out

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

    def test_vector_file_matches_dense_file(self, capsys, tmp_path):
        # the same K-phase POM written with "vector" outcomes and expanded
        # to "matrix" outcomes gives the same statistics
        state, pom, _ = kphase_construction(4)
        spath = tmp_path / "state.json"
        spath.write_text(json.dumps(state.to_json()))
        dense = {
            "outcomes": [
                {"estimate": float(e), "matrix": [[[v.real, v.imag] for v in row] for row in m]}
                for e, m in zip(pom.estimates, dense_elements(pom))
            ]
        }
        sims = []
        for name, data in (("vector.json", pom.to_json()), ("dense.json", dense)):
            (tmp_path / name).write_text(json.dumps(data))
            code, out, _ = run_cli(
                capsys, "simulate", "--state", str(spath), "--povm", str(tmp_path / name)
            )
            assert code == 0
            sims.append(json.loads(out)["simulation"])
        assert "vector" in pom.to_json()["outcomes"][0]
        assert list(sims[0]) == list(sims[1])
        for key, value in sims[0].items():
            if key != "moments":
                assert value == pytest.approx(sims[1][key], rel=0, abs=1e-12), key
        np.testing.assert_allclose(
            sims[0]["moments"]["moments"], sims[1]["moments"]["moments"], rtol=0, atol=1e-12
        )

    def test_missing_povm_exits_1(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--state", "[[1,0]]", "--povm", "/nope.json")
        assert code == 1

    @pytest.mark.parametrize("was_enabled", [True, False])
    def test_povm_load_restores_gc_state(self, tmp_path, was_enabled):
        # the parse pauses the cyclic collector and leaves it as it found it,
        # whether the file parses or not
        good = tmp_path / "good.json"
        good.write_text(json.dumps(kphase_construction(4)[1].to_json()))
        bad = tmp_path / "bad.json"
        bad.write_text('{"outcomes": [')
        try:
            gc.enable() if was_enabled else gc.disable()
            assert len(_load_povm(str(good)).estimates) == 4
            assert gc.isenabled() is was_enabled
            with pytest.raises(ValidationError, match="cannot read POM file"):
                _load_povm(str(bad))
            assert gc.isenabled() is was_enabled
        finally:
            gc.enable()


class TestDiscriminate:
    def test_k4(self, capsys):
        code, out, _ = run_cli(capsys, "discriminate", "--K", "4")
        data = json.loads(out)
        rep = data["discrimination"]
        assert rep["mean_number"] == 1.5
        assert rep["gram_identity_error"] < 1e-12
        assert np.allclose(rep["per_phase_variance"], 0, atol=1e-12)

    def test_k1296_builds_without_gram(self, capsys):
        # the first K refused while the report carried the K x K Gram list
        code, out, _ = run_cli(capsys, "discriminate", "--K", "1296")
        assert code == 0
        rep = json.loads(out)["discrimination"]
        assert "gram" not in rep
        assert len(rep["success_probabilities"]) == 1296

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


# Edge values for every numeric flag: each is refused with exit 1, by the
# parser or by validation.
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
    ],
    "curve": [
        ("--kind", ["exact", "surrogate"], ["x"]),
        ("--means", ["0.5", "0.5,3", "1,4"], EDGES + ["3,0.5", "0.5,nan", "1,x"]),
        ("--dim", ["2", "64"], EDGES),
        ("--mean-tol", ["1e-6", "1e-8"], EDGES),
    ],
    "simulate": [
        (
            "--povm",
            ["@pom.json", "@pom-k2.json"],
            BAD_FILES + ["@state.json", "@pom-ragged.json", "@pom-inf.json"],
        ),
        ("--state", GOOD_STATES, BAD_STATES),
        ("--grid", ["64", "8192"], EDGES),
    ],
    "discriminate": [("--K", ["1", "4"], EDGES)],
}
# The formats each command writes; the others are refused.
FORMATS = {
    "constants": ["text", "json"],
    "bounds": ["text", "json"],
    "optimize": ["json"],
    "curve": ["csv", "json"],
    "simulate": ["json", "text"],
    "discriminate": ["json", "text"],
}
COMMON_OPTIONS = [
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
        # outcomes of different dims
        "pom-ragged.json": json.dumps({"outcomes": [
            {"estimate": 0, "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]},
            {"estimate": 1, "matrix": [[[0.5, 0]]]},
        ]}),
        # an entry that parses to inf
        "pom-inf.json": '{"outcomes": [{"estimate": 0, "matrix": [[[1e400, 0]]]}]}',
    }
    for name, text in files.items():
        (d / name).write_text(text)
    (d / "sub").mkdir()
    return d


@st.composite
def fuzzed_argv(draw):
    command = draw(st.sampled_from(sorted(FUZZ_OPTIONS)))
    argv = [command]
    formats = FORMATS[command]
    refused_formats = [f for f in ("csv", "json", "text", "x") if f not in formats]
    options = FUZZ_OPTIONS[command] + [("--format", formats, refused_formats)] + COMMON_OPTIONS
    for flag, good, bad in options:
        # each flag, a required one too, is left out or given a value to
        # refuse a sixth of the time each
        choice = draw(st.integers(0, 5))
        if choice:
            argv += [flag, draw(st.sampled_from(bad if choice == 1 else good))]
    return argv


@settings(max_examples=300, deadline=None)
@given(argv=fuzzed_argv())
# a non-finite element is refused before the Hermitian test would warn
@example(argv=["simulate", "--povm", "@pom-inf.json", "--state", "[[1,0]]"])
def test_fuzzed_argv_exits_with_one_line(fuzz_dir, argv):
    argv = [os.path.join(fuzz_dir, a[1:]) if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    # a warning would print to stderr as well
    assert not caught, [str(w.message) for w in caught]
    err = err.getvalue()
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
        return
    # every refusal, the parser's too, is exactly one line on stderr
    assert err.startswith("error: " if code == 1 else "non-convergence: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert out.getvalue() == ""


# Entries a POM file may hold in place of a number: the ints and bools that
# complex(re, im) takes, and what it refuses (ints past the float range too).
POM_ENTRIES = ["1", None, [1.0], {"re": 1}, 2**1024, -(2**1024), 10**400,
               math.nan, math.inf, -math.inf, 2**53 + 1, True, False, 0, 1]


@st.composite
def pom_texts(draw):
    """A POM file's text: the rows of a unitary, each outcome written as a
    "matrix" or a "vector", then up to two entries, pairs or rows spoiled."""
    dim = draw(st.integers(1, 3))
    if draw(st.booleans()):
        u = np.eye(dim, dtype=complex)  # entries 0 and 1, which ints and bools can stand for
    else:
        z = np.random.default_rng(draw(st.integers(0, 2**16))).standard_normal((dim, 2 * dim))
        u = np.linalg.qr(z[:, :dim] + 1j * z[:, dim:])[0]
    outcomes = []
    for j in range(dim):
        if draw(st.booleans()):
            outcomes.append({"estimate": float(j), "vector": _to_pairs(u[j])})
        else:
            outcomes.append({"estimate": float(j), "matrix": _to_pairs(np.outer(u[j], u[j].conj()))})
    for _ in range(draw(st.integers(0, 2))):
        o = draw(st.sampled_from(outcomes))
        pairs = o["vector"] if "vector" in o else draw(st.sampled_from(o["matrix"]))
        if not pairs:
            continue
        i = draw(st.integers(0, len(pairs) - 1))
        spoil = draw(st.sampled_from(["entry", "short", "long", "nested", "text", "drop"]))
        if spoil == "drop":  # a ragged row, or a short vector
            del pairs[i]
        elif spoil == "text":
            pairs[i] = "12"
        elif not isinstance(pairs[i], list):
            continue
        elif spoil == "entry":
            pairs[i][draw(st.integers(0, len(pairs[i]) - 1))] = draw(st.sampled_from(POM_ENTRIES))
        elif spoil == "short":
            pairs[i] = pairs[i][:1]
        elif spoil == "long":
            pairs[i] = pairs[i] + [0.0]
        else:
            pairs[i] = [pairs[i], pairs[i]]
    return json.dumps({"outcomes": outcomes})


@pytest.fixture(scope="module")
def pom_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("pom")


def _pom_or_none(load):
    try:
        return load()
    except ValidationError:
        return None


@settings(max_examples=300, deadline=None)
@given(text=pom_texts())
def test_pom_reader_matches_reference(pom_dir, text):
    # the file reader and from_json accept exactly what the per-entry
    # complex(re, im) reader accepted, with the same bits, and refuse the
    # rest with one error line
    path = pom_dir / "pom.json"
    path.write_text(text)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # the reference's outer products
            expected = reference_pom_from_json(json.loads(text))
    except ValidationError:
        expected = None
    # drops can leave a smaller POM that is still valid
    state = json.dumps([[1, 0]] + [[0, 0]] * (expected.dim - 1 if expected else 0))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["simulate", "--povm", str(path), "--state", state])
        got = [
            _pom_or_none(lambda: _load_povm(str(path))),
            _pom_or_none(lambda: EstimatePOM.from_json(json.loads(text))),
        ]
    # a warning would print to stderr as well
    assert not caught, [str(w.message) for w in caught]
    if expected is None:
        assert code == 1 and err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
        assert got == [None, None]
        return
    assert code == 0 and err.getvalue() == ""
    for pom in got:
        for name in ("estimates", "elements", "vectors"):
            a, b = getattr(pom, name), getattr(expected, name)
            assert (a is None) == (b is None), name
            if a is not None:
                assert a.dtype == b.dtype and a.shape == b.shape, name
                assert a.tobytes() == b.tobytes(), name


def test_povm_load_peak_memory(tmp_path, rng):
    # the load peaks at about twice the file, while its bytes are decoded to
    # text (2.0 here); a reader that kept every [re, im] pair of the file as
    # a list first peaked at 4.7 times this file
    path = tmp_path / "pom.json"
    path.write_text(json.dumps(random_povm(rng, 32, 32).to_json()))
    size = path.stat().st_size
    assert size >= 1 << 20
    tracemalloc.start()
    try:
        _load_povm(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * size
