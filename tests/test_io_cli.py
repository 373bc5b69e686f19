"""Text format round trips, spec parsing, the random generator, and the CLI."""
import hashlib
import io
import json
import os
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specrad as sr
import specrad.solvers
import specrad.structure
import specrad.tensor_io
from specrad.cli import SCHEMA_VERSION, TRACE_HEADER, main
from specrad.errors import (
    BadDensity,
    BadHeader,
    BadIndex,
    NegativeValue,
    ParseError,
    SpecradError,
)
from specrad.tensor_io import (
    MAX_RANDOM_CELLS,
    _parse_entries,
    parse_p,
    parse_partition,
    parse_tensor,
    random_tensor,
    write_tensor,
)

from conftest import ring_cube


class TestParseTensor:
    def test_basic_entries_one_based(self):
        text = "3\n3 3 3\n1 1 3 0.5\n2 2 1 1.25\n"
        t = parse_tensor(text)
        assert t.dims == (3, 3, 3)
        assert t.nnz == 2
        assert t.indices.tolist() == [[0, 0, 2], [1, 1, 0]]
        assert t.values.tolist() == [0.5, 1.25]

    def test_duplicates_merge_by_addition(self):
        t = parse_tensor("2\n3 3\n1 1 0.5\n1 1 0.5\n")
        assert t.nnz == 1
        assert t.values.tolist() == [1.0]

    def test_comments_and_blank_lines(self):
        text = """
        # tensor of order two
        2        # the order
        2 2      # the dimensions

        1 2 3.0  # an entry
        # done
        """
        t = parse_tensor(text)
        assert t.dims == (2, 2)
        assert t.indices.tolist() == [[0, 1]]

    def test_file_like_source(self):
        t = parse_tensor(io.StringIO("2\n2 2\n1 1 1.0\n"))
        assert t.nnz == 1

    def test_no_entries_is_a_zero_tensor(self):
        t = parse_tensor("3\n2 2 2\n")
        assert t.nnz == 0

    @pytest.mark.parametrize(
        "text, exc, fragment",
        [
            ("", BadHeader, "empty"),
            ("# only comments\n", BadHeader, "empty"),
            ("2 3\n", BadHeader, "line 1"),
            ("x\n2 2\n", BadHeader, "line 1"),
            ("0\n\n", BadHeader, "positive"),
            ("2\n", BadHeader, "missing dimension"),
            ("2\n3\n", BadHeader, "line 2"),
            ("2\na b\n", BadHeader, "integers"),
            ("2\n3 0\n", BadHeader, "positive"),
            ("2\n2 2\n1 1\n", ParseError, "line 3"),
            ("2\n2 2\n1 x 1.0\n", ParseError, "integers"),
            ("2\n2 2\n1 1 nope\n", ParseError, "not a number"),
            ("2\n2 2\n1 1 inf\n", ParseError, "finite"),
            ("2\n2 2\n0 1 1.0\n", BadIndex, "outside 1..2"),
            ("2\n2 2\n1 3 1.0\n", BadIndex, "line 3"),
            ("2\n2 2\n1 1 -1.0\n", NegativeValue, "line 3"),
            ("2\n2 2\n99999999999999999999 1 1.0\n", BadIndex, "line 3"),
            ("2\n2 2\n1 1 1.0\n1 1 1_e\n", ParseError, "line 4"),
        ],
    )
    def test_errors_carry_line_numbers(self, text, exc, fragment):
        with pytest.raises(exc, match=fragment):
            parse_tensor(text)

    def test_error_line_number_skips_comments(self):
        text = "2\n2 2\n# filler\n# filler\n1 1 -2.0\n"
        with pytest.raises(NegativeValue, match="line 5"):
            parse_tensor(text)

    def test_python_number_forms_are_accepted(self):
        # underscores and non-ASCII digits, which int()/float() take
        t = parse_tensor("2\n12 2\n1_0 \u0662 1_5.0\n")
        assert t.indices.tolist() == [[9, 1]]
        assert t.values.tolist() == [15.0]

    def test_non_ascii_letters_are_not_digits(self):
        # np.loadtxt would read this index as 4621
        with pytest.raises(ParseError, match="line 3: indices must be integers"):
            parse_tensor("2\n5000 2\n\u01fe1 1 1.0\n")

    def test_splitlines_breaks_end_an_entry_line(self):
        t = parse_tensor("2\n2 2\n1 1 1.0\x0c2 2 2.0\v# c\x1d\n")
        assert t.indices.tolist() == [[0, 0], [1, 1]]
        assert t.values.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize(
        "text",
        [
            "3\n2 2 2\n1 1 1 0.5\n2 2 2 1.5\n",
            "3\r\n2 2 2\r\n1 1 1 0.5\r\n2 2 2 1.5",
            "# head\n3 # order\n\n2\t2 2\n1\t1 1 0.5 # entry\n\n# mid\n2 2 2\t1.5\n",
            "3\n2 2 2\n",
        ],
    )
    def test_well_formed_text_skips_the_per_line_loop(self, text, monkeypatch):
        def per_line(*args):
            raise AssertionError("the per-line loop ran on a well-formed text")

        monkeypatch.setattr(specrad.tensor_io, "_parse_entries", per_line)
        t = parse_tensor(text)
        assert t.dims == (2, 2, 2)
        assert t.nnz in (0, 2)

    def test_large_text_in_bulk_and_in_bounded_memory(self, monkeypatch):
        rng = np.random.default_rng(0)
        idx = rng.integers(1, 2001, size=(64_000, 3))
        vals = 1.0 - rng.random(64_000)
        text = "3\n2000 2000 2000\n" + "".join(
            f"{i} {j} {k} {v!r}\n" for (i, j, k), v in zip(idx.tolist(), vals.tolist())
        )
        monkeypatch.setattr(specrad.tensor_io, "_parse_entries", None)
        tracemalloc.start()
        try:
            t = parse_tensor(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t == sr.CooTensor(t.dims, idx - 1, vals)
        assert peak < 20e6


_TOKENS = [
    "1", "2", "3", "1_0", "+1", "1.0", "x", "-1", "99999999999999999999",
    "inf", "nan", "-0.0", "1e309", "0.5",
]
_EOLS = ["\n", "\n", "\r\n", "\r\n", " # note\n", "\t\n"]


@st.composite
def tensor_texts(draw):
    """``(text, dims)``: an order and dimension line on lines 1 and 2, then
    lines of drawn tokens, comments and blanks with drawn line endings."""
    m = draw(st.integers(1, 3))
    dims = [draw(st.integers(1, 12)) for _ in range(m)]
    lines = [str(m), " ".join(map(str, dims))]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["entry", "entry", "entry", "tokens", "comment", "blank"]))
        if kind == "entry":
            toks = [str(draw(st.integers(1, n))) for n in dims]
            toks.append(draw(st.sampled_from(["0.5", "1.0", "2", "-0.0", "0.1", "1_0", "+1"])))
        elif kind == "tokens":
            toks = draw(st.lists(st.sampled_from(_TOKENS), min_size=m, max_size=m + 2))
        else:
            toks = ["# just a comment"] if kind == "comment" else []
        lines.append(draw(st.sampled_from([" ", "\t", "  "])).join(toks))
    eols = [draw(st.sampled_from(_EOLS)) for _ in lines]
    text = "".join(line + eol for line, eol in zip(lines, eols))
    if draw(st.booleans()):
        text = text[: -len(eols[-1])]
    return text, tuple(dims)


def _outcome(parse):
    try:
        t = parse()
    except (SpecradError, ValueError) as e:
        return type(e), str(e)
    return t.dims, t.indices.tobytes(), t.values.tobytes()


class TestBulkParseMatchesPerLineLoop:
    """Whichever path parses the entries, the tensor or the error is the
    per-line loop's, bit for bit and word for word."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(case=tensor_texts())
    def test_same_tensor_or_same_error(self, case):
        text, dims = case
        expected = _outcome(lambda: _parse_entries(text.splitlines()[2:], dims, 3))
        assert _outcome(lambda: parse_tensor(text)) == expected


class TestWriteTensor:
    def test_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(3)
        t = random_tensor((3, 4, 2), density=0.4, seed=11)
        back = parse_tensor(write_tensor(t))
        assert back == t
        assert np.array_equal(back.values, t.values)
        assert np.array_equal(back.indices, t.indices)
        # awkward decimals survive through repr
        t2 = sr.CooTensor((2, 2), [(0, 0), (1, 1)], [0.1 + 0.2, 1.0 / 3.0])
        back2 = parse_tensor(write_tensor(t2))
        assert back2.values.tolist() == [0.1 + 0.2, 1.0 / 3.0]

    @pytest.mark.parametrize("value", [5e-324, 1e-300, 0.1 + 0.2, 1e308])
    def test_round_trip_is_bit_exact_at_extreme_values(self, value):
        t = sr.CooTensor((2, 3), [(1, 2), (0, 0)], [value, 1.0])
        back = parse_tensor(write_tensor(t))
        assert back.values.tobytes() == t.values.tobytes()
        assert np.array_equal(back.indices, t.indices)

    def test_stream_output_matches_return_value(self):
        t = sr.CooTensor((2, 2), [(0, 1)], [2.5])
        buf = io.StringIO()
        text = write_tensor(t, buf)
        assert buf.getvalue() == text
        assert text == "2\n2 2\n1 2 2.5\n"

    def test_entries_written_in_canonical_order(self):
        t = sr.CooTensor((2, 2), [(1, 0), (0, 1)], [1.0, 2.0])
        lines = write_tensor(t).splitlines()
        assert lines[2:] == ["1 2 2.0", "2 1 1.0"]


class TestParseSpecs:
    def test_partition_specs(self):
        assert parse_partition("1;2,3") == [[0], [1, 2]]
        assert parse_partition("1,2,3") == [[0, 1, 2]]
        assert parse_partition(" 1 ; 2 , 3 ") == [[0], [1, 2]]

    @pytest.mark.parametrize("spec", ["", "1;;3", "a,2", "0;1", "1;-2"])
    def test_partition_errors(self, spec):
        with pytest.raises(ParseError):
            parse_partition(spec)

    def test_p_specs(self):
        floats, exact = parse_p("2,4")
        assert floats == (2.0, 4.0)
        assert exact == (Fraction(2), Fraction(4))
        floats, exact = parse_p("5/2, 3")
        assert floats == (2.5, 3.0)
        assert exact == (Fraction(5, 2), Fraction(3))

    @pytest.mark.parametrize("spec", ["", "2,,3", "x", "1/0"])
    def test_p_errors(self, spec):
        with pytest.raises(ParseError):
            parse_p(spec)


class TestRandomTensor:
    def test_same_seed_same_tensor(self):
        a = random_tensor((3, 3, 3), density=0.5, seed=7)
        b = random_tensor((3, 3, 3), density=0.5, seed=7)
        assert a == b
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        a = random_tensor((3, 3, 3), density=0.5, seed=7)
        b = random_tensor((3, 3, 3), density=0.5, seed=8)
        assert a != b

    def test_full_density_fills_every_cell(self):
        t = random_tensor((3, 3, 3), density=1.0, seed=0)
        assert t.nnz == 27
        assert np.all(t.values > 0.0) and np.all(t.values <= 1.0)

    def test_every_leading_slice_occupied(self):
        t = random_tensor((6, 2, 2), density=0.05, seed=42)
        assert set(t.indices[:, 0].tolist()) == set(range(6))

    @pytest.mark.parametrize("density", [0.0, -0.5, 1.5])
    def test_bad_density(self, density):
        with pytest.raises(BadDensity):
            random_tensor((2, 2), density=density, seed=0)

    def test_dims_validation(self):
        with pytest.raises(ValueError):
            random_tensor((0, 3), density=0.5, seed=0)
        with pytest.raises(ValueError):
            random_tensor((MAX_RANDOM_CELLS + 1, 2), density=1e-9, seed=0)

    @pytest.mark.parametrize("dims", [(2**32, 2**32), (10**20 - 1, 2)])
    def test_cell_count_does_not_wrap(self, dims):
        # 2**64 cells wrap to 0 in int64, and 1e20 does not fit in it at all
        with pytest.raises(ValueError, match="supports up to"):
            random_tensor(dims, density=0.5, seed=0)


@pytest.fixture()
def ref_file(tmp_path, ref_tensor):
    path = tmp_path / "ref.txt"
    path.write_text(write_tensor(ref_tensor))
    return str(path)


def run_cli(args):
    return main(args)


class TestCliSolve:
    def test_happy_path_json_to_stdout(self, ref_file, capsys):
        rc = run_cli(
            ["solve", "--tensor", ref_file, "--partition", "1,2,3", "--p", "3"]
        )
        captured = capsys.readouterr()
        assert rc == 0
        payload = json.loads(captured.out)
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["method"] == "lsnnm"
        assert payload["converged"] is True
        assert abs(payload["lambda_star"] - 1.748) <= 5e-3
        assert payload["res"] <= 1e-12
        assert payload["cw_lower"] <= payload["lambda_star"] <= payload["cw_upper"]
        assert payload["partition"]["blocks"] == [[1, 2, 3]]
        assert payload["partition"]["starts"] == [1]
        assert payload["p"] == [3.0]
        assert payload["regime"]["regime"] == "WeaklyIrrCritical"
        assert len(payload["x"]) == 1 and len(payload["x"][0]) == 3
        assert len(payload["trace"]) == payload["iterations"] + 1
        assert set(payload["trace"][0]) == {
            "k", "lambda", "delta", "alpha", "backtracks", "res", "cw_lower",
            "h_norm", "tangency",
        }

    def test_json_and_trace_files(self, ref_file, tmp_path, capsys):
        jp = tmp_path / "out.json"
        tp = tmp_path / "trace.csv"
        rc = run_cli(
            [
                "solve", "--tensor", ref_file, "--partition", "1;2,3",
                "--p", "3,5", "--json", str(jp), "--trace", str(tp),
            ]
        )
        assert rc == 0
        assert capsys.readouterr().out == ""
        payload = json.loads(jp.read_text())
        lines = tp.read_text().splitlines()
        assert lines[0] == TRACE_HEADER
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == len(payload["trace"])
        for row, rec in zip(rows, payload["trace"]):
            assert len(row) == 9
            assert int(row[0]) == rec["k"]
            assert float(row[1]) == rec["lambda"]
            assert float(row[5]) == rec["res"]
            assert float(row[6]) == rec["cw_lower"]
        ks = [int(r[0]) for r in rows]
        assert ks == list(range(len(rows)))

    def test_power_method_flag(self, ref_file, capsys):
        rc = run_cli(
            [
                "solve", "--tensor", ref_file, "--partition", "1,2,3",
                "--p", "4", "--method", "power",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["method"] == "power"
        assert payload["converged"] is True

    def test_exact_rational_exponents(self, ref_file, capsys):
        rc = run_cli(
            ["solve", "--tensor", ref_file, "--partition", "1,2,3", "--p", "7/2"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["p"] == [3.5]
        assert payload["regime"]["nu_over_p_exact"] == "6/7"

    def test_iteration_cap_exits_2(self, ref_file, capsys):
        rc = run_cli(
            [
                "solve", "--tensor", ref_file, "--partition", "1,2,3",
                "--p", "3", "--max-iter", "2",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert "iteration cap" in captured.err
        payload = json.loads(captured.out)
        assert payload["converged"] is False
        assert len(payload["trace"]) == 3

    def test_unreachable_tolerance_exits_2(self, ref_file, capsys):
        rc = run_cli(
            [
                "solve", "--tensor", ref_file, "--partition", "1,2,3",
                "--p", "3", "--tol", "1e-30", "--max-iter", "40",
            ]
        )
        capsys.readouterr()
        assert rc == 2

    def test_krylov_breakdown_exits_2(self, tmp_path, capsys, monkeypatch):
        # N = 303 unknowns take the GMRES step; a cap of 1 cannot meet rtol
        monkeypatch.setattr(sr.solvers, "_KRYLOV_MAX_ITER", 1)
        path = tmp_path / "ring.txt"
        path.write_text(write_tensor(ring_cube(101, 0)))
        rc = run_cli(
            ["solve", "--tensor", str(path), "--partition", "1;2;3", "--p", "4,4,4"]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert "solver breakdown" in captured.err and "rtol" in captured.err
        payload = json.loads(captured.out)
        assert "solver breakdown" in payload["error"]
        assert payload["regime"]["regime"] == "BothValid"

    def test_structural_rejection_exits_3(self, tmp_path, capsys):
        path = tmp_path / "zero.txt"
        path.write_text("3\n2 2 2\n")
        rc = run_cli(
            ["solve", "--tensor", str(path), "--partition", "1,2,3", "--p", "3"]
        )
        captured = capsys.readouterr()
        assert rc == 3
        assert "strict nonnegativity" in captured.err
        payload = json.loads(captured.out)
        assert "structural rejection" in payload["error"]
        assert payload["regime"]["strict_nonneg"] is False

    def test_rejection_payload_respects_json_path(self, tmp_path, capsys):
        path = tmp_path / "zero.txt"
        path.write_text("3\n2 2 2\n")
        jp = tmp_path / "err.json"
        rc = run_cli(
            [
                "solve", "--tensor", str(path), "--partition", "1,2,3",
                "--p", "3", "--json", str(jp),
            ]
        )
        capsys.readouterr()
        assert rc == 3
        assert "error" in json.loads(jp.read_text())

    def test_missing_file_exits_1(self, tmp_path, capsys):
        rc = run_cli(
            [
                "solve", "--tensor", str(tmp_path / "nope.txt"),
                "--partition", "1,2,3", "--p", "3",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert "cannot open" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--tensor", "{dir}", "--partition", "1,2,3", "--p", "3"],
            ["solve", "--tensor", "{ref}", "--partition", "1,2,3", "--p", "3", "--json", "{dir}"],
            ["check", "--tensor", "{ref}", "--partition", "1,2,3", "--p", "3", "--json", "{dir}"],
            ["random", "--dims", "2,2", "--out", "{dir}"],
        ],
        ids=["tensor-dir", "solve-json-dir", "check-json-dir", "random-out-dir"],
    )
    def test_unopenable_path_exits_1(self, tmp_path, ref_file, capsys, argv):
        # a directory where a file is expected raises IsADirectoryError, an
        # OSError like the FileNotFoundError of a missing file
        rc = run_cli([a.format(dir=tmp_path, ref=ref_file) for a in argv])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.count("\n") == 1 and "cannot open" in captured.err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_write_exits_1(self, capsys):
        # /dev/full opens, then every write fails with ENOSPC and no file name
        rc = run_cli(["random", "--dims", "2,2", "--out", "/dev/full"])
        assert rc == 1
        assert capsys.readouterr().err == "specrad: I/O error: No space left on device\n"

    @pytest.mark.parametrize(
        "partition, p",
        [
            ("0;2,3", "2,4"),      # one-based violation in the partition string
            ("2,3;1", "2,4"),      # decreasing block sizes
            ("1,2,3", "2,4"),      # p length mismatch
            ("1;2,3", "2,1"),      # exponent not above one
        ],
    )
    def test_bad_problem_specs_exit_1(self, ref_file, capsys, partition, p):
        rc = run_cli(
            ["solve", "--tensor", ref_file, "--partition", partition, "--p", p]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("specrad:")

    def test_bad_solver_option_exits_1(self, ref_file, capsys):
        # tol = inf would certify res = inf after 0 iterations
        for tol in ("-1", "inf"):
            rc = run_cli(
                [
                    "solve", "--tensor", ref_file, "--partition", "1,2,3",
                    "--p", "3", "--tol", tol,
                ]
            )
            captured = capsys.readouterr()
            assert rc == 1
            assert "tol must be a finite positive real" in captured.err

    def test_usage_errors_exit_1(self, capsys):
        with pytest.raises(SystemExit) as ei:
            run_cli(["solve"])  # missing required arguments
        assert ei.value.code == 1
        capsys.readouterr()
        with pytest.raises(SystemExit) as ei:
            run_cli(["frobnicate"])
        assert ei.value.code == 1
        capsys.readouterr()
        # the line search's constants are not options
        for option in ("--rho", "--armijo-c"):
            with pytest.raises(SystemExit) as ei:
                run_cli(["solve", "--tensor", "t", "--partition", "1", "--p", "3", option, "0.5"])
            assert ei.value.code == 1
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as ei:
            run_cli(["--version"])
        assert ei.value.code == 0
        assert "specrad" in capsys.readouterr().out


@pytest.fixture
def classify_calls(monkeypatch):
    """Counts ``classify_regime`` calls through every ``specrad`` binding."""
    calls = []
    original = specrad.structure.classify_regime

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "specrad" and getattr(module, "classify_regime", None) is original:
            monkeypatch.setattr(module, "classify_regime", counted)
    return calls


class TestCliClassifiesOnce:
    @pytest.mark.parametrize("method", ["lsnnm", "power"])
    def test_one_classify_per_solve(self, ref_file, capsys, classify_work, method):
        # the solver's own classify_regime call finds the CLI's report on the problem
        rc = run_cli(
            [
                "solve", "--tensor", ref_file, "--partition", "1;2;3",
                "--p", "3,3,3", "--method", method,
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0 and payload["converged"]
        assert payload["regime"]["regime"] == "WeaklyIrrCritical"
        assert classify_work == {"_coupling_digraph": 1, "homogeneity_data": 1}

    def test_solvers_classify_without_a_report(self, ref_tensor, classify_calls):
        prob = sr.make_problem(ref_tensor, [[0], [1], [2]], ["3", "3", "3"])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            sr.solve(prob)
            sr.power_iteration(prob)
        assert len(classify_calls) == 2


class TestCliCheck:
    def test_reports_regime(self, ref_file, capsys):
        rc = run_cli(
            ["check", "--tensor", ref_file, "--partition", "1;2,3", "--p", "2,4"]
        )
        captured = capsys.readouterr()
        assert rc == 0
        payload = json.loads(captured.out)
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["strict_nonneg"] is True
        assert payload["weakly_irreducible"] is False
        assert payload["nu_over_p_exact"] == "1"
        assert payload["regime"] == "Unsupported"

    def test_json_file_matches_stdout(self, ref_file, tmp_path, capsys):
        jp = tmp_path / "report.json"
        rc = run_cli(
            [
                "check", "--tensor", ref_file, "--partition", "1,2,3",
                "--p", "3", "--json", str(jp),
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert json.loads(captured.out) == json.loads(jp.read_text())


class TestCliRandom:
    def test_stdout_tensor_parses(self, capsys):
        rc = run_cli(["random", "--dims", "3,3,3", "--seed", "5"])
        captured = capsys.readouterr()
        assert rc == 0
        t = parse_tensor(captured.out)
        assert t.dims == (3, 3, 3)
        assert t.nnz == 27  # default density is 1.0

    def test_out_file_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for path in (a, b):
            rc = run_cli(
                [
                    "random", "--dims", "4,3", "--density", "0.5",
                    "--seed", "9", "--out", str(path),
                ]
            )
            assert rc == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "dims, density, seed, size, sha256",
        [
            ("100,100,100", "0.03", "0", 840_974,
             "edb05998aa40be972bcfdc9e3c051fe41017a5eb25ffc00c405e34e31d9afc4b"),
            ("4,4,4", "0.3", "7", 486,
             "6b6ea159eff4673c2cd1e96473ff56537e13e44dc1fd14b459c0adfd9ea22ead"),
        ],
    )
    def test_output_bytes_are_pinned(self, capsys, dims, density, seed, size, sha256):
        rc = run_cli(["random", "--dims", dims, "--density", density, "--seed", seed])
        out = capsys.readouterr().out.encode()
        assert rc == 0
        assert len(out) == size
        assert hashlib.sha256(out).hexdigest() == sha256

    def test_bad_density_exits_1(self, capsys):
        rc = run_cli(["random", "--dims", "2,2", "--density", "2.0"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "BadDensity" in captured.err

    @pytest.mark.parametrize("dims", ["4294967296,4294967296", "99999999999999999999,2"])
    def test_too_many_cells_exits_1(self, capsys, dims):
        rc = run_cli(["random", "--dims", dims, "--density", "0.5"])
        assert rc == 1
        assert "supports up to" in capsys.readouterr().err


class TestCliBench:
    def test_table_and_json(self, tmp_path, capsys):
        jp = tmp_path / "bench.json"
        rc = run_cli(["bench", "--json", str(jp)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "partition" in captured.out and "lambda*" in captured.out
        # the two-block p=(2,4) case is critical by exact arithmetic while
        # the reference table marks it subcritical; the run must surface that
        assert "notes:" in captured.out
        assert "marks it" in captured.out
        payload = json.loads(jp.read_text())
        cases = payload["cases"]
        assert len(cases) == 18
        assert all(c["converged"] for c in cases)
        newton = [c for c in cases if c["method"] == "lsnnm"]
        assert all(c["iterations"] <= 15 for c in newton)
        assert all(
            abs(c["lambda_star"] - c["lambda_ref"]) <= 5e-3 for c in cases
        )
