import csv
import io
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from magcal import fileio
from magcal.initfit import fit_initial
from magcal.linalg import pack_upper
from magcal.ml import solve_ml
from magcal.nm import solve_nm
from magcal.simulate import default_truth, simulate, sweep_trajectory
from magcal.types import CalibrationParams


# Values whose repr is unusual: non-finite, signed zero, subnormal, extreme.
_ODD_ROWS = np.array([
    [np.nan, np.inf, -np.inf],
    [-0.0, 0.0, 5e-324],
    [1e308, -1e308, 2.2250738585072014e-308],
    [1.0 / 3.0, 0.1, 1e16],
    [1e-5, 123456789.0, -1.5],
])


def _csv_writer_bytes(header, rows) -> bytes:
    """What the csv module writes for the given rows, values as repr."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(v)) for v in row])
    return out.getvalue().encode()


def _read_samples_csv_loop(path) -> np.ndarray:
    """Reference dataset reader: csv.reader with a per-row float() loop."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty dataset file")
        header = [h.strip() for h in header]
        try:
            indices = [header.index(c) for c in fileio.SAMPLE_COLUMNS]
        except ValueError:
            raise ValueError(
                f"{path}: header must contain columns {fileio.SAMPLE_COLUMNS}, got {header}"
            ) from None
        extras = [h for h in header if h not in fileio.SAMPLE_COLUMNS]
        if extras:
            warnings.warn(f"{path}: ignoring extra columns {extras}")
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                values = [float(row[i]) for i in indices]
            except (ValueError, IndexError):
                raise ValueError(f"{path}: bad row at line {line_no}: {row}") from None
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{path}: non-finite value at line {line_no}: {row}")
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no samples")
    return np.asarray(rows)


def _assert_bit_equal(actual, expected):
    assert actual.dtype == expected.dtype == np.float64
    assert actual.shape == expected.shape
    assert actual.flags.c_contiguous
    assert actual.tobytes() == expected.tobytes()


@pytest.fixture(scope="module")
def solved():
    ds = simulate(default_truth(), sweep_trajectory(120), seed=0)
    init, min_eigenvalue = fit_initial(ds)
    return {
        "dataset": ds,
        "min_eigenvalue": min_eigenvalue,
        "nm": solve_nm(ds, init),
        "ml": solve_ml(ds, init),
    }


class TestSamplesCsv:
    def test_full_precision_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = rng.normal(0, 2, (50, 3))
        path = tmp_path / "data.csv"
        fileio.write_samples_csv(path, samples)
        np.testing.assert_array_equal(fileio.read_samples_csv(path), samples)

    def test_byte_identical_rewrites(self, tmp_path):
        rng = np.random.default_rng(1)
        samples = rng.normal(0, 2, (20, 3))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        fileio.write_samples_csv(a, samples)
        fileio.write_samples_csv(b, samples)
        assert a.read_bytes() == b.read_bytes()

    def test_bytes_match_csv_writer(self, tmp_path):
        rows = np.vstack([_ODD_ROWS, np.random.default_rng(2).normal(0, 2, (20, 3))])
        path = tmp_path / "data.csv"
        fileio.write_samples_csv(path, rows)
        assert path.read_bytes() == _csv_writer_bytes(fileio.SAMPLE_COLUMNS, rows)

    def test_extra_columns_ignored_with_warning(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("time,yx,yy,yz,temp\n0.0,1.0,2.0,3.0,21.5\n0.1,4.0,5.0,6.0,21.6\n")
        with pytest.warns(UserWarning, match="extra columns"):
            samples = fileio.read_samples_csv(path)
        np.testing.assert_array_equal(samples, [[1, 2, 3], [4, 5, 6]])

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            fileio.read_samples_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            fileio.read_samples_csv(path)

    def test_bad_cell_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("yx,yy,yz\n1.0,2.0,oops\n")
        with pytest.raises(ValueError, match="line 2"):
            fileio.read_samples_csv(path)


    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_reports_line(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"yx,yy,yz\n1.0,2.0,3.0\n\n1.0,{cell},3.0\n")
        with pytest.raises(ValueError, match="non-finite value at line 4"):
            fileio.read_samples_csv(path)

    @pytest.mark.parametrize("body", ["", "\n", "\r\n\r\n\n"])
    def test_no_samples_raises_without_warning(self, tmp_path, body):
        path = tmp_path / "empty_body.csv"
        path.write_bytes(("yx,yy,yz" + body).encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no samples"):
                fileio.read_samples_csv(path)

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 40), st.just(3)),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
    @example(np.array([[-0.0, 0.0, 5e-324], [1e308, -1e308, -2.2250738585072014e-308]]))
    def test_round_trip_is_bit_exact(self, samples):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.csv"
            fileio.write_samples_csv(path, samples)
            _assert_bit_equal(fileio.read_samples_csv(path), samples)


_GOOD_BODIES = {
    "quoted": '"1.5","-2",3\n4,"5e-3","-0.0"\n',
    "whitespace": " 1.5 ,\t-2\t, 3 \n4 ,  5e-3,-0.0  \n",
    "blank_lines": "\n1.5,-2,3\n\n\n4,5e-3,-0.0\n\n",
    "crlf": "1.5,-2,3\r\n4,5e-3,-0.0\r\n",
    "crlf_blank_lines": "\r\n1.5,-2,3\r\n\r\n4,5e-3,-0.0\r\n",
    "no_final_newline": "1.5,-2,3\n4,5e-3,-0.0",
    "crlf_no_final_newline": "1.5,-2,3\r\n4,5e-3,-0.0",
    "trailing_fields": "1.5,-2,3,7,8\n4,5e-3,-0.0,\n",
}

# One malformed body line each; the reference loop and the reader must reject
# it with the same message, wherever it sits among good rows.
_BAD_LINES = {
    "bad_cell": "1.0,2.0,oops",
    "short_row": "1.0,2.0",
    "empty_cell": "1.0,,3.0",
    "hex": "0x10,2.0,3.0",
    "whitespace_only": "   ",
    "hash_line": "# comment",
    "nan": "1.0,nan,3.0",
    "inf": "inf,2.0,3.0",
    "neg_infinity": "1.0,2.0,-Infinity",
    "overflow": "1.0,2.0,1e309",
}


class TestSamplesCsvMatchesLoop:
    """The np.loadtxt reader against the csv.reader loop it replaced."""

    @staticmethod
    def _both(path):
        results = []
        for read in (fileio.read_samples_csv, _read_samples_csv_loop):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                results.append(read(path))
        return results

    @pytest.mark.parametrize("n", [1, 2, 300, 30_000])
    def test_round_trip(self, tmp_path, n):
        samples = np.random.default_rng(n).normal(0, 0.5, (n, 3))
        path = tmp_path / "data.csv"
        fileio.write_samples_csv(path, samples)
        new, ref = self._both(path)
        _assert_bit_equal(new, ref)
        _assert_bit_equal(new, samples)

    def test_reordered_and_extra_columns(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(" yz ,time,yx, yy,temp\n3.0,0.0,1.0,2.0,21.5\n6.0,0.1,4.0,5.0,21.6\n")
        with pytest.warns(UserWarning, match="extra columns"):
            new = fileio.read_samples_csv(path)
        with pytest.warns(UserWarning, match="extra columns"):
            ref = _read_samples_csv_loop(path)
        _assert_bit_equal(new, ref)
        _assert_bit_equal(new, np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))

    @pytest.mark.parametrize("name", sorted(_GOOD_BODIES))
    def test_accepted_cell_grammar(self, tmp_path, name):
        path = tmp_path / "data.csv"
        path.write_bytes(("yx,yy,yz\r\n" + _GOOD_BODIES[name]).encode())
        new, ref = self._both(path)
        _assert_bit_equal(new, ref)
        _assert_bit_equal(new, np.array([[1.5, -2.0, 3.0], [4.0, 5e-3, -0.0]]))

    @pytest.mark.parametrize("position", [0, 1, 150, 299])
    @pytest.mark.parametrize("name", sorted(_BAD_LINES))
    def test_same_error_and_line(self, tmp_path, name, position):
        good = [f"{k}.5,-{k},{k}e-3" for k in range(300)]
        # A blank line before the bad one: blank lines count towards line numbers.
        lines = good[:position] + ["", _BAD_LINES[name]] + good[position:]
        path = tmp_path / "bad.csv"
        path.write_text("yx,yy,yz\n" + "\n".join(lines) + "\n")
        messages = []
        for read in (fileio.read_samples_csv, _read_samples_csv_loop):
            with pytest.raises(ValueError) as info:
                read(path)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        kind = "non-finite value" if name in ("nan", "inf", "neg_infinity", "overflow") else "bad row"
        assert re.search(f"{kind} at line {position + 3}:", messages[0])

    @pytest.mark.parametrize("cell", ["1_000", "\u0661"])
    def test_python_only_literals_are_a_tightening(self, tmp_path, cell):
        path = tmp_path / "data.csv"
        path.write_text(f"yx,yy,yz\n{cell},2,3\n", encoding="utf-8")
        assert _read_samples_csv_loop(path).shape == (1, 3)
        with pytest.raises(ValueError, match="bad row at line 2"):
            fileio.read_samples_csv(path)


class TestCalibratedCsv:
    def test_magnitude_column(self, tmp_path):
        path = tmp_path / "cal.csv"
        fileio.write_calibrated_csv(path, np.array([[3.0, 4.0, 0.0]]))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "mx,my,mz,magnitude"
        assert lines[1].split(",")[-1] == "5.0"

    def test_bytes_match_csv_writer(self, tmp_path):
        rows = np.vstack([_ODD_ROWS, np.random.default_rng(3).normal(0, 2, (20, 3))])
        path = tmp_path / "cal.csv"
        with np.errstate(over="ignore", invalid="ignore"):
            fileio.write_calibrated_csv(path, rows)
            expected = np.column_stack([rows, np.linalg.norm(rows, axis=1)])
        assert path.read_bytes() == _csv_writer_bytes(("mx", "my", "mz", "magnitude"), expected)


class TestReports:
    def test_nm_report_round_trip(self, solved):
        doc = fileio.report_dict(
            solved["nm"], solved["min_eigenvalue"], "sha256:abc"
        )
        assert doc["method"] == "nm"
        assert doc["iterations"] == solved["nm"].iterations
        assert doc["converged"] is True
        assert doc["input_digest"] == "sha256:abc"
        params = fileio.params_from_report(doc)
        np.testing.assert_array_equal(params.shape, solved["nm"].final_params.shape)
        np.testing.assert_array_equal(params.offset, solved["nm"].final_params.offset)

    def test_ml_report_has_both_matrices(self, solved):
        doc = fileio.report_dict(solved["ml"])
        assert doc["method"] == "ml"
        np.testing.assert_array_equal(
            doc["t_upper"], pack_upper(solved["ml"].final_state.t_matrix)
        )
        assert len(doc["constraint_violation_history"]) == len(doc["objective_history"])

    def test_truth_report(self):
        p = CalibrationParams(np.eye(3), np.array([1.0, 2.0, 3.0]))
        doc = fileio.truth_report_dict(p)
        assert doc["method"] == "truth"
        np.testing.assert_array_equal(fileio.params_from_report(doc).offset, p.offset)

    def test_select_report(self, solved):
        nm_doc = fileio.report_dict(solved["nm"])
        ml_doc = fileio.report_dict(solved["ml"])
        combined = {"format_version": 1, "nm": nm_doc, "ml": ml_doc}
        assert fileio.select_report(nm_doc) is nm_doc
        assert fileio.select_report(combined, "ml") is ml_doc
        with pytest.raises(ValueError):
            fileio.select_report(combined)  # ambiguous
        with pytest.raises(ValueError):
            fileio.select_report({"format_version": 1})

    def test_json_round_trip(self, solved, tmp_path):
        doc = fileio.report_dict(solved["ml"], 1.25e-7, "sha256:xyz")
        path = tmp_path / "report.json"
        fileio.write_json(path, doc)
        assert fileio.read_json(path) == doc


class TestResultWriters:
    def test_monte_carlo_files(self, tmp_path):
        from magcal.experiments import run_monte_carlo
        from magcal.simulate import default_config

        result = run_monte_carlo(default_config(n=100), runs=2, seed=3)
        csv_path = tmp_path / "mc_runs.csv"
        fileio.write_monte_carlo_csv(csv_path, result)
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2  # header + runs x methods
        summary = fileio.monte_carlo_summary(result)
        assert set(summary["aggregates"]) == {"nm", "ml"}

    def test_sensitivity_files(self, tmp_path):
        from magcal.experiments import run_sensitivity
        from magcal.simulate import default_config

        result = run_sensitivity(default_config(n=100), [0.0], runs=1, seed=4)
        path = tmp_path / "sens.csv"
        fileio.write_sensitivity_csv(path, result)
        assert len(path.read_text().strip().splitlines()) == 3
        # The summary holds the result's fields; its tuples are written as lists.
        fileio.write_json(tmp_path / "sens.json", fileio.sensitivity_summary(result))
        summary = fileio.read_json(tmp_path / "sens.json")
        assert summary["nm_divergences"] == [0]
        assert summary["alphas"] == [0.0]
        assert set(summary) == {"format_version", "tool_version", "alphas", "nm_divergences",
                                "ml_divergences", "runs", "nm_threshold", "ml_threshold", "seed"}

    def test_timing_files(self, tmp_path):
        from magcal.experiments import TimingRow

        rows = [TimingRow(300, "nm", 0.25, 4, 0.0625), TimingRow(300, "ml", 0.5, 3, 1 / 6)]
        fileio.write_timing_csv(tmp_path / "tim.csv", rows)
        assert (tmp_path / "tim.csv").read_bytes() == (
            b"n,method,median_seconds,iterations,seconds_per_iteration\r\n"
            b"300,nm,0.25,4,0.0625\r\n300,ml,0.5,3,0.16666666666666666\r\n"
        )
        assert fileio.timing_summary(rows)["rows"][1] == {
            "n": 300, "method": "ml", "median_seconds": 0.5, "iterations": 3,
            "seconds_per_iteration": 1 / 6,
        }

    def test_digest_stable(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"abc")
        assert fileio.file_digest(path) == fileio.file_digest(path)
        assert fileio.file_digest(path).startswith("sha256:")
