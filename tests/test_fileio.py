import csv
import io

import numpy as np
import pytest

from magcal import fileio
from magcal.initfit import fit_ellipsoid, initial_ml_state, initial_params
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


@pytest.fixture(scope="module")
def solved():
    ds = simulate(default_truth(), sweep_trajectory(120), seed=0)
    coeffs = fit_ellipsoid(ds)
    init = initial_params(coeffs)
    return {
        "dataset": ds,
        "coeffs": coeffs,
        "nm": solve_nm(ds, init),
        "ml": solve_ml(ds, initial_ml_state(init, ds)),
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
            solved["nm"], solved["coeffs"].min_eigenvalue, "sha256:abc"
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
        summary = fileio.sensitivity_summary(result)
        assert summary["nm_divergences"] == [0]

    def test_digest_stable(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"abc")
        assert fileio.file_digest(path) == fileio.file_digest(path)
        assert fileio.file_digest(path).startswith("sha256:")
