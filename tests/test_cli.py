import json

import numpy as np
import pytest

from magcal import fileio
from magcal.cli import main
from magcal.simulate import default_config


def write_config(path, **overrides):
    doc = default_config().to_dict()
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return str(path)


class TestSimulateCommand:
    def test_default_scenario_writes_300_rows(self, tmp_path):
        out = tmp_path / "data.csv"
        assert main(["simulate", "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 301
        truth = fileio.read_json(tmp_path / "data.truth.json")
        assert truth["method"] == "truth"

    def test_seeded_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--out", str(a), "--seed", "42"])
        main(["simulate", "--out", str(b), "--seed", "42"])
        assert a.read_bytes() == b.read_bytes()

    def test_zero_samples_is_input_error(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", n=0)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2


class TestCalibrateCommand:
    def test_both_methods_agree_on_rich_data(self, tmp_path):
        data = tmp_path / "data.csv"
        report = tmp_path / "report.json"
        main(["simulate", "--out", str(data), "--seed", "124"])
        assert main(["calibrate", "--input", str(data), "--out", str(report)]) == 0
        doc = fileio.read_json(report)
        assert set(doc) >= {"nm", "ml", "comparison"}
        assert doc["comparison"]["agree"] is True
        assert doc["comparison"]["preferred"] == "either"
        assert doc["nm"]["input_digest"] == doc["ml"]["input_digest"]

    def test_weak_coverage_flags_ml_preferred(self, tmp_path):
        data = tmp_path / "flat.csv"
        report = tmp_path / "report.json"
        main(["simulate", "--out", str(data), "--seed", "9124", "--tilt", "5"])
        assert main(["calibrate", "--input", str(data), "--out", str(report)]) == 0
        doc = fileio.read_json(report)
        assert doc["comparison"]["agree"] is False
        assert doc["comparison"]["preferred"] == "ml"

    def test_single_method_report_is_flat(self, tmp_path):
        data = tmp_path / "data.csv"
        report = tmp_path / "nm.json"
        main(["simulate", "--out", str(data)])
        assert main(["calibrate", "--input", str(data), "--method", "nm",
                     "--out", str(report)]) == 0
        doc = fileio.read_json(report)
        assert doc["method"] == "nm"
        assert doc["min_eigenvalue"] is not None

    def test_unconverged_solve_exits_4_without_comparison(self, tmp_path, capsys):
        # Planar (tilt 0) data: nm converges, ml stops unconverged at 50.
        data = tmp_path / "planar.csv"
        report = tmp_path / "report.json"
        main(["simulate", "--out", str(data), "--seed", "3", "--tilt", "0"])
        assert main(["calibrate", "--input", str(data), "--out", str(report)]) == 4
        assert "ml solver did not converge in 50 iterations" in capsys.readouterr().err
        doc = fileio.read_json(report)
        assert "comparison" not in doc
        assert doc["nm"]["converged"] is True
        assert doc["ml"]["converged"] is False

    def test_non_finite_sample_exits_2_naming_line(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        main(["simulate", "--out", str(data)])
        lines = data.read_text().splitlines()
        lines[5] = "0.1,nan,0.2"
        data.write_text("\n".join(lines) + "\n")
        assert main(["calibrate", "--input", str(data), "--out",
                     str(tmp_path / "r.json")]) == 2
        assert "line 6" in capsys.readouterr().err

    def test_byte_order_mark_before_header(self, tmp_path):
        # Spreadsheet "CSV UTF-8" exports start the file with a UTF-8 BOM.
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        main(["simulate", "--out", str(plain), "--seed", "124"])
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        docs = []
        for data in (plain, marked):
            report = data.with_suffix(".json")
            assert main(["calibrate", "--input", str(data), "--out", str(report)]) == 0
            doc = fileio.read_json(report)
            for method in ("nm", "ml"):
                del doc[method]["input_digest"]
            docs.append(doc)
        assert docs[1] == docs[0]

    def test_too_few_rows_exits_3(self, tmp_path):
        data = tmp_path / "tiny.csv"
        fileio.write_samples_csv(data, np.ones((5, 3)))
        assert main(["calibrate", "--input", str(data), "--out",
                     str(tmp_path / "r.json")]) == 3

    def test_missing_input_exits_2(self, tmp_path):
        assert main(["calibrate", "--input", str(tmp_path / "none.csv"),
                     "--out", str(tmp_path / "r.json")]) == 2


class TestApplyCommand:
    def test_identity_report_keeps_samples(self, tmp_path):
        data = tmp_path / "data.csv"
        rng = np.random.default_rng(0)
        samples = rng.normal(0, 1, (15, 3))
        fileio.write_samples_csv(data, samples)
        report = tmp_path / "identity.json"
        fileio.write_json(
            report,
            {
                "format_version": 1,
                "method": "nm",
                "shape_upper": [1, 0, 0, 1, 0, 1],
                "offset": [0, 0, 0],
            },
        )
        out = tmp_path / "cal.csv"
        assert main(["apply", "--report", str(report), "--input", str(data),
                     "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(rows[:, :3], samples)

    def test_truth_on_noise_free_data_gives_unit_magnitudes(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", sigma=0.0)
        data = tmp_path / "data.csv"
        main(["simulate", "--config", cfg, "--out", str(data)])
        out = tmp_path / "cal.csv"
        assert main(["apply", "--report", str(tmp_path / "data.truth.json"),
                     "--input", str(data), "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        np.testing.assert_allclose(rows[:, 3], 1.0, atol=1e-10)

    def test_cross_applied_reports_shift_magnitudes(self, tmp_path):
        # Calibration from the weak-coverage dataset, applied to the rich
        # dataset, leaves a detectable magnitude offset for the quartic
        # method relative to its own calibration.
        rich = tmp_path / "rich.csv"
        flat = tmp_path / "flat.csv"
        main(["simulate", "--out", str(rich), "--seed", "124"])
        main(["simulate", "--out", str(flat), "--seed", "9124", "--tilt", "5"])
        rich_rep = tmp_path / "rich.json"
        flat_rep = tmp_path / "flat.json"
        main(["calibrate", "--input", str(rich), "--out", str(rich_rep)])
        main(["calibrate", "--input", str(flat), "--out", str(flat_rep)])
        own = tmp_path / "own.csv"
        cross = tmp_path / "cross.csv"
        main(["apply", "--report", str(rich_rep), "--method", "nm",
              "--input", str(rich), "--out", str(own)])
        main(["apply", "--report", str(flat_rep), "--method", "nm",
              "--input", str(rich), "--out", str(cross)])
        own_mags = np.loadtxt(own, delimiter=",", skiprows=1)[:, 3]
        cross_mags = np.loadtxt(cross, delimiter=",", skiprows=1)[:, 3]
        assert abs(cross_mags.mean() - 1.0) > 2 * abs(own_mags.mean() - 1.0)

    def test_mismatched_files_exit_2(self, tmp_path):
        report = tmp_path / "r.json"
        fileio.write_json(report, {"format_version": 1})
        data = tmp_path / "d.csv"
        fileio.write_samples_csv(data, np.ones((3, 3)))
        assert main(["apply", "--report", str(report), "--input", str(data),
                     "--out", str(tmp_path / "o.csv")]) == 2


class TestMetricsCommand:
    def test_estimate_against_truth(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        report = tmp_path / "report.json"
        main(["simulate", "--out", str(data)])
        main(["calibrate", "--input", str(data), "--out", str(report)])
        capsys.readouterr()  # drop the setup commands' chatter
        out = tmp_path / "metrics.json"
        code = main(["metrics", "--estimate", str(report), "--method", "ml",
                     "--truth", str(tmp_path / "data.truth.json"), "--out", str(out)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"scale_pct", "ortho_deg", "hard_iron_gauss"}
        assert payload["scale_pct"] < 0.5
        assert fileio.read_json(out) == payload

    def test_identical_reports_score_zero(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        fileio.write_json(
            report,
            {
                "format_version": 1,
                "method": "nm",
                "shape_upper": [1.1, 0.2, -0.1, 0.9, 0.3, 1.2],
                "offset": [0.5, 1.7, 2.6],
            },
        )
        assert main(["metrics", "--estimate", str(report), "--truth", str(report)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"scale_pct": 0.0, "ortho_deg": 0.0, "hard_iron_gauss": 0.0}

    def test_parse_failure_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["metrics", "--estimate", str(bad), "--truth", str(bad)]) == 2


class TestStudyCommands:
    def test_montecarlo_outputs(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", n=100)
        prefix = str(tmp_path / "mc")
        assert main(["montecarlo", "--config", cfg, "--runs", "2", "--seed", "1",
                     "--out-prefix", prefix]) == 0
        summary = fileio.read_json(prefix + "_summary.json")
        assert summary["runs"] == 2
        assert (tmp_path / "mc_runs.csv").exists()

    def test_montecarlo_deterministic_outputs(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", n=100)
        p1, p2 = str(tmp_path / "x"), str(tmp_path / "y")
        main(["montecarlo", "--config", cfg, "--runs", "2", "--seed", "9",
              "--out-prefix", p1])
        main(["montecarlo", "--config", cfg, "--runs", "2", "--seed", "9",
              "--out-prefix", p2])
        assert (tmp_path / "x_runs.csv").read_bytes() == (tmp_path / "y_runs.csv").read_bytes()
        assert (tmp_path / "x_summary.json").read_bytes() == (tmp_path / "y_summary.json").read_bytes()

    def test_sensitivity_zero_alpha(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", n=100)
        prefix = str(tmp_path / "sens")
        assert main(["sensitivity", "--config", cfg, "--alphas", "0", "--runs", "1",
                     "--seed", "2", "--out-prefix", prefix]) == 0
        summary = fileio.read_json(prefix + "_summary.json")
        assert summary["nm_divergences"] == [0]
        assert summary["ml_divergences"] == [0]

    def test_timing_outputs(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", n=100)
        prefix = str(tmp_path / "tim")
        assert main(["timing", "--config", cfg, "--n-values", "60,120",
                     "--repeats", "1", "--out-prefix", prefix]) == 0
        rows = fileio.read_json(prefix + "_timing.json")["rows"]
        assert {r["method"] for r in rows} == {"nm", "ml"}
