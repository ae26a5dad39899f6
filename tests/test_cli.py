import json

import numpy as np
import pytest

from magcal import cli, experiments, fileio
from magcal.cli import main
from magcal.errors import DivergenceError
from magcal.initfit import fit_initial
from magcal.ml import solve_ml
from magcal.simulate import default_config, default_truth, simulate, sweep_trajectory
from magcal.types import CalibrationParams


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

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n": 0},
            {"soft_iron": [1.0] * 8},
            {"hard_iron": [0.0, 0.0]},
            {"sigma": -1},
            {"field": [0, 0, 0]},
        ],
        ids=["n_zero", "soft_iron_8", "hard_iron_2", "sigma_negative", "field_zero"],
    )
    def test_zero_samples_is_input_error(self, tmp_path, overrides):
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("command", ["simulate", "montecarlo", "sensitivity"])
    @pytest.mark.parametrize("soft_iron", [[0.0] * 9, [1.0, 0, 0, 0, 1.0, 0, 0, 0, 1e-300]],
                             ids=["zero", "near_singular"])
    def test_singular_soft_iron_exits_2_naming_it(self, tmp_path, capsys, command, soft_iron):
        cfg = write_config(tmp_path / "cfg.json", soft_iron=soft_iron, n=100)
        if command == "simulate":
            out = ["--out", str(tmp_path / "x.csv")]
        else:
            out = ["--runs", "1", "--out-prefix", str(tmp_path / "x")]
        assert main([command, "--config", cfg, *out]) == 2
        assert "soft_iron" in capsys.readouterr().err
        assert list(tmp_path.glob("x*")) == []

    @pytest.mark.parametrize("tilt", ["nan", "inf"])
    def test_non_finite_tilt_exits_2_naming_tilt(self, tmp_path, capsys, tilt):
        out = tmp_path / "x.csv"
        assert main(["simulate", "--tilt", tilt, "--seed", "1", "--out", str(out)]) == 2
        assert "tilt must be finite" in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize(
        "flags",
        [["--gradient-tolerance", "inf", "--objective-tolerance", "inf"],
         ["--gradient-tolerance", "nan"]],
        ids=["inf", "nan"],
    )
    def test_non_finite_tolerance_exits_2(self, tmp_path, capsys, flags):
        # An infinite tolerance would report the unsolved fit as a converged ml estimate.
        data, report = tmp_path / "data.csv", tmp_path / "r.json"
        main(["simulate", "--out", str(data), "--seed", "124"])
        assert main(["calibrate", "--input", str(data), "--out", str(report), *flags]) == 2
        assert "tolerance must be positive and finite" in capsys.readouterr().err
        assert not report.exists()

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

    def test_overflowing_data_exits_3_saying_to_rescale(self, tmp_path, capsys):
        data, report = tmp_path / "huge.csv", tmp_path / "r.json"
        fileio.write_samples_csv(
            data, simulate(default_truth(), sweep_trajectory(300), 7).samples * 1e77)
        assert main(["calibrate", "--input", str(data), "--out", str(report)]) == 3
        assert "rescale the data" in capsys.readouterr().err
        assert not report.exists()

    def test_failed_ml_solve_exits_4_reporting_it(self, tmp_path, capsys, monkeypatch):
        # A start with a zero shape diagonal is one that a real solve_ml fails on.
        data, report = tmp_path / "data.csv", tmp_path / "r.json"
        main(["simulate", "--out", str(data), "--seed", "124"])
        samples = fileio.read_samples_csv(data)
        init = fit_initial(samples)[0]
        with pytest.raises(DivergenceError) as failure:
            solve_ml(samples, CalibrationParams(init.shape * [[1], [0], [1]], init.offset))

        def failing_solve_ml(*args):
            raise failure.value

        monkeypatch.setattr(experiments, "solve_ml", failing_solve_ml)
        assert main(["calibrate", "--input", str(data), "--method", "both",
                     "--out", str(report)]) == 4
        assert "ml solver failed: initial objective is non-finite" in capsys.readouterr().err
        doc = fileio.read_json(report)
        assert doc["nm"]["converged"] is True
        assert doc["ml"]["converged"] is False
        assert "comparison" not in doc

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

    def test_unconverged_report_exits_4_without_output(self, tmp_path):
        # At tilt 5, seed 1005's ml solve runs off to a negative T diagonal.
        data = tmp_path / "data.csv"
        report = tmp_path / "report.json"
        main(["simulate", "--out", str(data), "--seed", "1005", "--tilt", "5"])
        assert main(["calibrate", "--input", str(data), "--out", str(report)]) == 4
        assert fileio.read_json(report)["ml"]["converged"] is False
        ml_out, nm_out = tmp_path / "ml.csv", tmp_path / "nm.csv"
        assert main(["apply", "--report", str(report), "--method", "ml",
                     "--input", str(data), "--out", str(ml_out)]) == 4
        assert not ml_out.exists()
        assert main(["apply", "--report", str(report), "--method", "nm",
                     "--input", str(data), "--out", str(nm_out)]) == 0
        mags = np.loadtxt(nm_out, delimiter=",", skiprows=1)[:, 3]
        np.testing.assert_allclose(mags, 1.0, atol=0.05)

    @pytest.mark.parametrize("command", ["apply", "metrics"])
    @pytest.mark.parametrize("document, message", [
        ({"method": "nm", "shape_upper": [1, 0, 0, 1, 0, 1], "offset": [0, 0, 0]},
         "report holds method 'nm', not 'ml'"),
        ({"nm": {"shape_upper": [1, 0, 0, 1, 0, 1], "offset": [0, 0, 0]}},
         "document has no 'ml' report"),
    ], ids=["flat_nm", "combined_without_ml"])
    def test_missing_method_exits_2_naming_it(self, tmp_path, capsys, command, document,
                                              message):
        data, report, out = tmp_path / "data.csv", tmp_path / "r.json", tmp_path / "out"
        fileio.write_samples_csv(data, np.ones((3, 3)))
        fileio.write_json(report, document)
        argv = {"apply": ["--report", str(report), "--input", str(data), "--out", str(out)],
                "metrics": ["--estimate", str(report), "--truth", str(report),
                            "--out", str(out)]}[command]
        assert main([command, *argv, "--method", "ml"]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("converged", ["false", "no", 0, None],
                             ids=["string_false", "string_no", "zero", "null"])
    def test_non_boolean_converged_exits_2_naming_it(self, tmp_path, capsys, converged):
        data, report, out = tmp_path / "data.csv", tmp_path / "r.json", tmp_path / "cal.csv"
        fileio.write_samples_csv(data, np.ones((3, 3)))
        fileio.write_json(report, {"method": "nm", "shape_upper": [1, 0, 0, 1, 0, 1],
                                   "offset": [0, 0, 0], "converged": converged})
        assert main(["apply", "--report", str(report), "--input", str(data),
                     "--out", str(out)]) == 2
        assert "report field 'converged' must be true or false" in capsys.readouterr().err
        assert not out.exists()

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


_SCENARIO = default_config().to_dict()
_REPORT = {"method": "ml", "converged": True, "shape_upper": [1.1, 0.2, -0.1, 0.9, 0.3, 1.2],
           "offset": [0.5, 1.7, 2.6]}


def _without(document, name):
    return {key: value for key, value in document.items() if key != name}


_MALFORMED = {
    "scenario_3": ("simulate", 3, "scenario must be a JSON object, got 3"),
    "scenario_list": ("simulate", [1, 2], "scenario must be a JSON object, got [1, 2]"),
    "n_null": ("simulate", {**_SCENARIO, "n": None}, "scenario field 'n' must be an integer"),
    "sigma_null": ("simulate", {**_SCENARIO, "sigma": None},
                   "scenario field 'sigma' must be a number"),
    "seed_list": ("simulate", {**_SCENARIO, "seed": [1]},
                  "scenario field 'seed' must be an integer"),
    "n_fraction": ("simulate", {**_SCENARIO, "n": 2.7}, "scenario field 'n' must be an integer"),
    **{f"scenario_without_{name}": ("simulate", _without(_SCENARIO, name),
                                    f"scenario field {name!r} is missing")
       for name in ("n", "sigma", "soft_iron")},
    **{f"{command}_{name}": (command, document, message)
       for command in ("apply", "metrics")
       for name, document, message in (
           ("report_3", 3, "report document must be a JSON object, got 3"),
           ("report_list", [1, 2], "report document must be a JSON object, got [1, 2]"),
           ("nm_5", {"nm": 5}, "the document's 'nm' report must be a JSON object, got 5"),
           ("without_offset", _without(_REPORT, "offset"), "report field 'offset' is missing"),
           # A flat report is told by its shape_upper, so this one is picked out of a combined one.
           ("without_shape_upper", {"ml": _without(_REPORT, "shape_upper")},
            "report field 'shape_upper' is missing"),
           ("shape_nan", {**_REPORT, "shape_upper": [float("nan")] + [1.0] * 5},
            "report field 'shape_upper' must be finite, got [nan, 1.0, 1.0, 1.0, 1.0, 1.0]"),
           ("offset_infinity", {**_REPORT, "offset": [0.0, float("inf"), 0.0]},
            "report field 'offset' must be finite, got [0.0, inf, 0.0]"))},
}


@pytest.mark.parametrize("command, document, message", _MALFORMED.values(), ids=_MALFORMED)
def test_malformed_json_exits_2_naming_it(tmp_path, capsys, command, document, message):
    doc, out = str(tmp_path / "doc.json"), str(tmp_path / "out.csv")
    fileio.write_json(doc, document)
    argv = {"simulate": ["--config", doc, "--out", out],
            "apply": ["--report", doc, "--input", out, "--out", out],
            "metrics": ["--estimate", doc, "--truth", doc]}[command]
    assert main([command, *argv]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert list(tmp_path.glob("out*")) == []


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

    def test_zero_workers_exits_2(self, tmp_path):
        assert main(["montecarlo", "--runs", "2", "--workers", "0",
                     "--out-prefix", str(tmp_path / "mc")]) == 2
        assert not (tmp_path / "mc_runs.csv").exists()

    def test_sensitivity_zero_alpha(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", n=100)
        prefix = str(tmp_path / "sens")
        assert main(["sensitivity", "--config", cfg, "--alphas", "0", "--runs", "1",
                     "--seed", "2", "--out-prefix", prefix]) == 0
        summary = fileio.read_json(prefix + "_summary.json")
        assert summary["nm_divergences"] == [0]
        assert summary["ml_divergences"] == [0]

    def test_zero_diagonal_starts_count_as_ml_divergences(self, tmp_path):
        # alpha = 1 with a negative sign zeroes a shape diagonal entry, which has no T = R^-1.
        prefix = str(tmp_path / "sens")
        assert main(["sensitivity", "--alphas", "1.0", "--runs", "3",
                     "--out-prefix", prefix]) == 0
        assert fileio.read_json(prefix + "_summary.json")["ml_divergences"] == [3]

    def test_non_finite_alpha_exits_2_naming_alpha(self, tmp_path, capsys):
        prefix = tmp_path / "sens"
        assert main(["sensitivity", "--alphas", "0.01,nan", "--runs", "1",
                     "--out-prefix", str(prefix)]) == 2
        assert "alpha" in capsys.readouterr().err
        assert list(tmp_path.glob("sens*")) == []

    @pytest.mark.parametrize("study", ["montecarlo", "sensitivity"])
    def test_non_finite_sigma_exits_2_naming_it(self, tmp_path, capsys, study):
        cfg = write_config(tmp_path / "cfg.json", sigma=float("nan"), n=100)
        assert main([study, "--config", cfg, "--runs", "1",
                     "--out-prefix", str(tmp_path / "study")]) == 2
        assert "noise_sigma must be finite" in capsys.readouterr().err
        assert list(tmp_path.glob("study*")) == []

    @pytest.mark.parametrize("args", [["sensitivity", "--alphas", ""],
                                      ["timing", "--methods", ""],
                                      ["sensitivity", "--config", "noise-free"]],
                             ids=["no_alphas", "no_methods", "noise_free"])
    def test_empty_or_noise_free_study_exits_2(self, tmp_path, args):
        cfg = write_config(tmp_path / "cfg.json", sigma=0.0, n=100)
        args = [cfg if a == "noise-free" else a for a in args]
        assert main([*args, "--out-prefix", str(tmp_path / "study")]) == 2
        assert list(tmp_path.glob("study*")) == []

    def test_timing_outputs(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", n=100)
        prefix = str(tmp_path / "tim")
        assert main(["timing", "--config", cfg, "--n-values", "60,120",
                     "--repeats", "1", "--out-prefix", prefix]) == 0
        rows = fileio.read_json(prefix + "_timing.json")["rows"]
        assert {r["method"] for r in rows} == {"nm", "ml"}


_NEGATIVE_SEED = {
    f"{command}_{source}": [command, *({"config": ["--config", "CONFIG"],
                                        "flag": ["--seed", "-5"]}[source]), *rest]
    for command, rest in (("simulate", ["--out", "OUT.csv"]),
                          ("montecarlo", ["--runs", "1", "--out-prefix", "OUT"]),
                          ("sensitivity", ["--runs", "1", "--out-prefix", "OUT"]),
                          ("timing", ["--n-values", "60", "--repeats", "1", "--out-prefix", "OUT"]))
    for source in ("config", "flag")
}


@pytest.mark.parametrize("argv", _NEGATIVE_SEED.values(), ids=_NEGATIVE_SEED)
def test_negative_seed_exits_2_naming_it(tmp_path, capsys, argv):
    # A config seed enters through SimConfig, a --seed flag through the command's own path.
    config = write_config(tmp_path / "cfg.json", seed=-1, n=100)
    out = str(tmp_path / "out")
    argv = [config if a == "CONFIG" else a.replace("OUT", out) for a in argv]
    assert main(argv) == 2
    assert "error: seed must be a non-negative integer, got -" in capsys.readouterr().err
    assert list(tmp_path.glob("out*")) == []


_TOO_LARGE = {
    "simulate": ["simulate", "--config", "CONFIG", "--out", "OUT.csv"],
    "montecarlo": ["montecarlo", "--config", "CONFIG", "--runs", "1", "--out-prefix", "OUT"],
    "timing": ["timing", "--n-values", "1000000000000", "--repeats", "1", "--out-prefix", "OUT"],
}


@pytest.mark.parametrize("argv", _TOO_LARGE.values(), ids=_TOO_LARGE)
def test_input_too_large_to_allocate_exits_2(tmp_path, capsys, monkeypatch, argv):
    # n = 1e12 asks numpy for 7.28 TiB; sweep_trajectory fails here as numpy would, at once.
    def too_large(n, *args):
        raise MemoryError(f"Unable to allocate 7.28 TiB for an array with shape ({n}, 3)")

    monkeypatch.setattr(cli, "sweep_trajectory", too_large)
    monkeypatch.setattr(experiments, "sweep_trajectory", too_large)
    config = write_config(tmp_path / "cfg.json", n=10**12)
    out = str(tmp_path / "out")
    argv = [config if a == "CONFIG" else a.replace("OUT", out) for a in argv]
    assert main(argv) == 2
    assert "error: Unable to allocate 7.28 TiB" in capsys.readouterr().err
    assert list(tmp_path.glob("out*")) == []


@pytest.mark.parametrize("command", ["simulate", "montecarlo"])
@pytest.mark.parametrize("n", [2**63, 1e300], ids=["two_to_the_63", "1e300"])
def test_scenario_n_longer_than_any_array_exits_2_naming_it(tmp_path, capsys, command, n):
    # No array holds more than intp's maximum of rows, so such an n is refused before numpy sees it.
    config, out = write_config(tmp_path / "cfg.json", n=n), str(tmp_path / "out")
    argv = {"simulate": ["--out", out + ".csv"], "montecarlo": ["--runs", "1", "--out-prefix", out]}
    assert main([command, "--config", config, *argv[command]]) == 2
    assert (f"error: n must be an integer >= 1 and <= {np.iinfo(np.intp).max}, got "
            f"{str(int(n))[:12]}" in capsys.readouterr().err)
    assert list(tmp_path.glob("out*")) == []
