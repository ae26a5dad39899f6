"""On-disk formats: dataset CSV, scenario JSON, calibration report JSON.

Floats are written with shortest round-trip formatting (repr), so a
write/read cycle reproduces every value bit-exactly and identical inputs
produce byte-identical files.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import itertools
import json
import reprlib
import warnings

import numpy as np

from . import __version__
from .experiments import METRIC_NAMES, TimingRow
from .linalg import pack_upper, unpack_upper
from .types import CalibrationParams, SolveReport, json_numbers

FORMAT_VERSION = 1

SAMPLE_COLUMNS = ("yx", "yy", "yz")


# _write_csv formats and writes this many rows at a time, so that the Python
# objects it makes do not grow with the number of rows.
_CSV_ROWS = 1024


def _write_csv(path, header, rows) -> None:
    # Every field as str() (repr for floats) and CRLF line ends: the bytes
    # csv.writer writes for fields that need no quoting, as numbers and
    # method names do not. rows is a sequence of rows or a 2-D array, which
    # becomes Python floats one block of rows at a time.
    line = ",".join(["%s"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(line % tuple(header))
        for lo in range(0, len(rows), _CSV_ROWS):
            block = rows[lo : lo + _CSV_ROWS]
            if isinstance(block, np.ndarray):
                block = block.tolist()
            fh.write(line * len(block) % tuple(itertools.chain.from_iterable(block)))


def write_samples_csv(path, samples) -> None:
    _write_csv(path, SAMPLE_COLUMNS, np.asarray(samples, dtype=float))


def _parse_body(lines, header) -> np.ndarray:
    # The one cell parser for dataset bodies, used both for the whole file and,
    # after a failure, for the ranges that locate the offending line. A row has a
    # cell per header column; extra columns' cells are not read. loadtxt warns
    # on input with no rows; read_samples_csv reports that.
    extras = {i: lambda cell: 0.0 for i, h in enumerate(header) if h not in SAMPLE_COLUMNS}
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        cells = np.loadtxt(lines, delimiter=",", converters=extras, ndmin=2,
                           comments=None, quotechar='"')
    if len(cells) and cells.shape[1] != len(header):
        raise ValueError("a row's cells do not match the header's columns")
    return cells.take([header.index(c) for c in SAMPLE_COLUMNS], axis=1)  # take keeps C order


def _body_fault(lines, header):
    """None if the lines parse to finite values, else what is wrong with them."""
    try:
        samples = _parse_body(lines, header)
    except ValueError:
        return "bad row"
    return None if np.isfinite(samples).all() else "non-finite value"


def _raise_first_bad_line(path, header):
    """Raise the error for the first body line that _parse_body rejects or
    reads as non-finite; the whole body is known to contain one."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        lines = fh.readlines()[1:]
    # lines[:lo] are clean and the first bad line is in lines[lo:hi]. Each
    # probe parses only lines[lo:mid], so the search parses about 2N lines.
    lo, hi = 0, len(lines)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _body_fault(lines[lo:mid], header) is None:
            lo = mid
        else:
            hi = mid
    row = next(csv.reader(lines[lo:hi]), [])
    raise ValueError(f"{path}: {_body_fault(lines[lo:hi], header)} at line {lo + 2}: {row}")


def read_samples_csv(path) -> np.ndarray:
    """Read a dataset CSV; extra columns are ignored with a warning.

    Blank lines are skipped; every other line has a cell per header column. A
    cell is a float64 literal as np.loadtxt reads it, optionally in double
    quotes or with surrounding whitespace; ``#`` starts no comment. Raises
    ValueError naming the line of an unparseable or non-finite value.
    """
    # utf-8-sig drops the byte-order mark spreadsheet "CSV UTF-8" exports
    # put before the header.
    with open(path, newline="", encoding="utf-8-sig") as fh:
        first = fh.readline()
        if not first:
            raise ValueError(f"{path}: empty dataset file")
        header = [h.strip() for h in next(csv.reader([first]), [])]
        if not set(SAMPLE_COLUMNS) <= set(header):
            raise ValueError(f"{path}: header must contain columns {SAMPLE_COLUMNS}, got {header}")
        for c in SAMPLE_COLUMNS:  # the body's parser would read the first of two
            if header.count(c) > 1:
                raise ValueError(f"{path}: header names column {c!r} more than once")
        extras = [h for h in header if h not in SAMPLE_COLUMNS]
        if extras:
            warnings.warn(f"{path}: ignoring extra columns {extras}")
        try:
            samples = _parse_body(fh, header)
            clean = np.isfinite(samples).all()
        except ValueError:
            clean = False
    if not clean:
        _raise_first_bad_line(path, header)
    if not len(samples):
        raise ValueError(f"{path}: no samples")
    return samples


def write_calibrated_csv(path, calibrated) -> None:
    """Calibrated samples plus a magnitude column."""
    calibrated = np.asarray(calibrated, dtype=float)
    magnitudes = np.linalg.norm(calibrated, axis=1)
    _write_csv(path, ("mx", "my", "mz", "magnitude"), np.column_stack([calibrated, magnitudes]))


def file_digest(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return "sha256:" + digest.hexdigest()


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None


def report_dict(report: SolveReport, min_eigenvalue=None, input_digest=None) -> dict:
    """Report of one solve; ml reports (with a ``final_state``) add their own fields."""
    params, state = report.final_params, report.final_state
    out = {
        "format_version": FORMAT_VERSION,
        "tool_version": __version__,
        "method": "nm" if state is None else "ml",
        "shape_upper": [float(v) for v in pack_upper(params.shape)],
        "offset": [float(v) for v in params.offset],
        "objective_history": list(report.objective_history),
        "iterations": report.iterations,
        "converged": report.converged,
        "min_eigenvalue": None if min_eigenvalue is None else float(min_eigenvalue),
        "input_digest": input_digest,
    }
    if state is not None:
        out["t_upper"] = [float(v) for v in pack_upper(state.t_matrix)]
        out["constraint_violation_history"] = list(report.constraint_violation_history)
        out["warnings"] = list(report.warnings)
    return out


def truth_report_dict(params: CalibrationParams, input_digest=None) -> dict:
    """Ground-truth sidecar: a report with no solve history."""
    truth = SolveReport(objective_history=(), iterations=0, converged=True, final_params=params)
    return {**report_dict(truth, None, input_digest), "method": "truth"}


def params_from_report(report: dict) -> CalibrationParams:
    """A report's calibration; a ValueError names a missing, malformed or non-finite field."""
    fields = {name: json_numbers(report, name, size, "report")
              for name, size in (("shape_upper", 6), ("offset", 3))}
    for name, value in fields.items():
        if not np.isfinite(value).all():  # a failed solve's report holds NaN
            raise ValueError(f"report field {name!r} must be finite, got {value.tolist()}")
    return CalibrationParams(unpack_upper(fields["shape_upper"]), fields["offset"])


def select_report(document: dict, method: str | None = None) -> dict:
    """Pick a single-method report out of a flat or combined document.

    Raises ValueError when the document, or the report picked from it, is not a JSON object.
    """
    if not isinstance(document, dict):
        raise ValueError(f"report document must be a JSON object, got {reprlib.repr(document)}")
    if "shape_upper" in document:
        if method is not None and document.get("method") != method:
            raise ValueError(
                f"report holds method {document.get('method')!r}, not {method!r}"
            )
        return document
    available = [m for m in ("nm", "ml") if m in document]
    if not available:
        raise ValueError("document contains no calibration report")
    if method is None:
        if len(available) > 1:
            raise ValueError(
                f"document holds methods {available}; pass a method to choose"
            )
        method = available[0]
    if method not in document:
        raise ValueError(f"document has no {method!r} report")
    report = document[method]
    if not isinstance(report, dict):
        raise ValueError(f"the document's {method!r} report must be a JSON object, "
                         f"got {reprlib.repr(report)}")
    return report


def write_monte_carlo_csv(path, result) -> None:
    """One row per run per method."""
    rows = []
    for run in result.runs:
        for method in ("nm", "ml"):
            o = getattr(run, method)
            m = o.metrics.as_tuple() if o.metrics is not None else ("",) * len(METRIC_NAMES)
            rows.append([run.index, method, int(o.failed), int(o.converged), o.iterations,
                         float(o.final_objective), *m])
    header = ("run", "method", "failed", "converged", "iterations", "final_objective")
    _write_csv(path, header + METRIC_NAMES, rows)


def monte_carlo_summary(result) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "tool_version": __version__,
        "seed": result.seed,
        "runs": len(result.runs),
        "config": result.config.to_dict(),
        "aggregates": {m: result.aggregate(m) for m in ("nm", "ml")},
        "failures": {m: result.failure_count(m) for m in ("nm", "ml")},
    }


def write_sensitivity_csv(path, result) -> None:
    rows = [
        [float(alpha), method, count, result.runs]
        for alpha, nm_c, ml_c in zip(result.alphas, result.nm_divergences, result.ml_divergences)
        for method, count in (("nm", nm_c), ("ml", ml_c))
    ]
    _write_csv(path, ("alpha", "method", "divergences", "runs"), rows)


def sensitivity_summary(result) -> dict:
    return {"format_version": FORMAT_VERSION, "tool_version": __version__,
            **dataclasses.asdict(result)}


def write_timing_csv(path, rows) -> None:
    header = tuple(f.name for f in dataclasses.fields(TimingRow))
    _write_csv(path, header, [dataclasses.astuple(row) for row in rows])


def timing_summary(rows) -> dict:
    return {"format_version": FORMAT_VERSION, "tool_version": __version__,
            "rows": [dataclasses.asdict(row) for row in rows]}
