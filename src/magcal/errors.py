"""Exception hierarchy for calibration failures."""


class CalibrationError(Exception):
    """Base class for all calibration-specific failures."""


class InsufficientDataError(CalibrationError):
    """Too few samples for the requested operation."""


class DegenerateDataError(CalibrationError):
    """The data does not excite enough attitudes to determine an ellipsoid, or overflows its fit."""


class SolverFailure(CalibrationError):
    """Newton iteration could not proceed (e.g. singular system).

    Carries the partial solve report accumulated before the failure, so
    callers can still inspect the objective history.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class DivergenceError(SolverFailure):
    """The objective or the iterate became non-finite."""
