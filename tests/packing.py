"""Flat vectors over the parameters each Newton solver iterates on.

The solvers step their estimates field by field; finite-difference checks
and dense-oracle comparisons need one flat vector instead:

    nm: [six free shape entries (11, 12, 13, 22, 23, 33), offset]        9
    ml: [six free T entries, offset, field_dirs row by row, lagrange]  4N+9

``stacked`` gives one ML state the leading batch axis of magcal.ml's kernels,
and ``initial_ml_state`` is the start that solve_ml builds, as one ML state.
"""

import numpy as np

from magcal import ml
from magcal.linalg import pack_upper, unpack_upper
from magcal.ml import MLState
from magcal.types import CalibrationParams


def params_to_vector(params: CalibrationParams) -> np.ndarray:
    return np.concatenate([pack_upper(params.shape), params.offset])


def params_from_vector(x: np.ndarray) -> CalibrationParams:
    return CalibrationParams(shape=unpack_upper(x[:6]), offset=x[6:9].copy())


def state_to_vector(state: MLState) -> np.ndarray:
    return np.concatenate([pack_upper(state.t_matrix), state.offset, state.field_dirs.ravel(),
                           state.lagrange])


def state_from_vector(x: np.ndarray, n_samples: int) -> MLState:
    return MLState(
        t_matrix=unpack_upper(x[:6]),
        offset=x[6:9].copy(),
        field_dirs=x[9 : 9 + 3 * n_samples].reshape(n_samples, 3).copy(),
        lagrange=x[9 + 3 * n_samples :].copy(),
    )


def stacked(state: MLState, samples) -> tuple:
    """``state`` and its (N, 3) ``samples`` as the B = 1 iterate of magcal.ml._iterate."""
    return tuple(np.asarray(a, float)[None] for a in (state.t_matrix, state.offset,
                                                      state.field_dirs, state.lagrange, samples))


def initial_ml_state(params: CalibrationParams, samples: np.ndarray) -> MLState:
    """solve_ml's start from the estimate ``params`` on validated (N, 3) ``samples``.

    T = R^-1, the calibrated samples as field directions and zero multipliers;
    T is NaN when R has no finite inverse.
    """
    return MLState(*(a[0] for a in ml._initial_states([params], samples[None])[:4]))
