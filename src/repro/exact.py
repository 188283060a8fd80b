"""Value-exact conversion of activations to int64.

Every activation the library multiplies enters through
:func:`as_exact_int64`, which refuses a conversion to int64 that would change
a value instead of flooring or wrapping it.  This module imports nothing else
from the library, so both :mod:`repro.core` and :mod:`repro.bitslice` (which
``repro.core`` imports) can use it.
"""

from __future__ import annotations

import numpy as np

from .errors import SimulationError

#: float64 represents every integer of magnitude below this exactly.
FLOAT64_EXACT = 2 ** 53


def as_exact_int64(activation: np.ndarray) -> np.ndarray:
    """``activation`` as an int64 array, only when that is value-exact.

    ``np.asarray(x, dtype=np.int64)`` silently floors non-integral floats
    (and wraps NaN/inf, and uint64 values from ``2**63`` up), which would
    compute a wrong-but-plausible product; anything that is not exactly an
    int64 matrix is refused with :class:`SimulationError` instead.  int64
    input is returned as is, so the serving hot path pays one dtype check.
    """
    activation = np.asarray(activation)
    if activation.dtype == np.int64:
        return activation
    if activation.dtype == bool or np.issubdtype(activation.dtype, np.integer):
        if (
            not np.can_cast(activation.dtype, np.int64)
            and activation.size
            and int(activation.max()) > np.iinfo(np.int64).max
        ):
            raise SimulationError(
                f"activation has {activation.dtype} values past the int64 "
                f"range; the executor computes in int64"
            )
        return activation.astype(np.int64)
    if np.issubdtype(activation.dtype, np.floating):
        if not np.all(np.isfinite(activation)):
            raise SimulationError("activation contains non-finite values")
        if np.any(activation != np.trunc(activation)) or np.any(
            np.abs(activation) > FLOAT64_EXACT
        ):
            raise SimulationError(
                f"activation has dtype {activation.dtype} with values that are "
                f"not exactly representable as int64; quantize it explicitly "
                f"instead of relying on silent truncation"
            )
        return activation.astype(np.int64)
    raise SimulationError(
        f"activation has unsupported dtype {activation.dtype}; expected an "
        f"integer (or exactly integral float) matrix"
    )
