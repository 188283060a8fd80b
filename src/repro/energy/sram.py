"""Analytic SRAM energy model (Cacti substitute).

The paper uses Cacti 7.0 at 28 nm for buffer area and power.  Cacti itself is
not available offline, so this module provides an analytic substitute whose
per-access energy grows with the square root of capacity (bit-line/word-line
length scaling).  The anchor point is a public 28 nm Cacti number for small
scratchpads: a 8 KB SRAM costs roughly 5 pJ per 32-byte access.
"""

from __future__ import annotations

import math

from ..errors import ConfigurationError

#: Per-access energy (pJ) of the 8 KB anchor macro for a 32-byte access.
_ANCHOR_CAPACITY_BYTES = 8 * 1024
_ANCHOR_ACCESS_BYTES = 32
_ANCHOR_ENERGY_PJ = 5.0


def sram_access_energy_pj(capacity_bytes: int, access_bytes: int) -> float:
    """Energy in pJ for one access of ``access_bytes`` to a macro of ``capacity_bytes``.

    Energy scales linearly with the access width and with the square root of
    the macro capacity, which is the first-order behaviour Cacti reports for
    SRAM scratchpads in this capacity range.
    """
    if capacity_bytes <= 0:
        raise ConfigurationError("SRAM capacity must be positive")
    if access_bytes < 0:
        raise ConfigurationError("SRAM access size must be non-negative")
    capacity_scale = math.sqrt(capacity_bytes / _ANCHOR_CAPACITY_BYTES)
    width_scale = access_bytes / _ANCHOR_ACCESS_BYTES
    return _ANCHOR_ENERGY_PJ * capacity_scale * width_scale


def sram_energy_per_byte_pj(capacity_bytes: int) -> float:
    """Per-byte access energy of a macro (convenience for traffic-based costing)."""
    return sram_access_energy_pj(capacity_bytes, access_bytes=1)
