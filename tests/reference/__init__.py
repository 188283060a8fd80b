"""Test-side references: slow, readable versions of what the library does fast.

Nothing under ``src/repro`` calls these; each exists so a test can hold a
library fast path to an independent answer.

- :func:`~tests.reference.bitslice.extract_transrows` (with its
  :class:`~tests.reference.bitslice.TransRow` records) packs one column
  chunk at a time, row by row.  It checks the batched packer
  :func:`repro.bitslice.pack_transrow_chunks` in
  ``tests/bitslice/test_packing.py::TestPackTransrowChunks``.
- :func:`~tests.reference.bitslice.unpack_uint_to_bits` inverts
  :func:`repro.bitslice.pack_bits_to_uint`; ``tests/bitslice/test_packing.py::
  TestPacking`` round-trips the two.
- :func:`~tests.reference.bitslice.reconstruct_from_planes` sums the weighted
  planes back into the matrix.  It checks :func:`repro.bitslice.bit_slice` in
  ``tests/bitslice/test_slicer.py::TestBitSlice``.
- :func:`~tests.reference.bitslice.sliced_gemm` is the Sec. 2.1 losslessness
  argument as code: the plane-by-plane GEMM equals ``weight @ activation``.
  ``tests/bitslice/test_slicer.py::TestSlicedGemm`` compares it with the
  integer product, over the same exact-input refusals as
  :func:`repro.exact.as_exact_int64`.
- :func:`~tests.reference.scoreboard.profile_subtile` profiles one TransRow
  bag through the scalar dynamic scoreboard, with
  :func:`~tests.reference.scoreboard.lane_ppe_loads` counting each lane's
  executed nodes.  They check :meth:`repro.transarray.TransArrayUnit.
  profile_subtiles` in ``tests/transarray/test_unit_accelerator.py::
  TestArrayProfile`` and the batched lane loads in
  ``tests/scoreboard/test_batched.py``.
- :func:`~tests.reference.workloads.resnet_stack_gemms` is a second chainable
  model next to :func:`repro.workloads.llama_block_gemms`.  It is served end
  to end in ``tests/serving/test_pipeline.py`` and compiled through every
  executor in ``tests/core/test_executor.py``.

Each reference keeps the input refusals it had in the library
(:class:`repro.errors.BitSliceError` on a non-2-D tile, an out-of-range chunk
or width, or an inexact activation).
"""

from .bitslice import (
    TransRow,
    extract_transrows,
    reconstruct_from_planes,
    sliced_gemm,
    unpack_uint_to_bits,
)
from .scoreboard import lane_ppe_loads, profile_subtile
from .workloads import resnet_stack_gemms

__all__ = [
    "TransRow",
    "extract_transrows",
    "reconstruct_from_planes",
    "sliced_gemm",
    "unpack_uint_to_bits",
    "lane_ppe_loads",
    "profile_subtile",
    "resnet_stack_gemms",
]
