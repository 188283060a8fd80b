"""Tests for the design-space, comparison and scoreboard-study harnesses."""

import numpy as np
import pytest

from repro.analysis import (
    attention_comparison,
    density_vs_row_size,
    fc_layer_comparison,
    format_table,
    geomean,
    node_type_vs_bitwidth,
    node_type_vs_row_size,
    resnet_comparison,
    scoreboard_density_study,
    true_distance_histogram,
)
from repro.analysis.comparison import geomean_speedup
from repro.analysis.design_space import density_point
from repro.bitslice import binary_weight_matrix, pack_bits_to_uint
from repro.core import op_counts_from_result
from repro.errors import ReproError, SimulationError, WorkloadError
from repro.quant.quantizer import quantize
from repro.scoreboard import run_scoreboard
from repro.workloads.synthetic import outlier_weight_matrix, random_binary_matrix


def _tile(binary, row_start, rows, col_start, width):
    """Packed TransRow values of one ``rows x width`` tile, zero-padded."""
    tile = np.zeros((min(rows, binary.shape[0] - row_start), width), dtype=np.uint8)
    block = binary[row_start:row_start + rows, col_start:col_start + width]
    tile[:, :block.shape[1]] = block
    return [int(v) for v in pack_bits_to_uint(tile)]


def _scalar_merge(tiles, width):
    """Per-tile scalar scoreboard runs, merged: the reference the batched
    analysis sweeps are held to."""
    merged = None
    for values in tiles:
        counts = op_counts_from_result(run_scoreboard(values, width=width))
        merged = counts if merged is None else merged.merge(counts)
    return merged


class TestDesignSpace:
    def test_density_floor_follows_one_over_t(self):
        points = density_vs_row_size(bit_widths=(2, 4, 8), row_sizes=(256,),
                                     matrix_size=256, max_tiles=2)
        by_width = {p.bit_width: p.density for p in points}
        assert by_width[2] == pytest.approx(0.375, abs=0.02)
        assert by_width[4] == pytest.approx(0.235, abs=0.02)
        assert by_width[8] == pytest.approx(0.127, abs=0.02)

    def test_density_improves_with_row_size_for_8bit(self):
        points = density_vs_row_size(bit_widths=(8,), row_sizes=(16, 256),
                                     matrix_size=256, max_tiles=2)
        small = next(p.density for p in points if p.row_size == 16)
        large = next(p.density for p in points if p.row_size == 256)
        assert large < small

    def test_node_type_shares_sum_to_about_100(self):
        shares = node_type_vs_bitwidth(bit_widths=(4, 8), row_size=128, matrix_size=128)
        for share in shares.values():
            total = share["ZR"] + share["FR"] + share["PR"] + share["OUTLIER"]
            assert total == pytest.approx(100.0, abs=0.1)

    def test_node_type_vs_row_size_keys(self):
        shares = node_type_vs_row_size(row_sizes=(32, 64), matrix_size=128)
        assert set(shares) == {32, 64}

    def test_true_distance_histogram_counts_present_nodes(self):
        histogram = true_distance_histogram([1, 3, 7, 15, 8], width=4)
        assert sum(histogram.values()) == 5
        assert histogram[1] >= 4  # the 1-3-7-15 chain is all distance 1

    @pytest.mark.parametrize("width", [2, 4, 8, 12])
    def test_density_point_equals_per_tile_scalar_merge(self, width):
        binary = random_binary_matrix(256, 256, seed=3)
        row_size, max_tiles = 64, 8
        tiles = [
            _tile(binary, row_start, row_size, chunk * width, width)
            for row_start in range(0, 256, row_size)
            for chunk in range(256 // width)
        ][:max_tiles]
        merged = _scalar_merge(tiles, width)
        point = density_point(binary, width, row_size, max_tiles=max_tiles)
        assert (point.density, point.bit_density, point.zr_sparsity,
                point.tr_density, point.fr_density, point.pr_density) == (
            merged.density, merged.bit_density, merged.zr_fraction,
            merged.tr_density, merged.fr_density, merged.pr_density,
        )

    def test_invalid_parameters_rejected(self):
        with pytest.raises(WorkloadError):
            density_vs_row_size(bit_widths=(0,), row_sizes=(16,), matrix_size=64)


class TestComparisons:
    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        with pytest.raises(SimulationError):
            geomean([])
        with pytest.raises(SimulationError):
            geomean([1.0, -1.0])

    def test_fc_comparison_headline_ordering(self):
        rows = fc_layer_comparison(models=["llama1-7b"], sequence_length=256,
                                   samples_per_gemm=2)
        ta4 = geomean_speedup(rows, "transarray-4bit")
        ta8 = geomean_speedup(rows, "transarray-8bit")
        bitvert = geomean_speedup(rows, "bitvert")
        assert ta4 > ta8 > bitvert > 1.0
        olive_rows = [r for r in rows if r.accelerator == "olive"]
        assert all(r.speedup == pytest.approx(1.0) for r in olive_rows)

    def test_attention_comparison_supports_only_online_designs(self):
        rows = attention_comparison(models=["llama1-7b"], sequence_length=256,
                                    samples_per_gemm=2)
        accelerators = {r.accelerator for r in rows}
        assert accelerators == {"bitfusion-16bit", "ant-8bit", "transarray-8bit"}
        assert geomean_speedup(rows, "transarray-8bit") > 1.0

    def test_resnet_comparison_covers_all_layers(self):
        rows = resnet_comparison(samples_per_gemm=2)
        layers = {r.workload for r in rows}
        assert "conv1" in layers and "fc" in layers
        assert geomean_speedup(rows, "transarray") > 1.0


class TestScoreboardStudyAndReporting:
    def test_dynamic_beats_static_at_small_tiles(self):
        points = scoreboard_density_study(row_sizes=(64, 256), matrix_rows=256,
                                          matrix_cols=32, max_tiles=2)
        def density(data, mode, row):
            return next(p.density for p in points
                        if p.data == data and p.mode == mode and p.row_size == row)
        for data in ("real", "random"):
            assert density(data, "dynamic", 64) <= density(data, "static", 64)

    def test_dynamic_points_equal_per_tile_scalar_merge(self):
        rows, cols, bits, width, max_tiles = 128, 64, 8, 8, 8
        datasets = {
            "real": binary_weight_matrix(
                quantize(outlier_weight_matrix(rows, cols, seed=0), bits=bits,
                         axis=1).values,
                bits,
            ),
            "random": random_binary_matrix(rows * bits, cols, seed=1),
        }
        points = scoreboard_density_study(row_sizes=(64, 128), matrix_rows=rows)
        dynamic = [p for p in points if p.mode == "dynamic"]
        assert len(dynamic) == 4
        for point in dynamic:
            binary = datasets[point.data]
            tiles = [
                _tile(binary, row_start, point.row_size, 0, width)
                for row_start in range(0, binary.shape[0], point.row_size)
            ][:max_tiles]
            merged = _scalar_merge(tiles, width)
            assert (point.density, point.bit_density) == (
                merged.density, merged.bit_density
            ), (point.data, point.row_size)

    def test_format_table_alignment_and_validation(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["x", 3.0]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        with pytest.raises(ReproError):
            format_table(["a"], [[1, 2]])
