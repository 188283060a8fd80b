#!/usr/bin/env python
"""The paper's figures and tables (Figs. 9-14, Tables 2-3), regenerated and gated.

Each entry of ``ROWS`` regenerates one artefact at the paper's scale.  Its run
function returns the printed tables and the headline values; its check holds
the paper's bands and orderings; its drift keys name the headline values that
must stay within ``DRIFT_FACTOR`` (±5 %) of the committed
``BENCH_<stem>.json``.  The simulators are deterministic, so a headline value
that moves means a model change, to be re-baselined deliberately.

There is one scale, the paper's: the whole table runs in a few seconds, and a
smaller scale would only gate wider bands.

    python benchmarks/bench_paper.py          # re-record every baseline
    python benchmarks/bench_paper.py --check  # gate; exit 1 on any failure

A ``--check`` run writes the git-ignored ``BENCH_<stem>.check.json`` and
leaves the baselines as they are.
"""

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Callable, List, NamedTuple, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from provenance import provenance, write_results  # noqa: E402
from repro.analysis import (  # noqa: E402
    attention_comparison, density_vs_row_size, distance_histogram, fc_layer_comparison,
    format_table, geomean, node_type_vs_bitwidth, node_type_vs_row_size, resnet_comparison,
    scoreboard_density_study,
)
from repro.analysis.comparison import geomean_speedup  # noqa: E402
from repro.energy import baseline_area_report, transarray_area_report  # noqa: E402
from repro.quant import perplexity_table  # noqa: E402
from repro.quant.accuracy import FP16_PERPLEXITY, perplexity_grid  # noqa: E402
from repro.transarray import TransitiveArrayAccelerator  # noqa: E402
from repro.workloads import llama_fc_gemms  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Drift bound vs the committed baseline: a headline value moving more than
#: this fraction in either direction signals a model change.
DRIFT_FACTOR = 0.05

#: A three-model subset keeps Figs. 10 and 12 fast; the complete list of
#: seven models is available through examples/llama_fc_layer.py.
LLAMA = ("llama1-7b", "llama2-7b", "llama3-8b")
FIG09_ROW_SIZES = (16, 32, 64, 128, 256, 512)
FIG09_BIT_WIDTHS = (2, 4, 6, 8, 10, 12)
FIG10 = {"models": LLAMA, "sequence_length": 2048, "samples_per_gemm": 6}
FIG10_ACCELERATORS = (
    "bitfusion", "ant", "tender", "bitvert", "transarray-8bit", "transarray-4bit",
)
FIG11_BUFFERS = ("weight_buffer", "input_buffer", "prefix_buffer", "output_buffer")
FIG12 = {"models": LLAMA, "sequence_length": 1024, "samples_per_gemm": 4}
FIG13_ROW_SIZES = (64, 128, 256, 512)
TABLE3_MODELS = ("llama1-7b", "llama1-13b", "llama2-7b", "llama3-8b")


def _within(name, value, low, high):
    """The claim that ``value`` lies in the paper band ``[low, high]``."""
    return low <= value <= high, f"{name} {value:.4g} is outside the paper band [{low}, {high}]"


def _failed(*claims):
    """The message of every ``(holds, message)`` claim that does not hold."""
    return [message for holds, message in claims if not holds]


def _comparison(rows):
    return [asdict(row) for row in sorted(rows, key=lambda r: (r.workload, r.accelerator))]


# --------------------------------------------------------------- Fig. 9
def run_fig09():
    points = density_vs_row_size(
        bit_widths=FIG09_BIT_WIDTHS, row_sizes=FIG09_ROW_SIZES, matrix_size=512, max_tiles=4
    )
    by_width = node_type_vs_bitwidth(bit_widths=FIG09_BIT_WIDTHS, row_size=256, matrix_size=512)
    by_size = node_type_vs_row_size(row_sizes=FIG09_ROW_SIZES, matrix_size=512)
    histograms = distance_histogram(row_sizes=FIG09_ROW_SIZES, matrix_size=512, max_tiles=4)
    distances = sorted({d for hist in histograms.values() for d in hist})
    narrow, wide = FIG09_BIT_WIDTHS[0], FIG09_BIT_WIDTHS[-1]
    small, large = FIG09_ROW_SIZES[0], FIG09_ROW_SIZES[-1]
    kinds = ("ZR", "TR", "FR", "PR")
    return {
        "tables": {
            "Fig 9(a): overall density (%) vs tiling row size": [
                {"T (bits)": p.bit_width, "row size": p.row_size,
                 "density %": 100.0 * p.density, "bit density %": 100.0 * p.bit_density}
                for p in points
            ],
            "Fig 9(b): node-type share (%) vs TranSparsity bit width (row size 256)": [
                {"T (bits)": width, **{f"{kind} %": s[kind] for kind in kinds}}
                for width, s in sorted(by_width.items())
            ],
            "Fig 9(c): node-type share (%) vs tiling row size (8-bit TranSparsity)": [
                {"row size": size, **{f"{kind} %": s[kind] for kind in kinds}}
                for size, s in sorted(by_size.items())
            ],
            "Fig 9(d): present-node count per prefix distance vs tiling row size": [
                {"row size": size, **{f"dis-{d}": hist.get(d, 0) for d in distances}}
                for size, hist in sorted(histograms.items())
            ],
        },
        "best_density": {
            f"{bits}bit": min(p.density for p in points if p.bit_width == bits)
            for bits in (8, 4)
        },
        "fr_pr_share_by_width": {
            str(width): {kind: by_width[width][kind] for kind in ("FR", "PR")}
            for width in (narrow, wide)
        },
        "fr_share_by_row_size": {str(size): by_size[size]["FR"] for size in (small, large)},
        "distance1_share": {
            str(size): histograms[size].get(1, 0) / max(1, sum(histograms[size].values()))
            for size in (small, large)
        },
    }


def check_fig09(results):
    best = results["best_density"]
    narrow, wide = results["fr_pr_share_by_width"].values()
    fr_small, fr_large = results["fr_share_by_row_size"].values()
    dis1_small, dis1_large = results["distance1_share"].values()
    return _failed(
        # The paper's qualitative result: 8-bit reaches the ~12.5 % floor at 256 rows.
        _within("best 8-bit density", best["8bit"], 0.12, 0.16),
        _within("best 4-bit density", best["4bit"], 0.22, 0.26),
        # FR dominates at small widths, PR takes over beyond 8 bits.
        (narrow["FR"] > narrow["PR"], f"narrowest width: FR {narrow} does not dominate PR"),
        (wide["PR"] > wide["FR"], f"widest width: PR {wide} does not dominate FR"),
        # Larger tiles capture more of the Hasse graph: FR (duplicates) grows.
        (fr_large > fr_small, f"FR share does not grow with row size: {fr_small} -> {fr_large}"),
        # Larger tiles have denser node populations, hence shorter distances.
        (dis1_large >= dis1_small,
         f"distance-1 share falls with row size: {dis1_small} -> {dis1_large}"),
    )


# -------------------------------------------------------------- Fig. 10
def run_fig10():
    rows = fc_layer_comparison(**FIG10)
    return {
        **FIG10,
        "reference": "olive",
        "tables": {
            "Fig 10: FC-layer cycles, speedup and energy efficiency (vs Olive)":
                _comparison(rows),
        },
        "geomean_speedup": {name: geomean_speedup(rows, name) for name in FIG10_ACCELERATORS},
        "geomean_energy_efficiency": {
            name: geomean(r.energy_efficiency for r in rows if r.accelerator == name)
            for name in FIG10_ACCELERATORS
        },
    }


def check_fig10(results):
    ta4, ta8, bitvert, ant = (results["geomean_speedup"][name]
                              for name in ("transarray-4bit", "transarray-8bit", "bitvert", "ant"))
    ta4_energy = results["geomean_energy_efficiency"]["transarray-4bit"]
    # Paper: ~7.46x (speedup) and ~2.31x (energy) for TA-4bit vs Olive;
    # ~3.75x for TA-8bit vs Olive; BitVert ~1.9x over Olive.
    return _failed(
        _within("TA-4bit geomean speedup", ta4, 6.0, 9.0),
        _within("TA-8bit geomean speedup", ta8, 3.0, 4.5),
        _within("BitVert geomean speedup", bitvert, 1.5, 2.4),
        _within("TA-4bit geomean energy efficiency", ta4_energy, 1.7, 3.0),
        (ta4 > ta8 > bitvert > ant > 1.0,
         "speedup ordering broken: expected TA-4bit > TA-8bit > BitVert > ANT > Olive, "
         f"got {ta4:.2f} {ta8:.2f} {bitvert:.2f} {ant:.2f} 1.0"),
    )


# -------------------------------------------------------------- Fig. 11
def run_fig11():
    first_fc = llama_fc_gemms("llama1-7b", sequence_length=2048, weight_bits=4).gemms[0]
    profile = TransitiveArrayAccelerator(samples_per_gemm=6).simulate_gemm(first_fc)
    shares = profile.energy.percentages()
    return {
        "tables": {
            "Fig 11: TransArray energy breakdown on LLaMA-1-7B first FC layer (%)": [
                {"component": name, "share %": share}
                for name, share in sorted(shares.items(), key=lambda item: -item[1])
            ],
        },
        "buffer_share": sum(shares[name] for name in FIG11_BUFFERS + ("other_buffer",)),
        "prefix_buffer_share": shares["prefix_buffer"],
        "largest_buffer_share": max(shares[name] for name in FIG11_BUFFERS),
        "core_share": shares["core"],
    }


def check_fig11(results):
    buffers, prefix, largest, core = (results[key] for key in (
        "buffer_share", "prefix_buffer_share", "largest_buffer_share", "core_share"))
    # Paper: buffers dominate (~56 %), the prefix buffer is the largest buffer
    # consumer (~29 %), the core is a small slice (~13 %).
    return _failed(
        (buffers > 40.0, f"buffer share {buffers:.2f}% is not above 40%"),
        (prefix == largest, f"prefix buffer {prefix:.2f}% is not the largest ({largest:.2f}%)"),
        (core < buffers, f"core share {core:.2f}% is not below the buffers' {buffers:.2f}%"),
    )


# -------------------------------------------------------------- Fig. 12
def run_fig12():
    rows = attention_comparison(**FIG12)
    speedups = {name: geomean_speedup(rows, name) for name in ("ant-8bit", "transarray-8bit")}
    return {
        **FIG12,
        "reference": "bitfusion-16bit",
        "tables": {
            "Fig 12: attention-layer speedup over BitFusion-16bit "
            "(paper geomeans: TA 3.97x, ANT 2.58x, TA/ANT 1.54x)": _comparison(rows),
        },
        "geomean_speedup": speedups,
        "ta_over_ant": speedups["transarray-8bit"] / speedups["ant-8bit"],
    }


def check_fig12(results):
    ta = results["geomean_speedup"]["transarray-8bit"]
    ant = results["geomean_speedup"]["ant-8bit"]
    # Paper: TA ~3.97x over BitFusion-16bit and ~1.54x over ANT-8bit.  The
    # analytic model lands in the same band but slightly favours TA because it
    # omits softmax/requantization overlap overheads.
    return _failed(
        _within("TA-8bit geomean speedup", ta, 2.5, 7.0),
        _within("ANT-8bit geomean speedup", ant, 1.0, 3.5),
        _within("TA-8bit over ANT-8bit", results["ta_over_ant"], 1.2, 2.6),
        (ta > ant > 1.0,
         "speedup ordering broken: expected TA-8bit > ANT-8bit > BitFusion-16bit, "
         f"got TA={ta:.2f} ANT={ant:.2f}"),
    )


# -------------------------------------------------------------- Fig. 13
def run_fig13():
    points = scoreboard_density_study(
        row_sizes=FIG13_ROW_SIZES, matrix_rows=512, matrix_cols=64, max_tiles=4
    )
    points.sort(key=lambda p: (p.data, p.mode, p.row_size))
    density = {}
    for p in points:
        if p.row_size in (FIG13_ROW_SIZES[0], FIG13_ROW_SIZES[-1]):
            density.setdefault(p.data, {}).setdefault(p.mode, {})[str(p.row_size)] = p.density
    return {
        "tables": {
            "Fig 13: overall density (%) of static vs dynamic scoreboards": [
                {"data": p.data, "scoreboard": p.mode, "row size": p.row_size,
                 "density %": 100.0 * p.density, "bit density %": 100.0 * p.bit_density,
                 "SI misses/tile": p.si_miss_rate}
                for p in points
            ],
        },
        "density": density,
    }


def check_fig13(results):
    small, large = str(FIG13_ROW_SIZES[0]), str(FIG13_ROW_SIZES[-1])
    claims = []
    # Dynamic beats static at small row sizes; the gap closes at large sizes;
    # both are far below the ~50 % bit-sparsity density.
    for data in ("real", "random"):
        static = results["density"][data]["static"]
        dynamic = results["density"][data]["dynamic"]
        small_gap = static[small] - dynamic[small]
        large_gap = static[large] - dynamic[large]
        claims += [
            (dynamic[small] < static[small], f"{data}: dynamic is not below static at {small}"),
            (large_gap <= small_gap, f"{data}: the static-dynamic gap grows with row size"),
            (static[small] < 0.40, f"{data}: static density at {small} is not below 0.40"),
        ]
    return _failed(*claims)


# -------------------------------------------------------------- Fig. 14
def run_fig14():
    rows = resnet_comparison(samples_per_gemm=4)
    return {
        "tables": {
            "Fig 14: ResNet-18 per-layer speedup over BitFusion "
            "(paper totals: TA 4.26x, ANT 1.93x)": _comparison(rows),
        },
        "geomean_speedup": {name: geomean_speedup(rows, name) for name in ("transarray", "ant")},
    }


def check_fig14(results):
    ta = results["geomean_speedup"]["transarray"]
    ant = results["geomean_speedup"]["ant"]
    # Paper: TransArray ~4.26x over BitFusion and ~2.21x over ANT on ResNet-18.
    # The per-layer geomean here is pulled down by the tiny final classifier
    # (m = 1), which the paper's total-runtime aggregation weights far less.
    return _failed(
        (ta > ant > 1.0,
         "speedup ordering broken: expected TransArray > ANT > BitFusion, "
         f"got TA={ta:.2f} ANT={ant:.2f}"),
        _within("TransArray geomean speedup", ta, 1.8, 6.5),
        _within("TransArray over ANT", ta / ant, 1.2, 3.5),
    )


# -------------------------------------------------------------- Table 2
def run_table2():
    transarray = transarray_area_report()
    baselines = list(baseline_area_report().values())
    return {
        "tables": {
            "Table 2: core area (mm^2) and buffer capacity (KB) at 28 nm": [
                {"architecture": a.name, "core mm^2": a.core_mm2,
                 "buffer KB": a.buffer_kb, "total mm^2": a.total_mm2}
                for a in [transarray] + baselines
            ],
        },
        "transarray": {"core_mm2": transarray.core_mm2, "buffer_kb": transarray.buffer_kb},
        "baselines": {
            a.name: {"core_mm2": a.core_mm2, "buffer_kb": a.buffer_kb} for a in baselines
        },
    }


def check_table2(results):
    core, buffer_kb = results["transarray"]["core_mm2"], results["transarray"]["buffer_kb"]
    baselines = results["baselines"].values()
    smallest_core = min(b["core_mm2"] for b in baselines)
    # Paper Table 2: the TransArray compute core (0.443 mm^2) is smaller than
    # every baseline core (0.473-0.491 mm^2) despite including NoC + scoreboard,
    # and it is provisioned with a smaller buffer (480 KB vs 512/608 KB).
    return _failed(
        (core < smallest_core,
         f"TransArray core {core:.3f} mm^2 is not below every baseline ({smallest_core:.3f})"),
        (abs(core - 0.443) / 0.443 < 0.15,
         f"TransArray core {core:.3f} mm^2 is not within 15% of the paper's 0.443"),
        (buffer_kb == 480.0, f"TransArray buffer {buffer_kb} KB is not 480 KB"),
        (all(b["buffer_kb"] >= 512.0 for b in baselines), "a baseline buffer is below 512 KB"),
    )


# -------------------------------------------------------------- Table 3
def run_table3():
    # Proxy WikiText perplexity: quantization-induced layer output error mapped
    # onto the published FP16 anchors, so the check gates the table's structure.
    grid = perplexity_grid(
        perplexity_table(models=list(TABLE3_MODELS), rows=192, cols=768, tokens=48)
    )
    schemes = sorted({scheme for row in grid.values() for scheme in row})
    return {
        "tables": {
            "Table 3: proxy perplexity (lower is better)": [
                {"model": model, **{s: grid[model][s] for s in schemes},
                 "fp16": FP16_PERPLEXITY[model]}
                for model in TABLE3_MODELS
            ],
        },
        "perplexity": grid,
    }


def check_table3(results):
    claims = []
    for model in TABLE3_MODELS:
        row = results["perplexity"][model]
        fp16 = FP16_PERPLEXITY[model]
        # Tender-4 collapses; every 8-bit outlier-aware / group-wise scheme is
        # near-lossless; the TransArray INT8 column matches ANT.
        claims += [
            (row["tender-4"] > 2.0 * fp16, f"{model}: tender-4 does not collapse"),
            (row["transarray-int8"] < 1.1 * fp16, f"{model}: transarray-int8 is lossy"),
            (row["ant-8"] < 1.1 * fp16, f"{model}: ant-8 is lossy"),
            (row["bitvert-8"] < 1.15 * fp16, f"{model}: bitvert-8 is lossy"),
            (row["transarray-int8"] <= row["bitfusion-8"],
             f"{model}: transarray-int8 is worse than bitfusion-8"),
            (row["transarray-int4"] < row["tender-4"],
             f"{model}: transarray-int4 is not better than tender-4"),
            # Perplexity can never beat the FP16 anchor under the proxy.
            (all(value >= fp16 for value in row.values()), f"{model}: a scheme beats FP16"),
        ]
    return _failed(*claims)


# -------------------------------------------------------------- harness
class Row(NamedTuple):
    """One artefact: its baseline is ``BENCH_<stem>.json``, ``run`` returns its
    results, ``check`` their failures, and ``drift`` names the headline keys
    held within ``DRIFT_FACTOR`` of the baseline."""

    stem: str
    run: Callable[[], dict]
    check: Callable[[dict], List[str]]
    drift: Tuple[str, ...]


ROWS = {
    "fig09": Row("fig09_design_space", run_fig09, check_fig09, (
        "best_density", "fr_pr_share_by_width", "fr_share_by_row_size", "distance1_share",
    )),
    "fig10": Row("fig10_fc_layers", run_fig10, check_fig10,
                 ("geomean_speedup", "geomean_energy_efficiency")),
    "fig11": Row("fig11_energy_breakdown", run_fig11, check_fig11,
                 ("buffer_share", "prefix_buffer_share", "core_share")),
    "fig12": Row("fig12_attention", run_fig12, check_fig12, ("geomean_speedup", "ta_over_ant")),
    "fig13": Row("fig13_scoreboard", run_fig13, check_fig13, ("density",)),
    "fig14": Row("fig14_resnet", run_fig14, check_fig14, ("geomean_speedup",)),
    "table2": Row("table2_area", run_table2, check_table2, ("transarray",)),
    "table3": Row("table3_accuracy", run_table3, check_table3, ("perplexity",)),
}


def _flat(value, name):
    """``(name[key]..., number)`` for every number nested in ``value``."""
    if isinstance(value, dict):
        for key, inner in value.items():
            yield from _flat(inner, f"{name}[{key}]")
    else:
        yield name, value


def headline(results, keys):
    """``{flat name: number}`` of the ``keys`` of a run's results."""
    return dict(pair for key in keys for pair in _flat(results.get(key), key))


def drift(results, baseline_path, keys):
    """A failure for each headline value more than DRIFT_FACTOR off its baseline."""
    if not baseline_path.exists():
        return [f"no committed {baseline_path.name}: run without --check to record it"]
    recorded = headline(json.loads(baseline_path.read_text()), keys)
    return [
        f"{name} moved from its baseline {recorded.get(name)} to {value}; the "
        "simulators are deterministic, so re-baseline deliberately"
        for name, value in headline(results, keys).items()
        if recorded.get(name) is None
        or abs(value - recorded[name]) > DRIFT_FACTOR * abs(recorded[name])
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="gate every row against the paper's bands and its committed baseline; "
             "write BENCH_<stem>.check.json and exit non-zero on failure",
    )
    check = parser.parse_args().check
    stamp = provenance()
    failures = []
    for name, row in ROWS.items():
        start = time.perf_counter()
        results = {"benchmark": "bench_paper", "row": name, **row.run(),
                   "wall_s": time.perf_counter() - start, "provenance": stamp}
        for title, records in results["tables"].items():
            print(f"\n{title}")
            rows = [list(record.values()) for record in records]
            print(format_table(list(records[0]), rows, float_format="{:.3f}"))
        values = headline(results, row.drift).items()
        print(format_table([f"{name} headline", "value"], values, float_format="{:.4f}"))
        baseline_path = REPO_ROOT / f"BENCH_{row.stem}.json"
        print(f"wrote {write_results(baseline_path, results, check)} ({results['wall_s']:.2f} s)")
        if check:
            failed = row.check(results) + drift(results, baseline_path, row.drift)
            failures += [f"{name}: {failure}" for failure in failed]
    for failure in failures:
        print(f"GATE FAILED: {failure}")
    if failures:
        raise SystemExit(1)
    if check:
        print(f"all {len(ROWS)} paper gates passed")


if __name__ == "__main__":
    main()
