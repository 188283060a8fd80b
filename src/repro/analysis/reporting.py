"""Plain-text table formatting for benchmark and example output."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Sequence, Tuple

from ..errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..serving.report import ServingReport


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 float_format: str = "{:.2f}") -> str:
    """Render rows as an aligned plain-text table (the benches print these).

    Floats are formatted with ``float_format``; everything else uses ``str``.
    """
    headers = [str(h) for h in headers]
    rendered: List[List[str]] = []
    for row in rows:
        cells = []
        for value in row:
            if isinstance(value, float):
                cells.append(float_format.format(value))
            else:
                cells.append(str(value))
        if len(cells) != len(headers):
            raise ReproError(
                f"row has {len(cells)} cells but the table has {len(headers)} columns"
            )
        rendered.append(cells)

    widths = [len(h) for h in headers]
    for row in rendered:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def _line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[index]) for index, cell in enumerate(cells))

    separator = "  ".join("-" * width for width in widths)
    lines = [_line(headers), separator]
    lines.extend(_line(row) for row in rendered)
    return "\n".join(lines)


def format_serving_report(report: "ServingReport") -> str:
    """Render a :class:`~repro.serving.report.ServingReport` as a table.

    The serving examples and benchmarks print this; latencies are shown in
    milliseconds, throughput in requests (and activation columns) per second.
    """
    rows: List[Tuple[str, object]] = [
        ("workload", report.workload),
        ("requests served", report.num_requests),
        ("requests failed", report.num_failed),
        ("requests rejected (backpressure)", report.num_rejected),
        ("requests expired (deadline)", report.num_expired),
        ("requests cancelled", report.num_cancelled),
        ("request retries", report.num_retried),
        ("worker restarts", report.num_worker_restarts),
        ("activation columns", report.total_columns),
        ("wall time", f"{report.wall_s:.3f} s"),
        ("throughput", f"{report.throughput_rps:.1f} req/s"),
        ("goodput (deadline-met)", f"{report.goodput_rps:.1f} req/s"),
        ("column throughput", f"{report.throughput_cols_per_s:.1f} cols/s"),
        ("latency mean", f"{report.latency_mean_s * 1e3:.1f} ms"),
        ("latency p50", f"{report.latency_p50_s * 1e3:.1f} ms"),
        ("latency p95", f"{report.latency_p95_s * 1e3:.1f} ms"),
        ("latency p99", f"{report.latency_p99_s * 1e3:.1f} ms"),
        ("queue delay mean", f"{report.queue_delay_mean_s * 1e3:.1f} ms"),
        ("micro-batches", report.num_batches),
        ("mean batch size", f"{report.mean_batch_size:.2f}"),
        ("max batch size", report.max_batch_size),
    ]
    for layer, count in sorted(report.requests_per_layer.items()):
        rows.append((f"requests[{layer}]", count))
    if report.op_counts is not None:
        rows.append(("transitive adds", report.op_counts.transitive_ops))
        rows.append(("density", f"{report.op_counts.density:.1%}"))
    if report.attributed_cycles is not None:
        rows.append(("attributed cycles", report.attributed_cycles))
    if report.attributed_energy is not None:
        rows.append(
            ("attributed energy", f"{report.attributed_energy.total_nj / 1e3:.1f} uJ")
        )
    if report.compile_stats is not None:
        stats = report.compile_stats
        backends = ", ".join(stats.kernel_backends) if stats.kernel_backends else "none"
        rows.append(("kernel backends", backends))
        rows.append(
            ("offline compile", f"{stats.compile_s * 1e3:.1f} ms "
                                f"({stats.lowering_s * 1e3:.1f} ms building executors)")
        )
        rows.append(("executor size", f"{stats.kernel_bytes / 1024:.1f} KiB"))
    if report.num_shed or report.num_admission_shed:
        rows.append(
            ("requests shed (overload)",
             f"{report.num_shed} post-admission / "
             f"{report.num_admission_shed} at admission")
        )
    if report.goodput_by_priority:
        for priority, goodput in sorted(report.goodput_by_priority.items()):
            rows.append((f"goodput[p{priority}]", f"{goodput:.1f} req/s"))
    if report.num_plan_swaps:
        rows.append(("plan swaps (zero-downtime)", report.num_plan_swaps))
    if report.num_force_aborted:
        rows.append(("force-aborted at close", report.num_force_aborted))
    rows.append(
        ("BLAS threads",
         "not set (no OpenBLAS)" if report.blas_threads is None
         else report.blas_threads)
    )
    if report.shards:
        rows.append(
            ("queue wait vs compute",
             f"{report.queue_wait_s_total:.3f} s queued / "
             f"{report.compute_s_total:.3f} s compute / "
             f"{report.dispatch_s_total:.3f} s dispatch "
             f"({report.compute_fraction:.1%} compute)")
        )
        for shard in report.shards:
            rows.append((
                f"shard[{shard.shard}]",
                f"{shard.batches} batches / {shard.requests} reqs / "
                f"{shard.utilization:.1%} util",
            ))
    if report.pipeline_depth or report.num_model_requests:
        rows.append(("pipeline depth", report.pipeline_depth))
        rows.append(
            ("model requests",
             f"{report.num_model_requests} done / "
             f"{report.num_model_failed} failed")
        )
        rows.append(
            ("model latency",
             f"{report.model_latency_mean_s * 1e3:.1f} ms mean / "
             f"{report.model_latency_p95_s * 1e3:.1f} ms p95 / "
             f"{report.model_latency_p99_s * 1e3:.1f} ms p99")
        )
        for stage in report.stages:
            rows.append(
                (f"stage[{stage.stage}] {stage.layer}",
                 f"{stage.requests} reqs / {stage.batches} batches / "
                 f"{stage.compute_s * 1e3:.1f} ms compute / "
                 f"{stage.occupancy:.1%} occupancy")
            )
    return format_table(["metric", "value"], rows)
