"""Workloads, load generators and metrics of the chained LLaMA-block benchmark.

Each workload isolates one software layer of ``repro.serving``:

* ``prefill-closed`` -- the kernels: distinct 64-column prompts on a hidden
  1024 / intermediate 2816 block, 2 requests kept in flight;
* ``decode-open`` -- the per-request path (admission, queue, batcher, five
  continuation hops, accounting, attribution): single columns arriving at a
  Poisson 100 rps on a hidden 256 / intermediate 704 block compiled with the
  accelerator model, so batches stay near one request.

A traced run adds a saturation window on the workload's block: a fixed
number of single columns with 32 in flight, ``report()`` and ``health()``
scraped after every 500 completed requests, so the queue, batcher and
accounting run at saturation and every run scrapes at the same history sizes.

Both serve INT4 weights and INT8 activations through model-level
``Server.submit`` with ``stream=1``, threads execution, 2 workers and
``max_batch=16``, driven by one generator thread.  The seed feeds the
weights, the activations and the arrivals.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import time
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import BackpressureError, DeadlineExceededError, ServingError, ShedError
from repro.serving import ModelPlan, Server, ServingReport, compile_workload
from repro.transarray import TransitiveArrayAccelerator
from repro.workloads import GemmWorkload, LlamaConfig, llama_block_gemms

from exact import ExactChain, check_outputs, digest
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
STAGES = ("qkv_proj", "attn_score", "o_proj", "gate_proj", "down_proj")
NUM_WORKERS = 2
MAX_BATCH = 16
#: Far above any workload's requests in flight: admission is not under test.
MAX_PENDING = 4096
WEIGHT_BITS = 4
ACTIVATION_BITS = 8
#: Set-up runs this many times per untraced run and reports its median.
SETUP_REPEATS = 3
#: Columns pushed through a fresh server before it counts as warmed.
WARMUP_COLUMNS = 32
#: Workloads that do not scrape inside the window scrape this many times after
#: it, back to back: scrapes spaced by idle pauses each started with caches the
#: host's other tenants had emptied, and took up to four times as long.
POST_WINDOW_SCRAPES = 21
#: The saturation window of a traced run: single columns sent, kept in
#: flight, and completed between two scrapes.
SATURATION_REQUESTS = 3000
SATURATION_OUTSTANDING = 32
SATURATION_SCRAPE_EVERY = 500
#: Served outputs per window also compared with ``ModelPlan.run_model``.
RUN_MODEL_SAMPLE = 4
#: Minimum host seconds spent timing one stage in the kernel probe.
KERNEL_PROBE_S = 0.2
RESULT_TIMEOUT_S = 120.0
#: Random streams drawn from the seed besides the windows' own (1, 2 and 4).
WARMUP_STREAM, PROBE_STREAM, SATURATION_STREAM = 0, 3, 5

END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_tok_s": "tok/s",
    "latency_p50_ms": "ms",
    "cpu_ms_per_tok": "ms/tok",
    "slo_attainment": "ratio",
}


def _per_layer_units() -> Dict[str, str]:
    units = {f"compile.{stage}_s": "s" for stage in STAGES}
    units["compile.lowering_s"] = "s"
    for stage in STAGES:
        units[f"kernel.{stage}.us_per_tok"] = "us/tok"
        units[f"kernel.{stage}.bytes"] = "bytes"
    for stage in STAGES:
        units[f"scoreboard.{stage}.ops"] = "count"
        units[f"scoreboard.{stage}.density"] = "ratio"
    for stage in STAGES:
        units[f"transarray.{stage}.cycles"] = "cycles"
        units[f"transarray.{stage}.simulate_s"] = "s"
    units["transarray.attributed_cycles_per_tok"] = "cycles/tok"
    units.update({
        "server.submit_us_p50": "us",
        "server.submit_us_p99": "us",
        "server.compute_s": "s",
        "server.dispatch_s": "s",
        "server.compute_fraction": "ratio",
    })
    for stage in STAGES:
        units[f"queue.{stage}.wait_ms"] = "ms"
        units[f"batcher.{stage}.batches"] = "count"
        units[f"stage.{stage}.compute_ms_per_batch"] = "ms"
    units.update({
        "batcher.batch_size_mean": "requests",
        "report.report_ms": "ms",
        "report.health_ms": "ms",
        "proc.rss_growth_mb": "MB",
        "loadgen.lag_p50_ms": "ms",
        "loadgen.lag_max_ms": "ms",
        "trace.overhead_pct": "%",
        "saturation.throughput_tok_s": "tok/s",
        "saturation.latency_p50_ms": "ms",
        "saturation.batch_size_mean": "requests",
        "saturation.report_ms": "ms",
        "saturation.health_ms": "ms",
    })
    return units


PER_LAYER_UNITS = _per_layer_units()


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one block size."""

    name: str
    hidden: int
    intermediate: int
    #: Activation columns per request.
    columns: int
    #: "closed": ``outstanding`` requests in flight for the run's seconds;
    #: "soak": the same for exactly ``requests_per_s`` x seconds requests
    #: (the saturation window of a traced run);
    #: "open": Poisson arrivals at ``requests_per_s``.
    loop: str
    #: Arrival rate ("open"), request count per second ("soak"), or the cap
    #: that sizes the prompt pool ("closed").
    requests_per_s: int
    #: A request slower than this misses the SLO.
    latency_limit_s: float
    #: Tail percentile printed beside the median.
    tail_pct: float
    #: Columns per ``ModelPlan.run`` call in the kernel probe: the batch
    #: width this workload's server runs at.
    kernel_width: int
    outstanding: int = 0
    accelerator: bool = False
    #: Scrape ``report()`` + ``health()`` inside the window each time this
    #: many more requests have completed; ``None`` scrapes only after it.
    scrape_every: Optional[int] = None


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("prefill-closed", hidden=1024, intermediate=2816, columns=64,
                 loop="closed", requests_per_s=16, latency_limit_s=3.0,
                 tail_pct=90.0, kernel_width=64, outstanding=2),
        Workload("decode-open", hidden=256, intermediate=704, columns=1,
                 loop="open", requests_per_s=100, latency_limit_s=0.05,
                 tail_pct=99.0, kernel_width=1, accelerator=True),
    )
}


def saturation(workload: Workload) -> Workload:
    """Single columns on ``workload``'s block, ``SATURATION_OUTSTANDING`` in
    flight; a window of one second sends exactly ``SATURATION_REQUESTS``."""
    return replace(workload, columns=1, loop="soak", requests_per_s=SATURATION_REQUESTS,
                   outstanding=SATURATION_OUTSTANDING, scrape_every=SATURATION_SCRAPE_EVERY)


class Sent:
    """Client-side record of one request."""

    __slots__ = ("index", "due", "origin", "submit_start", "submit_end",
                 "finished", "handle", "admitted", "outcome", "digest")

    def __init__(self, index: int, due: float) -> None:
        self.index = index
        #: When the generator meant to send it.
        self.due = due
        #: Where its latency counts from: ``due`` under an open loop, the
        #: submit call under a closed loop.
        self.origin = due
        self.submit_start = self.submit_end = self.finished = due
        self.handle = None
        self.admitted = False
        self.outcome = "pending"
        self.digest: Optional[bytes] = None

    @property
    def latency_s(self) -> float:
        return self.finished - self.origin


# ------------------------------------------------------------------ set-up
def block_workload(workload: Workload) -> GemmWorkload:
    """The five-stage LLaMA block at the workload's size."""
    heads = max(1, workload.hidden // 64)
    config = LlamaConfig(
        f"bench-{workload.hidden}", hidden_size=workload.hidden,
        intermediate_size=workload.intermediate, num_attention_heads=heads,
        num_key_value_heads=heads, num_layers=1,
    )
    return llama_block_gemms(
        config.name, config=config, sequence_length=workload.columns,
        weight_bits=WEIGHT_BITS, activation_bits=ACTIVATION_BITS,
    )


def compile_plan(workload: Workload, seed: int, layer_names=None) -> ModelPlan:
    accelerator = TransitiveArrayAccelerator(seed=seed) if workload.accelerator else None
    return compile_workload(
        block_workload(workload), seed=seed, layer_names=layer_names,
        accelerator=accelerator, graph="chain",
    )


def activations(workload: Workload, seed: int, stream: int, count: int) -> np.ndarray:
    """``count`` INT8 request activations of shape ``(hidden, columns)``."""
    rng = np.random.default_rng([seed, stream])
    return rng.integers(
        -128, 128, size=(count, workload.hidden, workload.columns), dtype=np.int8
    )


def warmup_count(workload: Workload) -> int:
    return max(NUM_WORKERS, WARMUP_COLUMNS // workload.columns)


def start_server(plan: ModelPlan, workload: Workload, seed: int, tracer: Tracer) -> Server:
    """A started server that has already served one warm-up round."""
    with tracer.span("Server.start"):
        server = Server(
            plan, num_workers=NUM_WORKERS, max_batch=MAX_BATCH, max_pending=MAX_PENDING
        ).start()
    with tracer.span("warmup"):
        warm = activations(workload, seed, WARMUP_STREAM, warmup_count(workload))
        handles = [server.submit(activation=a.astype(np.int64)) for a in warm]
        for handle in handles:
            handle.result(timeout=RESULT_TIMEOUT_S)
    return server


def set_up(workload: Workload, seed: int, tracer: Tracer) -> Tuple[ModelPlan, Server, float]:
    """Compile the block and warm a server; also returns the seconds it took."""
    start = time.perf_counter()
    with tracer.span("setup"):
        with tracer.span("compile_workload"):
            plan = compile_plan(workload, seed)
        server = start_server(plan, workload, seed, tracer)
    return plan, server, time.perf_counter() - start


# ------------------------------------------------------------ load generation
def send(server: Server, inputs: np.ndarray, index: int, due: float,
         from_due: bool, tracer: Tracer, parent: Optional[int]) -> Sent:
    record = Sent(index, due)
    activation = inputs[index].astype(np.int64)
    record.submit_start = time.perf_counter()
    try:
        record.handle = server.submit(activation=activation)
        record.admitted = True
    except BackpressureError:
        record.outcome = "rejected"
    except ShedError:
        record.outcome = "shed"
    record.submit_end = time.perf_counter()
    record.origin = due if from_due else record.submit_start
    if not record.admitted:
        record.finished = record.submit_end
        tracer.add("Server.submit", record.submit_start, record.submit_end, parent, index)
    return record


def collect(record: Sent, from_due: bool, tracer: Tracer, parent: Optional[int]) -> None:
    """Wait for one admitted request and keep only the digest of its output."""
    result_start = time.perf_counter()
    try:
        output = record.handle.result(timeout=RESULT_TIMEOUT_S)
    except ShedError:
        record.outcome = "shed"
    except DeadlineExceededError:
        record.outcome = "expired"
    except ServingError:
        record.outcome = "failed"
    else:
        record.outcome = "succeeded"
        record.digest = digest(output)
    result_end = time.perf_counter()
    record.finished = record.handle.finished_at or result_end
    record.handle = None
    if not tracer.enabled:
        return
    index = record.index
    request = tracer.add(
        "request", record.origin, record.finished if from_due else result_end, parent, index
    )
    tracer.add("Server.submit", record.submit_start, record.submit_end, request, index)
    if from_due:
        tracer.add("loadgen.lag", record.due, record.submit_start, request, index)
        # Collected after every request was sent, outside the request's span.
        tracer.add("ModelRequest.result", result_start, result_end, parent, index)
    else:
        tracer.add("ModelRequest.result", result_start, result_end, request, index)


def scrape(server: Server, tracer: Tracer, parent: Optional[int]) -> Tuple[float, float]:
    """Seconds one ``report()`` and one ``health()`` call take."""
    start = time.perf_counter()
    server.report()
    middle = time.perf_counter()
    server.health()
    end = time.perf_counter()
    tracer.add("Server.report", start, middle, parent)
    tracer.add("Server.health", middle, end, parent)
    return middle - start, end - middle


def closed_loop(server: Server, inputs: np.ndarray, outstanding: int,
                stop_at: Optional[float], scrape_every: Optional[int],
                scrapes: List[Tuple[float, float]], tracer: Tracer,
                parent: Optional[int]) -> List[Sent]:
    """Keep ``outstanding`` requests in flight until ``stop_at`` or the inputs run out.

    The generator waits on the oldest request and sends the next one when it
    completes; that completion is the next request's due time.  With
    ``scrape_every`` it also scrapes the server after every that many
    requests, sending nothing meanwhile, so every run scrapes at the same
    history sizes; the requests in flight finish while the scrape runs.
    """
    sent: List[Sent] = []
    inflight: deque = deque()
    due = time.perf_counter()
    while True:
        while (len(inflight) < outstanding and len(sent) < len(inputs)
               and (stop_at is None or time.perf_counter() < stop_at)):
            record = send(server, inputs, len(sent), due, False, tracer, parent)
            sent.append(record)
            if record.admitted:
                inflight.append(record)
        if not inflight:
            return sent
        record = inflight.popleft()
        collect(record, False, tracer, parent)
        due = record.finished
        if scrape_every and (record.index + 1) % scrape_every == 0:
            scrapes.append(scrape(server, tracer, parent))


def open_loop(server: Server, inputs: np.ndarray, offsets, tracer: Tracer,
              parent: Optional[int]) -> List[Sent]:
    """Send request ``i`` at ``offsets[i]`` seconds, whatever the server's state."""
    start = time.perf_counter()
    sent: List[Sent] = []
    for index, offset in enumerate(offsets):
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent.append(send(server, inputs, index, due, True, tracer, parent))
    for record in sent:
        if record.admitted:
            collect(record, True, tracer, parent)
    return sent


# ------------------------------------------------------------------ windows
@dataclass
class Window:
    """Client records and server accounting of one measured window."""

    inputs: np.ndarray
    sent: List[Sent]
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    rss_growth_mb: float
    #: ``(report_s, health_s)`` per scrape.
    scrapes: List[Tuple[float, float]]
    report: ServingReport
    leaks: List[str]


def run_window(server: Server, workload: Workload, seed: int, seconds: float,
               stream: int, tracer: Tracer) -> Window:
    """Drive one window of traffic, then close the server and read its report."""
    count = max(1, round(workload.requests_per_s * seconds))
    inputs = activations(workload, seed, stream, count)
    scrapes: List[Tuple[float, float]] = []
    gc.collect()
    rss_start = current_rss_mb()
    cpu_start = time.process_time()
    start = time.perf_counter()
    with tracer.span("window") as window:
        if workload.loop == "open":
            # A Poisson process conditioned on ``count`` arrivals in the
            # window: sorted uniform offsets, so every run offers the same
            # load over the same span.
            rng = np.random.default_rng([seed, stream, 1])
            offsets = np.sort(rng.uniform(0.0, seconds, count))
            sent = open_loop(server, inputs, offsets, tracer, window)
        else:
            stop_at = start + seconds if workload.loop == "closed" else None
            sent = closed_loop(server, inputs, workload.outstanding, stop_at,
                               workload.scrape_every, scrapes, tracer, window)
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start
    peak = peak_rss_mb()
    growth = current_rss_mb() - rss_start
    if not scrapes:
        for _ in range(POST_WINDOW_SCRAPES):
            scrapes.append(scrape(server, tracer, None))
    server.close()
    report = server.report()
    admitted = warmup_count(workload) + sum(record.admitted for record in sent)
    return Window(inputs, sent, wall_s, cpu_s, peak, growth, scrapes, report,
                  conservation_leaks(report, admitted))


def conservation_leaks(report: ServingReport, admitted: int) -> List[str]:
    """Broken identities of admitted == done + expired + cancelled + shed + failed."""
    leaks = []
    settled = report.num_model_requests + report.num_model_failed
    if settled != admitted:
        leaks.append(f"{admitted} model requests admitted, {settled} settled")
    stage_settled = (report.num_requests + report.num_expired + report.num_cancelled
                     + report.num_shed + report.num_failed)
    if report.num_model_failed == 0 and stage_settled != len(STAGES) * admitted:
        leaks.append(f"{len(STAGES) * admitted} stage requests admitted, {stage_settled} settled")
    return leaks


def check_window(plan: ModelPlan, chain: ExactChain, window: Window) -> None:
    """Mark every served output that is not exact as ``wrong``."""
    inputs = window.inputs
    done = [record for record in window.sent if record.outcome == "succeeded"]
    wrong = check_outputs(
        chain, lambda index: inputs[index], [(r.index, r.digest) for r in done]
    )
    for record in done[:RUN_MODEL_SAMPLE]:
        if digest(plan.run_model(inputs[record.index].astype(np.int64))) != record.digest:
            wrong.add(record.index)
    for record in done:
        if record.index in wrong:
            record.outcome = "wrong"


# ------------------------------------------------------------------ metrics
def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def end_to_end(workload: Workload, window: Window, setup_times: List[float]) -> Dict[str, float]:
    done = [record for record in window.sent if record.outcome == "succeeded"]
    tokens = len(done) * workload.columns
    latencies = [record.latency_s for record in done]
    on_time = sum(latency <= workload.latency_limit_s for latency in latencies)
    return {
        "setup_s": float(np.median(setup_times)),
        "peak_rss_mb": window.peak_rss_mb,
        "throughput_tok_s": _share(tokens, window.wall_s),
        "latency_p50_ms": _percentile(latencies, 50) * 1e3,
        "cpu_ms_per_tok": _share(window.cpu_s * 1e3, tokens),
        "slo_attainment": _share(on_time, len(window.sent)),
    }


def tail_note(workload: Workload, window: Window) -> str:
    latencies = [record.latency_s for record in window.sent if record.outcome == "succeeded"]
    q = workload.tail_pct
    return (f"latency_p{q:g}_ms {_percentile(latencies, q) * 1e3:.4f} ms "
            f"(n={len(latencies)}, limit {workload.latency_limit_s * 1e3:g} ms)")


def serving_layers(window: Window) -> Dict[str, float]:
    """Server, queue, batcher, report and generator metrics of one window."""
    report = window.report
    submits = [(r.submit_end - r.submit_start) * 1e6 for r in window.sent if r.admitted]
    lags = [(r.submit_start - r.due) * 1e3 for r in window.sent]
    metrics = {
        "server.submit_us_p50": _percentile(submits, 50),
        "server.submit_us_p99": _percentile(submits, 99),
        "server.compute_s": report.compute_s_total,
        "server.dispatch_s": report.dispatch_s_total,
        "server.compute_fraction": report.compute_fraction,
        "batcher.batch_size_mean": report.mean_batch_size,
        "report.report_ms": _percentile([s[0] for s in window.scrapes], 50) * 1e3,
        "report.health_ms": _percentile([s[1] for s in window.scrapes], 50) * 1e3,
        "proc.rss_growth_mb": window.rss_growth_mb,
        "loadgen.lag_p50_ms": _percentile(lags, 50),
        "loadgen.lag_max_ms": max(lags),
    }
    for stage in report.stages:
        metrics[f"queue.{stage.layer}.wait_ms"] = stage.queue_wait_mean_s * 1e3
        metrics[f"batcher.{stage.layer}.batches"] = stage.batches
        metrics[f"stage.{stage.layer}.compute_ms_per_batch"] = _share(
            stage.compute_s * 1e3, stage.batches
        )
    return metrics


def probe_layers(plan: ModelPlan, workload: Workload, seed: int, tracer: Tracer) -> Dict[str, float]:
    """Compile, kernel, scoreboard and accelerator-model metrics per stage."""
    metrics: Dict[str, float] = {}
    for stage in STAGES:
        with tracer.span("compile_workload"):
            start = time.perf_counter()
            compile_plan(workload, seed, layer_names=[stage])
            metrics[f"compile.{stage}_s"] = time.perf_counter() - start
    metrics["compile.lowering_s"] = plan.compile_stats.lowering_s
    rng = np.random.default_rng([seed, PROBE_STREAM])
    width = workload.kernel_width
    for stage in STAGES:
        layer = plan.layer(stage)
        shape = layer.shape
        activation = rng.integers(-128, 128, size=(shape.k, width), dtype=np.int64)
        plan.run(stage, activation)
        times: List[float] = []
        while len(times) < 3 or sum(times) < KERNEL_PROBE_S:
            with tracer.span("ModelPlan.run"):
                start = time.perf_counter()
                plan.run(stage, activation)
                times.append(time.perf_counter() - start)
        metrics[f"kernel.{stage}.us_per_tok"] = float(np.median(times)) / width * 1e6
        # From tensor sizes: packed weights, INT8 activations, int64 outputs.
        metrics[f"kernel.{stage}.bytes"] = (
            (shape.n * shape.k * WEIGHT_BITS + shape.k * width * ACTIVATION_BITS) // 8
            + shape.n * width * 8
        )
        metrics[f"scoreboard.{stage}.ops"] = layer.op_counts.transitive_ops
        metrics[f"scoreboard.{stage}.density"] = layer.op_counts.density
    accelerator = TransitiveArrayAccelerator(seed=seed)
    cycles_per_tok = 0.0
    for stage in STAGES:
        with tracer.span("simulate_gemm"):
            start = time.perf_counter()
            profile = accelerator.simulate_gemm(plan.layer(stage).shape)
            metrics[f"transarray.{stage}.simulate_s"] = time.perf_counter() - start
        metrics[f"transarray.{stage}.cycles"] = profile.cycles
        attribution = accelerator.attribute_request(profile, workload.columns)
        cycles_per_tok += attribution.cycles / workload.columns
    metrics["transarray.attributed_cycles_per_tok"] = cycles_per_tok
    return metrics


def saturation_layers(workload: Workload, window: Window) -> Dict[str, float]:
    """Queue, batcher and scrape metrics of the saturation window."""
    e2e = end_to_end(workload, window, [0.0])
    return {
        "saturation.throughput_tok_s": e2e["throughput_tok_s"],
        "saturation.latency_p50_ms": e2e["latency_p50_ms"],
        "saturation.batch_size_mean": window.report.mean_batch_size,
        "saturation.report_ms": _percentile([s[0] for s in window.scrapes], 50) * 1e3,
        "saturation.health_ms": _percentile([s[1] for s in window.scrapes], 50) * 1e3,
    }


def tally(windows: List[Window]) -> Dict[str, int]:
    counts = dict.fromkeys(("sent", "succeeded", "wrong", "failed", "shed", "rejected", "expired"), 0)
    for window in windows:
        for record in window.sent:
            counts["sent"] += 1
            counts[record.outcome] += 1
    return counts


# --------------------------------------------------------------- provenance
def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def current_rss_mb() -> float:
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


def git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas() -> Tuple[str, object]:
    """BLAS library numpy uses, and its thread count."""
    try:
        from threadpoolctl import threadpool_info
    except ImportError:
        pass
    else:
        for pool in threadpool_info():
            if pool.get("user_api") == "blas":
                return f"{pool.get('internal_api')} {pool.get('version')}", pool.get("num_threads")
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        name = "unknown"
    threads = next((os.environ[var] for var in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                    if var in os.environ), "default")
    return name, threads


def provenance(plan: ModelPlan) -> Dict[str, object]:
    """Where and with what the numbers were measured."""
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "absent"
    blas, blas_threads = _blas()
    backends = {}
    for stage in STAGES:
        kernel = plan.layer(stage).gemm_plan.kernel
        backends[stage] = kernel.backend if kernel is not None else "none"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "git_sha": git_sha(ROOT),
        "kernel_backends": backends,
    }


# ---------------------------------------------------------------------- run
def run(name: str, *, seed: int, seconds: float, tiny: bool,
        trace_path: Optional[Path]) -> Dict[str, object]:
    """One run of workload ``name``; traced, with per-layer metrics, when
    ``trace_path`` is given."""
    workload = WORKLOADS[name]
    if tiny:
        workload = replace(workload, hidden=64, intermediate=128)
    trace = trace_path is not None
    tracer = Tracer(enabled=trace)
    setup_times: List[float] = []
    plan = server = None
    for _ in range(1 if trace else SETUP_REPEATS):
        if server is not None:
            server.close()
            plan = server = None
            gc.collect()
        plan, server, setup_s = set_up(workload, seed, tracer)
        setup_times.append(setup_s)
    # A traced run measures an untraced, a traced and another untraced window
    # of a third of the length each, so it takes about as long as an untraced
    # run.  The overhead compares the traced window with the mean of the two
    # around it: with one untraced window first, the first window's extra cost
    # in a fresh process read as a negative overhead.  A traced saturation
    # window on a fresh server follows, for the queue, batcher and scrape
    # metrics at saturation.
    window_s = seconds / 3 if trace else seconds
    windows = [run_window(server, workload, seed, window_s, 1, Tracer(enabled=False))]
    if trace:
        for stream, window_tracer in ((2, tracer), (4, Tracer(enabled=False))):
            server = start_server(plan, workload, seed, tracer)
            windows.append(run_window(server, workload, seed, window_s, stream, window_tracer))
        soak = saturation(workload)
        server = start_server(plan, soak, seed, tracer)
        windows.append(run_window(server, soak, seed, 1.0, SATURATION_STREAM, tracer))
    chain = ExactChain([plan.layer(stage).weight for stage in STAGES])
    for window in windows:
        check_window(plan, chain, window)
    metrics = end_to_end(workload, windows[0], setup_times)
    units = END_TO_END_UNITS
    if trace:
        traced = end_to_end(workload, windows[1], setup_times)
        untraced = (metrics["cpu_ms_per_tok"]
                    + end_to_end(workload, windows[2], setup_times)["cpu_ms_per_tok"]) / 2
        overhead = (_share(traced["cpu_ms_per_tok"], untraced) - 1.0) * 100.0
        with tracer.span("probes"):
            metrics = probe_layers(plan, workload, seed, tracer)
        metrics.update(serving_layers(windows[1]))
        metrics.update(saturation_layers(soak, windows[3]))
        metrics["trace.overhead_pct"] = overhead
        units = PER_LAYER_UNITS
    counts = tally(windows)
    leaks = [leak for window in windows for leak in window.leaks]
    result = {
        "correct": counts["succeeded"] > 0 and counts["wrong"] == 0 and not leaks,
        "attempted": counts["sent"],
        "failed": counts["sent"] - counts["succeeded"],
        "metrics": {
            key: {"value": _plain(metrics[key]), "unit": unit} for key, unit in units.items()
        },
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "tiny": tiny,
        "counts": counts,
        "tail": tail_note(workload, windows[0]),
        "leaks": leaks,
        "exact_splits": chain.splits,
        "provenance": provenance(plan),
    }
    if trace:
        tracer.write(trace_path, {
            "workload": workload.name,
            "seed": seed,
            "trace_overhead_pct": overhead,
            "provenance": result["provenance"],
        })
    return result


def _plain(value):
    """A JSON-ready Python number."""
    return value.item() if isinstance(value, np.generic) else value
