#!/usr/bin/env python
"""Serving demo: compile a LLaMA projection, fire concurrent model requests.

Compiles the Q projection of the LLaMA-7B Transformer block (INT4 weights)
into a :class:`~repro.serving.ModelPlan` — the weights are bit-sliced and
static-scoreboarded once, offline, and each layer gets an exact float64-BLAS
executor (its backend is printed) — then spins up the thread-pool server and
fires concurrent model-level requests at it from client threads.  A
single-layer plan serves as an implicit one-stage pipeline, so
``server.submit(activation)`` needs no layer name.  Each worker claims up to
``max_batch`` queued requests and runs their concatenated activations in one
executor pass; every output is checked bit-exact against ``weight @ activation`` before the
:class:`~repro.serving.ServingReport` (including the per-stage pipeline
rows) is printed.

Usage::

    python examples/serving_demo.py
"""

import threading
import time

import numpy as np

from repro.serving import Server, compile_workload
from repro.workloads import llama_fc_gemms

MODEL = "llama1-7b"
LAYER = "q_proj"
NUM_REQUESTS = 48
MAX_BATCH = 16
NUM_WORKERS = 2


def main() -> None:
    workload = llama_fc_gemms(MODEL, weight_bits=4)
    print(f"Compiling {MODEL} layer {LAYER} (INT4 weights, static scoreboard)...")
    start = time.perf_counter()
    plan = compile_workload(workload, layer_names=[LAYER], seed=42)
    print(f"  compiled {len(plan)} layer in {time.perf_counter() - start:.2f}s "
          f"({plan.op_counts.total_transrows} TransRows scoreboarded once, "
          f"density {plan.op_counts.density:.1%})")
    stats = plan.compile_stats
    backends = ", ".join(stats.kernel_backends) if stats.kernel_backends else "none"
    print(f"  served by executor: {backends} "
          f"({stats.lowering_s * 1e3:.1f} ms to build, "
          f"{stats.kernel_bytes / 1024:.1f} KiB)\n")

    rng = np.random.default_rng(0)
    shape = plan.layer(LAYER).shape
    activations = [
        rng.integers(-128, 128, size=(shape.k, 1), dtype=np.int64)
        for _ in range(NUM_REQUESTS)
    ]
    outputs = [None] * NUM_REQUESTS

    # Generous per-request deadline: requests that cannot be served in time
    # are expired rather than left to queue forever.
    deadline_s = 600.0

    print(f"Serving {NUM_REQUESTS} concurrent single-token model requests "
          f"({NUM_WORKERS} workers, max_batch={MAX_BATCH})...")
    with Server(plan, num_workers=NUM_WORKERS, max_batch=MAX_BATCH,
                max_pending=NUM_REQUESTS) as server:

        def client(index: int) -> None:
            request = server.submit(activations[index], deadline_s=deadline_s)
            outputs[index] = request.result(timeout=600.0)

        threads = [
            threading.Thread(target=client, args=(index,))
            for index in range(NUM_REQUESTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    weight = plan.layer(LAYER).weight
    for index in range(NUM_REQUESTS):
        expected = weight @ activations[index]
        assert np.array_equal(outputs[index], expected), "serving must be bit-exact"
    print("  every output bit-identical to weight @ activation\n")

    print(server.report().render())


if __name__ == "__main__":
    main()
