#!/usr/bin/env python
"""Whole-model serving demo: pipeline a LLaMA block through the server.

Compiles one full LLaMA Transformer block — the five chained GEMM stages of
:func:`~repro.workloads.llama_block_gemms` — with ``graph="chain"`` and
per-layer mixed precision (the attention path at INT4, the MLP pair at
INT8), then serves it three ways:

* a batch of concurrent **model requests**: each worker claim runs the
  columns of several requests through all five stages back to back;
* a **decode stream** (``stream=N``): the block's output token feeds back
  as the next step's input, N autoregressive steps on one request handle;
* a sequential ``plan.run_model`` **reference pass**, to show every served
  output is bit-identical to running the stages one by one.

The printed :class:`~repro.serving.ServingReport` includes per-stage rows:
requests, executor passes, compute time and occupancy (stage compute
seconds per wall second; the sum across stages approaches the worker count
when every worker is busy).

A small model configuration keeps compile time in seconds; pass a real name
such as ``llama1-7b`` for the full-size block.

Usage::

    python examples/llama_block_serving.py
"""

import threading
import time

import numpy as np

from repro.serving import Server, compile_workload
from repro.workloads import LlamaConfig, llama_block_gemms

#: Small stand-in block (hidden 96, intermediate 160) so the demo compiles fast.
CONFIG = LlamaConfig("demo-llama", hidden_size=96, intermediate_size=160,
                     num_attention_heads=4, num_key_value_heads=4, num_layers=2)
QUANT_SCHEMES = {
    "qkv_proj": "transarray-int4",
    "attn_score": "transarray-int4",
    "o_proj": "transarray-int4",
    "gate_proj": "transarray-int8",
    "down_proj": "transarray-int8",
}
NUM_REQUESTS = 24
DECODE_STEPS = 6
MAX_BATCH = 8
NUM_WORKERS = 2


def main() -> None:
    workload = llama_block_gemms(CONFIG.name, config=CONFIG, weight_bits=4)
    print(f"Compiling the {CONFIG.name} block as a chained pipeline "
          f"({len(workload.gemms)} stages, per-layer mixed precision)...")
    start = time.perf_counter()
    plan = compile_workload(workload, seed=7, graph="chain",
                            quant_schemes=QUANT_SCHEMES)
    stats = plan.compile_stats
    print(f"  compiled in {time.perf_counter() - start:.2f}s; {plan.graph.describe()}")
    bits = ", ".join(f"{layer}={stats.per_layer_bits[layer]}b"
                     for layer in plan.layer_names())
    print(f"  per-layer weight bits: {bits}")
    print(f"  streamable: {plan.streamable} "
          f"(input dim {plan.input_dim}, output dim {plan.output_dim})\n")

    rng = np.random.default_rng(3)
    activations = [
        rng.integers(-32, 32, size=(plan.input_dim, 1), dtype=np.int64)
        for _ in range(NUM_REQUESTS)
    ]
    outputs = [None] * NUM_REQUESTS
    deadline_s = 600.0

    print(f"Serving {NUM_REQUESTS} concurrent model requests through the "
          f"{len(plan.graph)}-stage pipeline ({NUM_WORKERS} workers)...")
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

        print(f"Streaming {DECODE_STEPS} autoregressive decode steps on one "
              f"request handle...")
        stream = server.submit(activations[0], stream=DECODE_STEPS)
        step_outputs = stream.outputs(timeout=600.0)

    for index in range(NUM_REQUESTS):
        expected = plan.run_model(activations[index])
        assert np.array_equal(outputs[index], expected), \
            "pipelined serving must match the sequential reference bit-exactly"

    token = activations[0]
    for step, produced in enumerate(step_outputs):
        token = plan.run_model(token)
        assert np.array_equal(produced, token), \
            f"decode step {step} must match the sequential reference"
    print("  every pipelined and streamed output bit-identical to the "
          "sequential per-layer reference\n")

    print(server.report().render())


if __name__ == "__main__":
    main()
