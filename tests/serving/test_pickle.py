"""Spawn-safe pickling of compiled plans, executors, engines and injectors.

The process-sharded serving tier ships a :class:`~repro.serving.ModelPlan`
replica to every worker process through ``pickle`` under the ``spawn`` start
method, so the pickled state must carry no locks, no closures and no lambdas — and
the unpickled replica must serve bit-identically.
"""

import pickle

import numpy as np
import pytest

from repro.core import ExactExecutor, TransitiveGemmEngine
from repro.errors import ServingError
from repro.serving import FaultInjector, FaultPlan, compile_workload
from repro.workloads import synthetic_gemm_workload


def _plan(num_layers: int = 2):
    workload = synthetic_gemm_workload(
        num_layers=num_layers, n=24, k=20, m=3, weight_bits=4
    )
    return compile_workload(workload, seed=3)


class TestEnginePickle:
    def test_round_trip_preserves_configuration(self):
        engine = TransitiveGemmEngine(
            transrow_bits=4, max_distance=3, num_lanes=2, fast=True,
            scoreboard_cache_entries=7,
        )
        clone = pickle.loads(pickle.dumps(engine))
        assert clone.transrow_bits == 4
        assert clone.max_distance == 3
        assert clone.num_lanes == 2
        assert clone.fast is True
        assert clone._cache.max_entries == 7

    def test_caches_are_rebuilt_empty(self):
        engine = TransitiveGemmEngine(transrow_bits=8, scoreboard_cache_entries=4)
        rng = np.random.default_rng(0)
        weight = rng.integers(-8, 8, size=(16, 16), dtype=np.int64)
        engine.plan(weight, 4)
        assert engine.scoreboard_cache_info().entries > 0
        clone = pickle.loads(pickle.dumps(engine))
        info = clone.scoreboard_cache_info()
        assert info.entries == 0 and info.hits == 0 and info.misses == 0

    def test_unpickled_engine_multiplies_bit_identically(self):
        engine = TransitiveGemmEngine(transrow_bits=8)
        clone = pickle.loads(pickle.dumps(engine))
        rng = np.random.default_rng(1)
        weight = rng.integers(-8, 8, size=(12, 20), dtype=np.int64)
        act = rng.integers(-64, 64, size=(20, 5), dtype=np.int64)
        assert np.array_equal(clone.multiply(weight, act, 4).output, weight @ act)


class TestExecutorPickle:
    def test_round_trip_executes_bit_identically(self):
        plan = _plan(num_layers=1)
        layer = plan.layer("layer0")
        kernel = layer.gemm_plan.kernel
        clone = pickle.loads(pickle.dumps(kernel))
        assert isinstance(clone, ExactExecutor)
        assert clone.row_bound == kernel.row_bound
        assert clone.digit_bits == kernel.digit_bits
        assert clone.max_weight == kernel.max_weight
        assert clone.backend == kernel.backend
        rng = np.random.default_rng(2)
        act = rng.integers(-64, 64, size=(layer.shape.k, 4), dtype=np.int64)
        assert np.array_equal(clone.execute(act), layer.weight @ act)
        # Past the float64 bound the digit split must survive pickling too.
        big = act << 40
        assert np.array_equal(clone.execute(big), layer.weight @ big)


class TestModelPlanPickle:
    def test_round_trip_serves_bit_identically(self):
        plan = _plan(num_layers=2)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.layer_names() == plan.layer_names()
        rng = np.random.default_rng(5)
        for name in plan.layer_names():
            layer = plan.layer(name)
            act = rng.integers(-64, 64, size=(layer.shape.k, 3), dtype=np.int64)
            expected = layer.weight @ act
            assert np.array_equal(clone.run(name, act), expected)
            batch = clone.run_batch(name, [act, act + 1])
            assert np.array_equal(batch.outputs[0], expected)
            assert np.array_equal(batch.outputs[1], layer.weight @ (act + 1))

    def test_degraded_oracle_survives_the_round_trip(self):
        plan = _plan(num_layers=1)
        clone = pickle.loads(pickle.dumps(plan))
        layer = clone.layer("layer0")
        act = np.arange(layer.shape.k, dtype=np.int64).reshape(-1, 1)
        assert np.array_equal(
            clone.run_degraded("layer0", act), layer.weight @ act
        )

    def test_compile_stats_and_attribution_metadata_survive(self):
        plan = _plan(num_layers=2)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.compile_stats is not None
        assert clone.compile_stats.num_layers == 2
        assert clone.name == plan.name


class TestFaultInjectorPickle:
    def test_round_trip_preserves_plan_and_counters(self):
        injector = FaultInjector(
            engine_fault_rate=0.5,
            plan=FaultPlan(worker_crashes_at=frozenset({2})),
            seed=9,
        )
        with pytest.raises(Exception):
            # Consume hook #1 state deterministically before pickling.
            for _ in range(10):
                injector.on_batch("layer0", 1)
        clone = pickle.loads(pickle.dumps(injector))
        assert clone.plan == injector.plan
        assert clone.stats().batch_hooks == injector.stats().batch_hooks
        # The rng stream continues where the parent's stood: both copies draw
        # the same future fault sequence.
        outcomes = []
        for copy in (injector, clone):
            seen = []
            for _ in range(8):
                try:
                    copy.on_batch("layer0", 1)
                    seen.append(False)
                except Exception:
                    seen.append(True)
            outcomes.append(seen)
        assert outcomes[0] == outcomes[1]

    def test_for_shard_offsets_make_scripted_faults_fire_once(self):
        injector = FaultInjector(plan=FaultPlan(worker_crashes_at=frozenset({3})))
        fresh = injector.for_shard(0)
        resumed = injector.for_shard(0, dispatch_offset=3, batch_offset=3)
        # Fresh shard crashes on its third dispatch; the restarted shard
        # (offsets past the scripted index) never replays it.
        fresh.on_dispatch("w"), fresh.on_dispatch("w")
        with pytest.raises(Exception):
            fresh.on_dispatch("w")
        for _ in range(6):
            resumed.on_dispatch("w")

    def test_for_shard_decorrelates_seeds_and_validates(self):
        injector = FaultInjector(engine_fault_rate=0.4, seed=1)
        assert injector.for_shard(1).seed != injector.for_shard(2).seed
        with pytest.raises(ServingError):
            injector.for_shard(-1)
        with pytest.raises(ServingError):
            injector.for_shard(0, dispatch_offset=-1)
