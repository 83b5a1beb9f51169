"""Performance layer: parallel sweep execution, shard planning, run caching.

The paper's evaluation is a (pattern × policy × load) matrix of
*independent* simulation runs; this package makes that matrix cheap:

``repro.perf.executor``
    One scheduling loop runs every shard plan, inline or on one process
    pool, with picklable task/result transport.  Results are
    bit-identical to serial execution — each run seeds its own
    :class:`~repro.sim.rng.RngRegistry` from the workload seed via
    ``SeedSequence`` spawn keys, so worker scheduling cannot perturb any
    stream (the common-random-numbers contract survives parallelism).
    ``execute_tasks`` is that loop over one scalar shard;
    ``run_sweep_batched`` routes batch-covered runs through the
    vectorized engine as per-worker sub-slab shards next to scalar
    fallback, with struct-of-arrays result transport and scalar rescue of
    a shard that raises.  ``run_cached`` puts the run cache in front.

``repro.perf.engines``
    The engine table: ``fast``, ``batch`` and ``detailed`` registered
    once, read by every ``--engine`` flag, ``run_cached`` and the cache
    key.

``repro.perf.shards``
    Shard planning for the sharded batch path: the deterministic
    ``(tasks, jobs) -> ShardPlan`` layout, the shard-size heuristic, and
    the ``ShardReport`` timings that land in job manifests.

``repro.perf.cache``
    A content-addressed on-disk store keyed on the full run description
    ``(ERapidConfig, WorkloadSpec, MeasurementPlan, kernel version)``;
    repeated ``reproduce_all`` invocations skip already-computed
    runs.  ``get_many``/``put_many`` batch whole-job lookups and
    crash-safe writes into one counter flush each.

``repro.perf.legacy``, ``legacy_engine``, ``legacy_detailed``
    Frozen pre-rewrite kernel and engines: the bit-identity oracles of
    ``tests/test_sim_kernel.py``, ``tests/test_engine_equivalence.py`` and
    ``tests/test_detailed_equivalence.py``.  Nothing in ``src/`` imports
    them.

Timing lives outside the package: ``benchmarks/ledger`` is the only
performance instrument.  The package imports none of its modules, so
importing one (the engine table, say) loads no engine.
"""
