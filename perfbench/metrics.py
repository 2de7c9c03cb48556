"""Names and units of the benchmark's metrics (kept in step with
``BENCHMARK.json``; ``selftest.py`` checks that they agree)."""

#: End-to-end metrics reported with ``--trace 0``: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "iter_s_p50": "s",
    "latency_s_p50": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of a traced run: name -> unit.  Zero where the
#: workload does not exercise the layer.
PER_LAYER = {
    "fdfd.workspace.linear_solver.self_s": "s",
    "fdfd.workspace.factorizations": "count",
    "fdfd.workspace.factor_hit_ratio": "ratio",
    "fdfd.workspace.lu_nnz": "count",
    "fdfd.linalg.direct.solve.self_s": "s",
    "fdfd.linalg.rhs_columns": "count",
    "fdfd.linalg.krylov.solve.self_s": "s",
    "fdfd.linalg.krylov.iterations": "count",
    "fdfd.linalg.krylov.useful_ratio": "ratio",
    "fdfd.linalg.krylov.fallback_ratio": "ratio",
    "fdfd.workspace.assembly.self_s": "s",
    "fdfd.workspace.slab_mode.self_s": "s",
    "fdfd.workspace.mode_misses": "count",
    "fab.apply.self_s": "s",
    "fab.apply.calls": "count",
    "params.decode.self_s": "s",
    "core.sampling.corners.total_s": "s",
    "fdfd.adjoint.solve.self_s": "s",
    "fdfd.adjoint.grad_eps.self_s": "s",
    "fdfd.adjoint.grad_eps.calls": "count",
    "autodiff.backward.self_s": "s",
    "core.objective.self_s": "s",
    "core.optimizer.adam.self_s": "s",
    "core.engine.self_s": "s",
    "core.engine.unattributed_ratio": "ratio",
    "core.executors.map_ordered.total_s": "s",
    "core.executors.workers": "count",
    "core.executors.busy_ratio": "ratio",
    "core.checkpoint.save.self_s": "s",
    "core.checkpoint.saves": "count",
    "core.checkpoint.bytes": "bytes",
    "core.serve.submit_rtt_s": "s",
    "core.serve.queue_wait_s": "s",
    "core.serve.overhead_s": "s",
    "core.serve.progress_records": "count",
    "obs.trace_overhead_ratio": "ratio",
}


