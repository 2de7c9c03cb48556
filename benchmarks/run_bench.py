"""Perf-evidence runner for the design-job daemon (PR 10).

Times the per-iteration optimizer cost of every registered solver
backend against the seed-equivalent cold pipeline and writes
``BENCH_PR10.json``:

* ``solver``     — one HelmholtzSolver construction: seed reference
  (full rebuild + COLAMD) vs. tuned cold vs. warm workspace.
* ``iteration``  — end-to-end per-iteration wall time of
  ``Boson1Optimizer`` on the bending device with fabrication corners on
  (the paper's dominant cost), seed-equivalent vs. each backend
  (``direct`` = the PR 1 warm path, ``batched``, ``krylov`` with the
  nominal-corner LU recycled across corners), with per-run workspace
  cache hit rates and convergence statistics.
* ``montecarlo`` — ``evaluate_post_fab`` wall time, seed-equivalent
  vs. cached.
* ``process``    — the PR 4 evidence: the taped corner fan-out through
  ``--executor process:2`` (workers replay only forward solves, the
  parent assembles VJPs from worker-returned adjoint bases) vs. the
  serial executor in the same run.  On this 1-core box the fan-out
  cannot win wall-clock, so the gate asserts bounded overhead
  (*neutrality*) plus trajectory agreement and >= 2 distinct forked
  worker pids; the seam is the multi-core unlock.
* ``remote``     — the PR 5 evidence: the same taped fan-out through
  ``--executor remote:...`` against two loopback worker server
  processes vs. the serial executor in the same run.  Like the process
  section this is neutrality-gated on a 1-core box (sockets + framing
  on top of fork cost; the seam is the multi-*machine* unlock), plus
  trajectory agreement and >= 2 distinct remote worker pids.
* ``checkpoint`` — the PR 6 evidence: the same run with crash-safe
  checkpointing at its maximum cadence (``--checkpoint-every 1``:
  fsynced atomic write + sidecar + rotation per iteration) vs. no
  checkpointing in the same session.  Gated at <= 5% per-iteration
  overhead, with the checkpointed trajectory required to match the
  plain one bit for bit and a resume from the final checkpoint
  required to reproduce the final theta bitwise.
* ``tracing``    — the PR 7 evidence: the same run with ``--trace-dir``
  (full span instrumentation + per-iteration JSONL + Chrome export)
  vs. no tracing in the same session, gated at <= 5% per-iteration
  overhead; plus a micro-benchmark of the *disabled* span fast path
  (one thread-local read per instrumented site), whose projected
  per-iteration cost is gated at <= 1%.  The traced trajectory must
  match the untraced one bit for bit — the observer must not perturb
  the physics.
* ``serve``      — the PR 10 evidence: the same design run submitted
  through an in-process ``repro serve`` daemon (framed submit + coarse
  status polls + per-iteration progress appends + job-state
  persistence) vs. a direct checkpointed optimizer run in the same
  session; the ``watch`` replay attaches after completion to verify
  the full stream arrived.  Gated at <= 5% per-iteration daemon
  overhead, with the served job's trajectory required to match the
  direct run bit for bit.

The backends are also cross-checked: ``batched`` must reproduce the
direct FoM trajectory bit for bit, ``krylov`` to solver precision.
Finally the numbers are compared against ``BENCH_PR9.json`` (if
present): a slower warm-direct or krylov path, a process/remote fan-out
with runaway overhead, checkpointing, tracing or daemon scheduling that
taxes the loop beyond its gate is reported as a REGRESSION and the run
exits non-zero.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py [--iterations N]
        [--mc-samples N] [--output PATH] [--baseline PATH]
        [--skip-pytest-bench]

By default it finishes by running the pytest-benchmark substrate +
workspace-cache groups (``-m slow``) so their statistics land in the
same session.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import Boson1Optimizer, OptimizerConfig  # noqa: E402
from repro.devices import make_device  # noqa: E402
from repro.eval import evaluate_post_fab  # noqa: E402
from repro.fab.process import FabricationProcess  # noqa: E402
from repro.fdfd import (  # noqa: E402
    FactorOptions,
    HelmholtzSolver,
    SimGrid,
    SimulationWorkspace,
)
from repro.fdfd.workspace import (  # noqa: E402
    reset_shared_workspace,
    set_default_factor_options,
)
from repro.utils.constants import omega_from_wavelength  # noqa: E402
from repro.utils.io import atomic_write_json  # noqa: E402

BACKENDS = ("direct", "batched", "krylov")


def _time_repeat(fn, repeats: int) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_solver(repeats: int = 5) -> dict:
    grid = SimGrid((80, 80), dl=0.05, npml=10)
    omega = omega_from_wavelength(1.55)
    rng = np.random.default_rng(0)
    eps = 1.0 + 11.0 * rng.uniform(size=grid.shape)
    reference = FactorOptions.reference()

    cold_ref = _time_repeat(
        lambda: HelmholtzSolver(
            grid, eps, omega, workspace=None, factor_options=reference
        ),
        repeats,
    )
    cold_fast = _time_repeat(
        lambda: HelmholtzSolver(grid, eps, omega, workspace=None), repeats
    )

    workspace = SimulationWorkspace(max_factorizations=2)
    HelmholtzSolver(grid, eps, omega, workspace=workspace)
    state = {"i": 0}

    def warm_new_eps():
        state["i"] += 1
        bumped = eps.copy()
        bumped[40, 40] += 1e-9 * state["i"]
        HelmholtzSolver(grid, bumped, omega, workspace=workspace)

    warm_new = _time_repeat(warm_new_eps, repeats)
    warm_hit = _time_repeat(
        lambda: HelmholtzSolver(grid, eps, omega, workspace=workspace), repeats
    )

    # One Krylov corner solve against a recycled nominal anchor, for the
    # headline "sweeps vs. factorization" comparison.
    kry_ws = SimulationWorkspace(solver_config="krylov")
    HelmholtzSolver(grid, eps, omega, workspace=kry_ws)  # anchor
    corner = eps.copy()
    corner[30:50, 30:50] += 0.5
    b = rng.standard_normal(grid.n_cells) + 0j
    kry_state = {"i": 0}

    def krylov_corner_solve():
        kry_state["i"] += 1
        bumped = corner.copy()
        bumped[40, 40] += 1e-9 * kry_state["i"]
        HelmholtzSolver(grid, bumped, omega, workspace=kry_ws).solve_raw(b)

    krylov_solve = _time_repeat(krylov_corner_solve, repeats)
    return {
        "grid": list(grid.shape),
        "cold_reference_ms": cold_ref * 1e3,
        "cold_tuned_ms": cold_fast * 1e3,
        "warm_new_eps_ms": warm_new * 1e3,
        "warm_lu_hit_ms": warm_hit * 1e3,
        "krylov_corner_solve_ms": krylov_solve * 1e3,
        "speedup_cold_ref_vs_warm_new_eps": cold_ref / warm_new,
        "speedup_warm_new_eps_vs_krylov_corner": warm_new / krylov_solve,
    }


def _timed_run(config: OptimizerConfig, iterations: int):
    reset_shared_workspace()
    device = make_device("bending")
    optimizer = Boson1Optimizer(device, config)
    t0 = time.perf_counter()
    result = optimizer.run(iterations=iterations)
    elapsed = time.perf_counter() - t0
    optimizer.close()
    stats = device.workspace.stats() if device.workspace is not None else None
    return elapsed, result, stats


def _cache_summary(stats: dict) -> dict:
    return {
        name: {
            "hit_rate_pct": stats[name]["hit_rate_pct"],
            "hits": stats[name]["hits"],
            "misses": stats[name]["misses"],
        }
        for name in ("assemblies", "factorizations", "modes")
    }


def bench_iteration(iterations: int, rounds: int = 2) -> tuple[dict, np.ndarray]:
    """Per-iteration wall time on the bending device, fab corners on.

    Backends run in alternating *rounds* and each keeps its best round —
    sequential one-shot timings would charge whichever backend runs last
    for any ambient-load drift on a shared box (the runs are
    deterministic, so the physics and solver statistics are identical
    across rounds; only the clock differs).
    """
    base = dict(iterations=iterations, seed=0)

    # Seed-equivalent: no caches, SciPy-default COLAMD factorization.
    previous = set_default_factor_options(FactorOptions.reference())
    try:
        t_seed, r_seed, _ = _timed_run(
            OptimizerConfig(simulation_cache=False, **base), iterations
        )
    finally:
        set_default_factor_options(previous)

    runs = {}
    for _ in range(rounds):
        for backend in BACKENDS:
            timed = _timed_run(
                OptimizerConfig(solver=backend, **base), iterations
            )
            if backend not in runs or timed[0] < runs[backend][0]:
                runs[backend] = timed
    t_direct, r_direct, _ = runs["direct"]

    # Same physics across the board: seed vs. cached to factorization
    # roundoff, batched == direct bit for bit (single-direction device),
    # krylov to solver precision.
    assert np.allclose(r_seed.fom_trace(), r_direct.fom_trace(), atol=1e-6)
    assert np.array_equal(runs["batched"][1].fom_trace(), r_direct.fom_trace())
    assert np.allclose(
        runs["krylov"][1].fom_trace(), r_direct.fom_trace(), rtol=1e-5, atol=1e-7
    )

    backends = {}
    for backend, (t, result, stats) in runs.items():
        entry = {
            "s_per_iter": t / iterations,
            "speedup_vs_seed": t_seed / t,
            "speedup_vs_direct": t_direct / t,
            "caches": _cache_summary(stats),
        }
        solver_stats = stats["solver"]
        entry["factorizations"] = solver_stats["factorizations"]
        if backend == "krylov":
            entry["krylov_solves"] = solver_stats["krylov_solves"]
            entry["mean_krylov_iterations"] = round(
                solver_stats["iterations"] / max(1, solver_stats["krylov_solves"]),
                2,
            )
            entry["fallbacks"] = solver_stats["fallbacks"]
        if backend == "batched":
            entry["batched_calls"] = solver_stats["batched_calls"]
        backends[backend] = entry

    report = {
        "device": "bending",
        "iterations": iterations,
        "corners_per_iteration": r_direct.history[0].n_corners,
        "seed_equivalent_s_per_iter": t_seed / iterations,
        "backends": backends,
        "krylov_speedup_vs_direct": t_direct / runs["krylov"][0],
    }
    return report, r_direct.pattern


def bench_process(iterations: int, rounds: int = 2) -> tuple[dict, list[str]]:
    """The taped process fan-out vs. the serial executor, same backend.

    Alternating best-of-rounds like :func:`bench_iteration`.  Workers
    replay only the forward solves; each run re-forks its pool, so the
    measured process time includes worker warm-up (calibration re-solves
    in each worker) amortized over the run.
    """
    base = dict(iterations=iterations, seed=0, solver="direct")
    runs: dict = {}
    # Per-run pid counts: accumulating one set across rounds would let
    # two single-worker runs masquerade as one two-worker fan-out.
    pids_per_run: list[int] = []
    for _ in range(rounds):
        for executor in ("serial", "process:2"):
            reset_shared_workspace()
            device = make_device("bending")
            optimizer = Boson1Optimizer(
                device, OptimizerConfig(corner_executor=executor, **base)
            )
            t0 = time.perf_counter()
            result = optimizer.run()
            elapsed = time.perf_counter() - t0
            if executor.startswith("process"):
                pids_per_run.append(len(optimizer.observed_worker_pids))
            optimizer.close()
            if executor not in runs or elapsed < runs[executor][0]:
                runs[executor] = (elapsed, result)
    t_serial, r_serial = runs["serial"]
    t_proc, r_proc = runs["process:2"]
    trace_diff = float(
        np.max(np.abs(r_proc.fom_trace() - r_serial.fom_trace()))
    )
    report = {
        "device": "bending",
        "iterations": iterations,
        "executor": "process:2",
        "serial_s_per_iter": t_serial / iterations,
        "process_s_per_iter": t_proc / iterations,
        "overhead_vs_serial": t_proc / t_serial,
        "distinct_worker_pids_per_run": pids_per_run,
        "max_fom_trace_diff_vs_serial": trace_diff,
    }
    failures: list[str] = []
    # A failure string (not an assert) so the JSON report — which
    # carries the diff as evidence — is still written on a bad run.
    if not np.allclose(
        r_proc.fom_trace(), r_serial.fom_trace(), rtol=1e-6, atol=1e-9
    ):
        failures.append(
            f"process fan-out trajectory diverged from serial: "
            f"max |fom diff| = {trace_diff:.3e} (tol rtol=1e-6)"
        )
    if max(pids_per_run, default=0) < 2:
        failures.append(
            f"no process run exercised >= 2 distinct forked workers "
            f"(per-run counts: {pids_per_run})"
        )
    # Neutrality gate for a 1-core box: the fan-out pays fork + payload
    # pickling + worker warm-up and can win nothing back without spare
    # cores, so "not catastrophically slower" is the contract here.
    # Head-room sized from measured ~1.3-1.5x overhead plus scheduler
    # jitter on a shared box.
    if t_proc > 2.0 * t_serial:
        failures.append(
            f"process fan-out overhead blew past neutrality: "
            f"{t_proc / iterations:.4f} s/iter vs. serial "
            f"{t_serial / iterations:.4f} s/iter "
            f"({t_proc / t_serial:.2f}x, gate 2.0x)"
        )
    return report, failures


def bench_remote(iterations: int, rounds: int = 2) -> tuple[dict, list[str]]:
    """The taped fan-out over loopback sockets vs. the serial executor.

    Two real worker server processes (forked, so warm pools and stats
    deltas behave exactly as on remote hosts) serve both rounds; the
    executor reconnects per run but the workers keep their warm caches,
    which is the deployment-realistic steady state.  Alternating
    best-of-rounds like :func:`bench_process`.
    """
    from repro.core.remote import start_worker_subprocess

    workers = [start_worker_subprocess() for _ in range(2)]
    spec = "remote:" + ",".join(
        f"{host}:{port}" for _proc, (host, port) in workers
    )
    base = dict(iterations=iterations, seed=0, solver="direct")
    runs: dict = {}
    pids_per_run: list[int] = []
    try:
        for _ in range(rounds):
            for executor in ("serial", spec):
                reset_shared_workspace()
                device = make_device("bending")
                optimizer = Boson1Optimizer(
                    device,
                    OptimizerConfig(
                        corner_executor=executor,
                        remote_timeout=60.0,
                        **base,
                    ),
                )
                t0 = time.perf_counter()
                result = optimizer.run()
                elapsed = time.perf_counter() - t0
                if executor.startswith("remote"):
                    pids_per_run.append(len(optimizer.observed_worker_pids))
                optimizer.close()
                if executor not in runs or elapsed < runs[executor][0]:
                    runs[executor] = (elapsed, result)
    finally:
        for proc, _address in workers:
            proc.terminate()
    t_serial, r_serial = runs["serial"]
    t_remote, r_remote = runs[spec]
    trace_diff = float(
        np.max(np.abs(r_remote.fom_trace() - r_serial.fom_trace()))
    )
    report = {
        "device": "bending",
        "iterations": iterations,
        "executor": "remote (2 loopback worker processes)",
        "serial_s_per_iter": t_serial / iterations,
        "remote_s_per_iter": t_remote / iterations,
        "overhead_vs_serial": t_remote / t_serial,
        "distinct_worker_pids_per_run": pids_per_run,
        "max_fom_trace_diff_vs_serial": trace_diff,
    }
    failures: list[str] = []
    if not np.allclose(
        r_remote.fom_trace(), r_serial.fom_trace(), rtol=1e-6, atol=1e-9
    ):
        failures.append(
            f"remote fan-out trajectory diverged from serial: "
            f"max |fom diff| = {trace_diff:.3e} (tol rtol=1e-6)"
        )
    if max(pids_per_run, default=0) < 2:
        failures.append(
            f"no remote run exercised >= 2 distinct worker servers "
            f"(per-run counts: {pids_per_run})"
        )
    # Neutrality gate for a 1-core box: on top of the process fan-out's
    # fork + warm-up cost the remote path pays TCP framing and a second
    # pickle hop, and the loopback workers share the single core with
    # the parent — so the contract is bounded overhead, sized from
    # measured ~1.4-1.8x plus scheduler jitter.  The seam's win is
    # linear multi-machine speedup, which a 1-core box cannot show.
    if t_remote > 2.5 * t_serial:
        failures.append(
            f"remote fan-out overhead blew past neutrality: "
            f"{t_remote / iterations:.4f} s/iter vs. serial "
            f"{t_serial / iterations:.4f} s/iter "
            f"({t_remote / t_serial:.2f}x, gate 2.5x)"
        )
    return report, failures


def bench_checkpoint(iterations: int, rounds: int = 5) -> tuple[dict, list[str]]:
    """Checkpointing at maximum cadence vs. the same run without it.

    ``checkpoint_every=1`` is the worst case: every iteration pays one
    pickled snapshot (theta, Adam moments, RNG state, full history), a
    fsynced atomic rename, a JSON sidecar, and keep-last-K rotation.
    Alternating best-of-rounds like :func:`bench_process`; the gate is
    same-run relative (both modes see the same ambient load), so 5%
    head-room is enough — but a 5% gate needs a tight floor estimate,
    hence five alternating rounds instead of three (the measured save
    cost is ~2 ms against a ~180 ms iteration, under 2%; anything past
    5% is a code regression, not noise, once the best-of floor is
    stable).  The checkpointed run must also match the plain
    trajectory bit for bit — the observer must not perturb the physics —
    and a resume from its final checkpoint must reproduce the final
    theta bitwise.
    """
    import tempfile

    from repro.core import DesignCheckpoint, find_latest_checkpoint

    base = dict(iterations=iterations, seed=0, solver="direct")
    runs: dict = {}
    failures: list[str] = []
    with tempfile.TemporaryDirectory() as tmpdir:
        for round_index in range(rounds):
            for mode in ("plain", "checkpoint"):
                reset_shared_workspace()
                device = make_device("bending")
                kwargs = dict(base)
                if mode == "checkpoint":
                    ckpt_dir = Path(tmpdir) / f"round{round_index}"
                    kwargs.update(
                        checkpoint_dir=str(ckpt_dir),
                        checkpoint_every=1,
                        checkpoint_keep=3,
                    )
                optimizer = Boson1Optimizer(device, OptimizerConfig(**kwargs))
                t0 = time.perf_counter()
                result = optimizer.run()
                elapsed = time.perf_counter() - t0
                optimizer.close()
                if mode not in runs or elapsed < runs[mode][0]:
                    runs[mode] = (elapsed, result, kwargs.get("checkpoint_dir"))

        t_plain, r_plain, _ = runs["plain"]
        t_ckpt, r_ckpt, ckpt_dir = runs["checkpoint"]

        if not np.array_equal(r_ckpt.fom_trace(), r_plain.fom_trace()):
            failures.append(
                "checkpointing perturbed the trajectory: fom traces are "
                "not bitwise equal with and without --checkpoint-every 1"
            )

        # Resume evidence: reload the final checkpoint and check it holds
        # the exact final theta (a full-horizon resume runs 0 iterations
        # and must return the recorded state untouched).
        found = find_latest_checkpoint(ckpt_dir)
        latest_bytes = 0
        resume_bitwise = False
        if found is None:
            failures.append(
                f"checkpointed run left no valid checkpoint in {ckpt_dir}"
            )
        else:
            ckpt_path, _ = found
            latest_bytes = ckpt_path.stat().st_size
            reset_shared_workspace()
            device = make_device("bending")
            optimizer = Boson1Optimizer(
                device,
                OptimizerConfig(
                    checkpoint_dir=None,
                    **base,
                ),
            )
            resumed = optimizer.run(resume=DesignCheckpoint.load(ckpt_path))
            optimizer.close()
            resume_bitwise = bool(
                np.array_equal(resumed.theta, r_plain.theta)
                and np.array_equal(resumed.fom_trace(), r_plain.fom_trace())
            )
            if not resume_bitwise:
                failures.append(
                    "resume from the final checkpoint did not reproduce "
                    "the uninterrupted run's theta / fom trace bitwise"
                )

    overhead = t_ckpt / t_plain
    # The ROADMAP contract: checkpointing at every iteration must cost
    # <= 5% per iteration.  Same-run relative, so jitter largely cancels.
    if overhead > 1.05:
        failures.append(
            f"checkpoint overhead blew past the 5% gate: "
            f"{t_ckpt / iterations:.4f} s/iter with --checkpoint-every 1 "
            f"vs. {t_plain / iterations:.4f} s/iter without "
            f"({overhead:.3f}x, gate 1.05x)"
        )
    report = {
        "device": "bending",
        "iterations": iterations,
        "cadence": "every iteration (worst case)",
        "plain_s_per_iter": t_plain / iterations,
        "checkpoint_s_per_iter": t_ckpt / iterations,
        "overhead_vs_plain": overhead,
        "overhead_pct_per_iter": (overhead - 1.0) * 100.0,
        "latest_checkpoint_bytes": latest_bytes,
        "trajectory_bitwise_equal": bool(
            np.array_equal(r_ckpt.fom_trace(), r_plain.fom_trace())
        ),
        "resume_bitwise_equal": resume_bitwise,
    }
    return report, failures


def bench_serve(iterations: int, rounds: int = 5) -> tuple[dict, list[str]]:
    """A design run through the job daemon vs. the direct optimizer.

    The serve path pays framing (submit + coarse status polls), a
    per-iteration JSONL append + flush, job-state persistence on
    transitions, and runner-thread scheduling on top of the optimizer
    itself.  The direct side runs the *same* config including
    ``checkpoint_dir`` (the daemon forces checkpointing on, so a fair
    comparison charges both sides for it).  The timed window is submit
    -> terminal; the ``watch`` replay (which re-streams every record
    from offset zero) attaches *after* completion for the record-count
    and bitwise assertions, because a live streaming client is a
    per-client cost, not daemon overhead — on a one-core box its
    per-iteration frame traffic steals GIL time from the solver thread
    and would charge the daemon for work the client asked for.
    Alternating best-of-rounds like :func:`bench_checkpoint`; the gate
    is same-run relative at <= 5% per iteration, and the served
    trajectory must match the direct run bit for bit — the daemon must
    not perturb the physics.  Five rounds (like the checkpoint
    section) because the gate is tight relative to this box's per-run
    noise, so the best-of floor needs the extra samples to converge.
    """
    import tempfile

    from repro.core.serve import ServeClient, ServeDaemon
    from repro.utils.io import load_result

    base = dict(iterations=iterations, seed=0, solver="direct",
                checkpoint_every=1, checkpoint_keep=3)
    runs: dict = {}
    failures: list[str] = []
    with tempfile.TemporaryDirectory() as tmpdir:
        for round_index in range(rounds):
            # Direct: plain optimizer run with checkpointing on.
            reset_shared_workspace()
            device = make_device("bending")
            ckpt_dir = Path(tmpdir) / f"direct{round_index}"
            optimizer = Boson1Optimizer(
                device,
                OptimizerConfig(checkpoint_dir=str(ckpt_dir), **base),
            )
            t0 = time.perf_counter()
            result = optimizer.run()
            elapsed = time.perf_counter() - t0
            optimizer.close()
            if "direct" not in runs or elapsed < runs["direct"][0]:
                runs["direct"] = (elapsed, result.fom_trace())

            # Served: submit the same config, poll to terminal, then
            # replay the progress stream for the assertions.
            reset_shared_workspace()
            daemon = ServeDaemon(Path(tmpdir) / f"jobs{round_index}")
            daemon.serve_in_thread()
            try:
                records = 0

                def count(_record):
                    nonlocal records
                    records += 1

                with ServeClient(daemon.address, timeout=600.0) as client:
                    t0 = time.perf_counter()
                    job = client.submit("bending", dict(base))
                    while True:
                        status = client.status(job["id"])["job"]
                        if status["status"] in ("completed", "failed",
                                                "cancelled", "interrupted"):
                            break
                        time.sleep(0.2)
                    elapsed = time.perf_counter() - t0
                    # Outside the clock: watch replays the whole stream
                    # from offset zero even on a settled job.
                    final = client.watch(job["id"], on_record=count)
                served_trace = np.asarray(
                    load_result(daemon.store.result_path(job["id"]))[
                        "fom_trace"
                    ]
                )
                if final["status"] != "completed":
                    failures.append(
                        f"served job settled {final['status']!r}, "
                        "expected completed"
                    )
                if records != iterations:
                    failures.append(
                        f"watch streamed {records} records for "
                        f"{iterations} iterations"
                    )
                if "serve" not in runs or elapsed < runs["serve"][0]:
                    runs["serve"] = (elapsed, served_trace)
            finally:
                daemon.shutdown()

    t_direct, direct_trace = runs["direct"]
    t_serve, served_trace = runs["serve"]
    if not np.array_equal(served_trace, direct_trace):
        failures.append(
            "the daemon perturbed the trajectory: served fom trace is "
            "not bitwise equal to the direct checkpointed run"
        )
    overhead = t_serve / t_direct
    # The ISSUE contract: daemon scheduling + streaming must cost <= 5%
    # per iteration over a direct `repro design` run.
    if overhead > 1.05:
        failures.append(
            f"serve overhead blew past the 5% gate: "
            f"{t_serve / iterations:.4f} s/iter through the daemon vs. "
            f"{t_direct / iterations:.4f} s/iter direct "
            f"({overhead:.3f}x, gate 1.05x)"
        )
    report = {
        "device": "bending",
        "iterations": iterations,
        "direct_s_per_iter": t_direct / iterations,
        "serve_s_per_iter": t_serve / iterations,
        "overhead_vs_direct": overhead,
        "overhead_pct_per_iter": (overhead - 1.0) * 100.0,
        "trajectory_bitwise_equal": bool(
            np.array_equal(served_trace, direct_trace)
        ),
    }
    return report, failures


def bench_tracing(iterations: int, rounds: int = 5) -> tuple[dict, list[str]]:
    """Full tracing vs. no tracing in the same session, plus the
    disabled fast path.

    Two gates, matching the subsystem's contract:

    * *enabled* (<= 5%/iter): the same bending run with ``trace_dir``
      set — every span site live, a JSONL record + metrics snapshot per
      iteration, Chrome export at close — against the plain run,
      alternating best-of-rounds so both modes see the same ambient
      load (the 5%-gate rationale from :func:`bench_checkpoint`
      applies unchanged).
    * *disabled* (<= 1%/iter): with no tracer installed every span site
      costs two dict-free attribute reads and one shared no-op context
      manager.  A micro-benchmark measures that cost directly and
      projects it over the spans-per-iteration count observed in the
      traced run — a direct wall-clock diff at ~0.1% expected impact
      would be pure jitter, while the projection stays stable.

    The traced run must reproduce the plain trajectory bit for bit.
    """
    import tempfile

    from repro.obs.export import load_trace_records
    from repro.obs.trace import span

    base = dict(iterations=iterations, seed=0, solver="direct")
    runs: dict = {}
    failures: list[str] = []
    spans_per_iter = 0.0
    with tempfile.TemporaryDirectory() as tmpdir:
        for round_index in range(rounds):
            for mode in ("plain", "traced"):
                reset_shared_workspace()
                device = make_device("bending")
                kwargs = dict(base)
                if mode == "traced":
                    kwargs.update(
                        trace_dir=str(Path(tmpdir) / f"round{round_index}"),
                        trace_format="jsonl,chrome",
                    )
                optimizer = Boson1Optimizer(device, OptimizerConfig(**kwargs))
                t0 = time.perf_counter()
                result = optimizer.run()
                elapsed = time.perf_counter() - t0
                optimizer.close()
                if mode not in runs or elapsed < runs[mode][0]:
                    runs[mode] = (elapsed, result, kwargs.get("trace_dir"))

        t_plain, r_plain, _ = runs["plain"]
        t_traced, r_traced, trace_dir = runs["traced"]

        if not np.array_equal(r_traced.fom_trace(), r_plain.fom_trace()):
            failures.append(
                "tracing perturbed the trajectory: fom traces are not "
                "bitwise equal with and without --trace-dir"
            )

        trace_path = Path(trace_dir) / "trace.jsonl"
        chrome_path = Path(trace_dir) / "trace_chrome.json"
        records = load_trace_records(trace_path)
        spans_per_iter = len(records) / iterations
        if not records:
            failures.append(f"traced run wrote no spans to {trace_path}")
        chrome = json.loads(chrome_path.read_text())
        if not isinstance(chrome.get("traceEvents"), list) or not all(
            e.get("ph") == "X" and "ts" in e and "dur" in e
            for e in chrome["traceEvents"]
        ):
            failures.append(
                f"{chrome_path} is not valid Chrome trace-event JSON"
            )

    # Disabled fast path: no tracer is installed at this point (the
    # traced runs above closed their sessions), so this times the no-op
    # branch every instrumented site pays on an untraced run.
    n_calls = 200_000
    t0 = time.perf_counter()
    for _ in range(n_calls):
        with span("bench.noop"):
            pass
    noop_s = (time.perf_counter() - t0) / n_calls
    disabled_pct = (
        100.0 * noop_s * spans_per_iter / (t_plain / iterations)
        if t_plain
        else 0.0
    )

    overhead = t_traced / t_plain
    if overhead > 1.05:
        failures.append(
            f"tracing overhead blew past the 5% gate: "
            f"{t_traced / iterations:.4f} s/iter with --trace-dir vs. "
            f"{t_plain / iterations:.4f} s/iter without "
            f"({overhead:.3f}x, gate 1.05x)"
        )
    if disabled_pct > 1.0:
        failures.append(
            f"disabled span sites cost too much: {noop_s * 1e9:.0f} ns "
            f"per site x {spans_per_iter:.0f} sites/iter projects to "
            f"{disabled_pct:.2f}% of an iteration (gate 1%)"
        )
    report = {
        "device": "bending",
        "iterations": iterations,
        "plain_s_per_iter": t_plain / iterations,
        "traced_s_per_iter": t_traced / iterations,
        "overhead_vs_plain": overhead,
        "overhead_pct_per_iter": (overhead - 1.0) * 100.0,
        "spans_per_iteration": round(spans_per_iter, 1),
        "noop_span_ns": noop_s * 1e9,
        "disabled_projected_pct_per_iter": disabled_pct,
        "trajectory_bitwise_equal": bool(
            np.array_equal(r_traced.fom_trace(), r_plain.fom_trace())
        ),
    }
    return report, failures


def bench_montecarlo(pattern: np.ndarray, n_samples: int) -> dict:
    device = make_device("bending")
    process = FabricationProcess(
        device.design_shape,
        device.dl,
        context=device.litho_context(12),
        pad=12,
    )

    previous = set_default_factor_options(FactorOptions.reference())
    try:
        device.configure_simulation_cache(False)
        t0 = time.perf_counter()
        r_seed = evaluate_post_fab(
            device, process, pattern, n_samples=n_samples, seed=1234
        )
        t_seed = time.perf_counter() - t0
    finally:
        set_default_factor_options(previous)

    device.configure_simulation_cache(True, SimulationWorkspace())
    t0 = time.perf_counter()
    r_warm = evaluate_post_fab(
        device, process, pattern, n_samples=n_samples, seed=1234
    )
    t_warm = time.perf_counter() - t0
    assert np.allclose(r_seed.foms, r_warm.foms, atol=1e-6)
    return {
        "n_samples": n_samples,
        "seed_equivalent_s": t_seed,
        "cached_s": t_warm,
        "speedup": t_seed / t_warm,
    }


def compare_with_baseline(iteration: dict, baseline_path: Path) -> list[str]:
    """Regression gates against the PR 2 numbers.  Returns failures.

    Every gate carries noise head-room: wall-clock jitter on a shared
    1-core box is easily 10%, and a regression gate that cries wolf on a
    healthy run is worse than none.  The *recorded* numbers in the JSON
    are the evidence of the actual margins; the gates only catch real
    regressions.
    """
    failures: list[str] = []
    direct = iteration["backends"]["direct"]["s_per_iter"]
    krylov = iteration["backends"]["krylov"]["s_per_iter"]
    # Same-run comparisons are jitter-resistant (both runs see the same
    # ambient load); 5% head-room covers scheduling noise.
    if krylov >= 1.05 * direct:
        failures.append(
            f"krylov ({krylov:.4f} s/iter) regressed against the same-run "
            f"warm direct path ({direct:.4f} s/iter, 5% head-room)"
        )
    if not baseline_path.exists():
        print(
            f"note: no baseline at {baseline_path}; skipping baseline "
            "comparison"
        )
        return failures
    baseline = json.loads(baseline_path.read_text())
    base_backends = baseline["iteration"]["backends"]
    base_direct = base_backends["direct"]["s_per_iter"]
    base_krylov = base_backends["krylov"]["s_per_iter"]
    # Cross-run absolute comparisons get 25% head-room.
    if direct > 1.25 * base_direct:
        failures.append(
            f"warm direct path regressed: {direct:.4f} s/iter vs. "
            f"baseline's {base_direct:.4f} s/iter (25% head-room)"
        )
    if krylov > 1.25 * base_krylov:
        failures.append(
            f"scalar krylov regressed: {krylov:.4f} s/iter vs. "
            f"baseline's {base_krylov:.4f} s/iter (25% head-room)"
        )
    return failures


def _print_iteration_report(iteration: dict) -> None:
    print(f"  seed_equivalent_s_per_iter: {iteration['seed_equivalent_s_per_iter']:.4f}")
    for backend, entry in iteration["backends"].items():
        print(
            f"  {backend:8s}: {entry['s_per_iter']:.4f} s/iter  "
            f"(x{entry['speedup_vs_seed']:.2f} vs seed, "
            f"x{entry['speedup_vs_direct']:.2f} vs direct, "
            f"{entry['factorizations']} factorizations)"
        )
        caches = entry["caches"]
        rates = ", ".join(
            f"{name} {caches[name]['hit_rate_pct']:.1f}% "
            f"({caches[name]['hits']}/{caches[name]['hits'] + caches[name]['misses']})"
            for name in ("assemblies", "factorizations", "modes")
        )
        print(f"            cache hit rates: {rates}")
        if backend == "krylov":
            print(
                f"            krylov: {entry['krylov_solves']} solves, "
                f"{entry['mean_krylov_iterations']} sweeps/solve, "
                f"{entry['fallbacks']} fallbacks"
            )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--iterations", type=int, default=8)
    parser.add_argument("--mc-samples", type=int, default=8)
    parser.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_PR10.json")
    )
    parser.add_argument(
        "--baseline",
        default=str(REPO_ROOT / "BENCH_PR9.json"),
        help="previous PR's benchmark JSON to regression-check against",
    )
    parser.add_argument(
        "--skip-pytest-bench",
        action="store_true",
        help="skip the pytest-benchmark substrate/workspace groups",
    )
    args = parser.parse_args(argv)

    print("== solver construction ==")
    solver = bench_solver()
    for key, value in solver.items():
        print(f"  {key}: {value if isinstance(value, list) else round(value, 3)}")

    print("== optimizer iteration per backend (bending, fab corners on) ==")
    iteration, pattern = bench_iteration(args.iterations)
    _print_iteration_report(iteration)

    print("== Monte-Carlo evaluation ==")
    montecarlo = bench_montecarlo(pattern, args.mc_samples)
    for key, value in montecarlo.items():
        print(f"  {key}: {round(value, 4)}")

    print("== process corner fan-out (taped, forward replay) ==")
    process, process_failures = bench_process(args.iterations)
    for key, value in process.items():
        print(
            f"  {key}: "
            f"{round(value, 4) if isinstance(value, float) else value}"
        )

    print("== remote corner fan-out (2 loopback worker servers) ==")
    remote, remote_failures = bench_remote(args.iterations)
    for key, value in remote.items():
        print(
            f"  {key}: "
            f"{round(value, 4) if isinstance(value, float) else value}"
        )

    print("== checkpoint overhead (crash-safe, every iteration) ==")
    checkpoint, checkpoint_failures = bench_checkpoint(args.iterations)
    for key, value in checkpoint.items():
        print(
            f"  {key}: "
            f"{round(value, 4) if isinstance(value, float) else value}"
        )

    print("== serve daemon overhead (submit + watch vs direct run) ==")
    serve, serve_failures = bench_serve(args.iterations)
    for key, value in serve.items():
        print(
            f"  {key}: "
            f"{round(value, 4) if isinstance(value, float) else value}"
        )

    print("== tracing overhead (full spans + JSONL + Chrome export) ==")
    tracing, tracing_failures = bench_tracing(args.iterations)
    for key, value in tracing.items():
        print(
            f"  {key}: "
            f"{round(value, 4) if isinstance(value, float) else value}"
        )

    failures = compare_with_baseline(iteration, Path(args.baseline))
    failures.extend(process_failures)
    failures.extend(remote_failures)
    failures.extend(checkpoint_failures)
    failures.extend(serve_failures)
    failures.extend(tracing_failures)

    payload = {
        "benchmark": (
            "PR10 design-job daemon (repro serve) with restart-safe queue"
        ),
        "meta": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "hostname": platform.node(),
            "cpu_count": os.cpu_count(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        },
        "solver": solver,
        "iteration": iteration,
        "montecarlo": montecarlo,
        "process": process,
        "remote": remote,
        "checkpoint": checkpoint,
        "serve": serve,
        "tracing": tracing,
        "regressions": failures,
    }
    out_path = Path(args.output)
    atomic_write_json(out_path, payload, fsync=False)
    print(f"\nwrote {out_path}")

    if failures:
        print("\n*** REGRESSION ***", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1

    if not args.skip_pytest_bench:
        cmd = [
            sys.executable,
            "-m",
            "pytest",
            "-m",
            "slow",
            "-q",
            str(REPO_ROOT / "benchmarks" / "test_solver_performance.py"),
            str(REPO_ROOT / "benchmarks" / "test_workspace_cache.py"),
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        )
        print("\nrunning pytest benchmark groups...")
        return subprocess.call(cmd, cwd=REPO_ROOT, env=env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
