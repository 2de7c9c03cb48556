"""Executor backends, deterministic fan-out, and cached-trajectory identity.

Three contracts under test:

1. **Backend independence** — serial / thread executors give
   bit-identical results for the engine loss, full optimization
   trajectories and Monte-Carlo evaluation, for any worker count; the
   process executor (which replays only forward solves in workers and
   reassembles the taped VJPs in the parent) matches to solver
   precision, for every registered solver backend.
2. **Cache independence** — a full ``Boson1Optimizer`` run with the
   simulation cache on matches the cold rebuild-everything path
   bit-for-bit (same seed => identical ``fom_trace``), for both
   parameterizations and across temperature (``alpha_bg``) corners.
3. **Stats exactness** — ``SolveStats`` counters stay exact under
   simultaneous solves from a thread pool, and worker-side deltas merge
   exactly across a process fan-out.
"""

import functools
import os
import pickle
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.core import Boson1Optimizer, OptimizerConfig
from repro.core.engine import _corner_forward_task
from repro.core.executors import (
    EXECUTOR_BACKENDS,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    make_executor,
    resolve_worker_count,
    stable_worker_token,
    task_in_parent,
    worker_warm,
)
from repro.devices import make_device
from repro.eval import evaluate_post_fab
from repro.fab.process import FabricationProcess
from repro.fdfd import HelmholtzSolver, SimGrid, SimulationWorkspace
from repro.fdfd.linalg import SolveStats
from repro.params import rasterize_segments
from repro.utils.constants import omega_from_wavelength


def _square(x):
    return x * x


class TestMakeExecutor:
    def test_default_is_serial(self):
        assert isinstance(make_executor(None), SerialExecutor)
        assert isinstance(make_executor("serial"), SerialExecutor)

    def test_backend_selection(self):
        assert isinstance(make_executor("thread"), ThreadExecutor)
        assert isinstance(make_executor("process"), ProcessExecutor)

    def test_worker_count_suffix(self):
        ex = make_executor("thread:3")
        assert isinstance(ex, ThreadExecutor)
        assert ex.max_workers == 3

    def test_explicit_worker_count(self):
        assert make_executor("thread", max_workers=2).max_workers == 2

    def test_passthrough_instance(self):
        ex = SerialExecutor()
        assert make_executor(ex) is ex

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            make_executor("gpu")
        with pytest.raises(ValueError):
            make_executor("thread:zero")
        with pytest.raises(ValueError):
            make_executor("thread:0")

    def test_registry_names(self):
        assert set(EXECUTOR_BACKENDS) == {
            "serial",
            "thread",
            "process",
            "remote",
        }


class TestMapOrdered:
    @pytest.mark.parametrize("spec", ["serial", "thread:2", "thread:5"])
    def test_order_preserved(self, spec):
        items = list(range(20))
        with make_executor(spec) as ex:
            assert ex.map_ordered(_square, items) == [i * i for i in items]

    def test_thread_results_match_serial_under_jitter(self):
        def jittery(i):
            time.sleep(0.002 * (5 - i % 5))  # finish out of order
            return i * 10

        items = list(range(10))
        serial = SerialExecutor().map_ordered(jittery, items)
        with make_executor("thread:4") as ex:
            assert ex.map_ordered(jittery, items) == serial

    def test_process_backend(self):
        with make_executor("process:2") as ex:
            assert ex.map_ordered(_square, [1, 2, 3]) == [1, 4, 9]

    def test_pool_reusable_after_shutdown(self):
        ex = make_executor("thread:2")
        assert ex.map_ordered(_square, [2, 3]) == [4, 9]
        ex.shutdown()
        assert ex.map_ordered(_square, [4]) == [16]
        ex.shutdown()


def _pid_of(_item):
    return os.getpid()


class TestWorkerAutoTuning:
    """`process`/`remote` specs without a count pick min(n_items, available)."""

    def test_resolution_rules(self):
        assert resolve_worker_count(None, 8, 4) == 4
        assert resolve_worker_count(None, 3, 16) == 3
        assert resolve_worker_count(None, 0, 4) == 1  # floor at one
        assert resolve_worker_count(5, 2, 1) == 5  # explicit always wins

    def test_process_auto_resolves_to_item_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        ex = make_executor("process")
        assert ex.max_workers is None
        assert ex._resolve_workers(2) == 2
        assert ex._resolve_workers(9) == 4

    def test_explicit_count_not_auto_tuned(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        ex = make_executor("process:2")
        assert ex._resolve_workers(9) == 2

    def test_process_auto_runs_inline_on_one_core(self, monkeypatch):
        """The 1-core inline-parent path: a lone forked worker would be
        pure fork/pickle overhead, so the auto-tuned pool degenerates to
        the parent loop — every result carries the parent's pid and no
        pool is ever created."""
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        ex = make_executor("process")
        assert ex.map_ordered(_pid_of, range(4)) == [os.getpid()] * 4
        assert ex._pool is None
        ex.shutdown()

    def test_explicit_process_count_still_forks_on_one_core(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        with make_executor("process:2") as ex:
            pids = set(ex.map_ordered(_pid_of, range(4)))
        assert os.getpid() not in pids

    def test_live_pool_size_sticks_until_shutdown(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        ex = make_executor("thread")
        ex.map_ordered(_square, range(6))
        first = ex._pool_workers
        ex.map_ordered(_square, range(2))
        assert ex._pool_workers == first
        ex.shutdown()
        assert ex._pool_workers is None

    def test_engine_auto_process_inline_matches_serial(self, monkeypatch, bend):
        """On a single-core box `--executor process` (no count) is a
        safe default: it degrades to the serial path bit for bit, with
        no forked workers to pay for."""
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        serial = _run(bend, corner_executor="serial")
        auto = _run(bend, corner_executor="process")
        assert np.array_equal(serial.fom_trace(), auto.fom_trace())
        assert np.array_equal(serial.pattern, auto.pattern)

    def test_inline_auto_process_reports_no_worker_pids(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        device = make_device("bending")
        opt = Boson1Optimizer(
            device,
            OptimizerConfig(iterations=1, seed=1, corner_executor="process"),
        )
        opt.run()
        opt.close()
        assert opt.observed_worker_pids == set()


class TestWorkerTokenIdentity:
    def test_token_identifies_minting_process(self):
        import types

        token = stable_worker_token(types.SimpleNamespace())
        assert task_in_parent(token)

    def test_bare_pid_prefix_is_not_mistaken_for_parent(self):
        """Remote hosts can collide on pid; the per-process nonce in the
        token prefix keeps task_in_parent from treating a foreign token
        as local (which would silently skip warm-pooling and drop stats
        deltas)."""
        assert not task_in_parent(f"{os.getpid()}:0")
        assert not task_in_parent(f"{os.getpid()}.deadbeef:0")


class TestConfigValidation:
    def test_engine_accepts_serial_and_thread(self):
        OptimizerConfig(corner_executor="serial")
        OptimizerConfig(corner_executor="thread:2")

    def test_engine_accepts_process(self):
        # The forward-replay fan-out made the process backend legal for
        # taped corner losses.
        OptimizerConfig(corner_executor="process")
        OptimizerConfig(corner_executor="process:2")

    def test_engine_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            OptimizerConfig(corner_executor="mpi")

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            OptimizerConfig(executor_workers=0)


@pytest.fixture(scope="module")
def bend():
    return make_device("bending")


def _run(device, **overrides):
    base = dict(iterations=2, seed=11)
    base.update(overrides)
    opt = Boson1Optimizer(device, OptimizerConfig(**base))
    result = opt.run()
    opt.close()
    return result


class TestEngineDeterminism:
    def test_thread_matches_serial_bitwise(self, bend):
        serial = _run(bend, corner_executor="serial")
        threaded = _run(bend, corner_executor="thread:4")
        assert np.array_equal(serial.fom_trace(), threaded.fom_trace())
        assert np.array_equal(serial.loss_trace(), threaded.loss_trace())
        assert np.array_equal(serial.pattern, threaded.pattern)

    def test_worker_count_irrelevant(self, bend):
        two = _run(bend, corner_executor="thread:2")
        five = _run(bend, corner_executor="thread:5")
        assert np.array_equal(two.loss_trace(), five.loss_trace())

    def test_n_corners_reports_actual_count(self, bend):
        result = _run(bend, sampling="axial+worst")
        # axial (7, including nominal) + the worst-finder corner.
        assert all(r.n_corners == 8 for r in result.history)
        result = _run(bend, sampling="nominal")
        assert all(r.n_corners == 1 for r in result.history)

    def test_n_corners_zero_without_fab(self, bend):
        result = _run(bend, use_fab=False)
        assert all(r.n_corners == 0 for r in result.history)


class TestTrajectoryCacheIdentity:
    """Satellite: warm trajectories must equal the cold path bit-for-bit."""

    @pytest.mark.parametrize("parameterization", ["levelset", "density"])
    def test_cold_equals_warm(self, parameterization):
        results = []
        for cached in (True, False):
            device = make_device("bending")
            device.configure_simulation_cache(cached, SimulationWorkspace())
            cfg = OptimizerConfig(
                iterations=2,
                seed=5,
                parameterization=parameterization,
                simulation_cache=cached,
            )
            opt = Boson1Optimizer(device, cfg)
            results.append(opt.run())
        warm, cold = results
        assert np.array_equal(warm.fom_trace(), cold.fom_trace())
        assert np.array_equal(warm.loss_trace(), cold.loss_trace())
        assert np.array_equal(warm.theta, cold.theta)
        assert np.array_equal(warm.pattern, cold.pattern)

    def test_cold_equals_warm_across_temperature_corners(self):
        # axial sampling exercises alpha_bg != 1 calibrations each iteration
        results = []
        for cached in (True, False):
            device = make_device("bending")
            device.configure_simulation_cache(cached, SimulationWorkspace())
            cfg = OptimizerConfig(
                iterations=2,
                seed=3,
                sampling="axial",
                t_delta=30.0,
                simulation_cache=cached,
            )
            results.append(Boson1Optimizer(device, cfg).run())
        assert np.array_equal(results[0].loss_trace(), results[1].loss_trace())
        assert np.array_equal(results[0].pattern, results[1].pattern)


class TestMonteCarloExecutors:
    @pytest.fixture(scope="class")
    def mc_setup(self):
        device = make_device("bending")
        process = FabricationProcess(
            device.design_shape,
            device.dl,
            context=device.litho_context(12),
            pad=12,
        )
        pattern = rasterize_segments(
            device.design_shape, device.dl, device.init_segments()
        )
        return device, process, pattern

    def test_thread_matches_serial(self, mc_setup):
        device, process, pattern = mc_setup
        serial = evaluate_post_fab(device, process, pattern, 4, seed=2)
        threaded = evaluate_post_fab(
            device, process, pattern, 4, seed=2, executor="thread:3"
        )
        assert np.array_equal(serial.foms, threaded.foms)
        assert serial.mean_powers == threaded.mean_powers

    def test_process_matches_serial(self, mc_setup):
        device, process, pattern = mc_setup
        serial = evaluate_post_fab(device, process, pattern, 3, seed=2)
        multiproc = evaluate_post_fab(
            device, process, pattern, 3, seed=2, executor="process:2"
        )
        assert np.array_equal(serial.foms, multiproc.foms)

    def test_executor_instance_reused_not_shut_down(self, mc_setup):
        device, process, pattern = mc_setup
        ex = make_executor("thread:2")
        a = evaluate_post_fab(device, process, pattern, 3, seed=2, executor=ex)
        b = evaluate_post_fab(device, process, pattern, 3, seed=2, executor=ex)
        assert np.array_equal(a.foms, b.foms)
        ex.shutdown()

    def test_worst_fom_polarity(self, mc_setup):
        device, process, pattern = mc_setup
        report = evaluate_post_fab(device, process, pattern, 4, seed=2)
        assert not report.fom_lower_is_better
        assert report.worst_fom == float(np.min(report.foms))
        assert report.best_fom == float(np.max(report.foms))

    def test_worst_fom_lower_is_better(self, mc_setup):
        from repro.eval import RobustnessReport

        report = RobustnessReport(
            foms=np.array([0.1, 0.5, 0.3]),
            mean_powers={},
            fom_lower_is_better=True,
        )
        assert report.worst_fom == 0.5
        assert report.best_fom == 0.1


# --------------------------------------------------------------------- #
# Process-pool taped corner fan-out (forward replay + VJP assembly)     #
# --------------------------------------------------------------------- #
ALL_BACKENDS = ("direct", "batched", "krylov")
#: Tolerance of process-vs-serial comparisons per backend: LU-backed
#: backends differ only in adjoint recombination (per-port basis solves
#: instead of one aggregated solve — machine-epsilon territory);
#: preconditioned backends additionally anchor per worker chunk.
PROCESS_TOL = {
    "direct": dict(rtol=1e-9, atol=1e-12),
    "batched": dict(rtol=1e-9, atol=1e-12),
    "krylov": dict(rtol=1e-5, atol=1e-7),
}


def _loss_and_grad(device_name, executor, backend="direct"):
    """One taped loss + backward; returns (loss, grad, worker pids)."""
    device = make_device(device_name)
    opt = Boson1Optimizer(
        device,
        OptimizerConfig(
            iterations=1, seed=11, corner_executor=executor, solver=backend
        ),
    )
    theta = Tensor(np.array(opt.theta, dtype=np.float64), requires_grad=True)
    loss, _powers, n_corners = opt.loss(theta, 0)
    loss.backward()
    opt.close()
    assert n_corners > 0
    return loss.item(), theta.grad.copy(), set(opt.observed_worker_pids)


def _trace(device_name, executor, backend, iterations=2):
    device = make_device(device_name)
    opt = Boson1Optimizer(
        device,
        OptimizerConfig(
            iterations=iterations,
            seed=11,
            corner_executor=executor,
            solver=backend,
        ),
    )
    result = opt.run()
    opt.close()
    return result


class TestProcessTapedFanout:
    @pytest.mark.parametrize("device_name", ["bending", "crossing", "isolator"])
    def test_loss_and_grad_match_serial(self, device_name):
        l_serial, g_serial, no_pids = _loss_and_grad(device_name, "serial")
        assert not no_pids  # in-process executors report no worker pids
        l_proc, g_proc, pids = _loss_and_grad(device_name, "process:2")
        assert l_proc == pytest.approx(l_serial, rel=1e-10, abs=1e-12)
        scale = max(float(np.linalg.norm(g_serial)), 1e-30)
        assert float(np.linalg.norm(g_proc - g_serial)) <= 1e-9 * scale
        # Forked workers actually carried the solves.
        assert len(pids) >= 2
        assert os.getpid() not in pids

    def test_task_payloads_pickle_clean(self):
        """The exact objects the engine ships must survive pickling."""
        device = make_device("bending")
        opt = Boson1Optimizer(
            device,
            OptimizerConfig(iterations=1, seed=3, corner_executor="process:2"),
        )
        rho = opt.decode(Tensor(np.array(opt.theta), requires_grad=True))
        corners = opt.sampler.corners(0, opt.rng, None)
        from repro.fab.temperature import alpha_of_temperature

        items = [
            (
                alpha_of_temperature(c.temperature_k),
                np.asarray(opt.process.apply(rho, c).data, dtype=np.float64),
            )
            for c in corners[:2]
        ]
        task = functools.partial(
            _corner_forward_task,
            stable_worker_token(device, ":design"),
            device,
            1,
            False,
        )
        task2, items2 = pickle.loads(pickle.dumps((task, items)))
        # The round-tripped task runs and its result pickles too.  Run
        # here in the minting parent it takes the inline path, which
        # reports no worker pid (and an empty stats delta).
        summary, delta, pid, obs = task2(items2[0])
        assert pid is None
        assert obs is None
        assert isinstance(delta, dict)
        roundtrip = pickle.loads(pickle.dumps(summary))
        assert [s.direction for s in roundtrip.directions] == ["fwd"]
        opt.close()

    def test_precomputed_summary_rejects_wrong_pattern(self):
        device = make_device("bending")
        pattern = rasterize_segments(
            device.design_shape, device.dl, device.init_segments()
        )
        summary = device.solve_forward_summary(pattern, 1.0)
        other = pattern.copy()
        other[5, 5] += 0.25
        with pytest.raises(ValueError, match="different pattern"):
            device.port_powers_precomputed(
                Tensor(other, requires_grad=True), summary
            )

    def test_precomputed_summary_rejects_wrong_alpha(self):
        # The same design array solved at a different background
        # temperature is a different system; the digest alone cannot
        # tell them apart, so the alpha pin must.
        device = make_device("bending")
        pattern = rasterize_segments(
            device.design_shape, device.dl, device.init_segments()
        )
        summary = device.solve_forward_summary(pattern, 1.0)
        with pytest.raises(ValueError, match="alpha_bg"):
            device.port_powers_precomputed(
                Tensor(pattern.copy(), requires_grad=True),
                summary,
                alpha_bg=0.995,
            )

    def test_precomputed_matches_taped_powers_and_grad(self):
        """The seam itself: summary-injected op vs the in-process op."""
        device = make_device("bending")
        pattern = rasterize_segments(
            device.design_shape, device.dl, device.init_segments()
        )

        def total_of(powers_fn, rho):
            powers = powers_fn(rho)
            total = None
            for d in device.directions:
                for p in powers[d].values():
                    total = p if total is None else total + p
            return total

        rho_a = Tensor(pattern.copy(), requires_grad=True)
        total_a = total_of(lambda r: device.port_powers_all(r, 1.0), rho_a)
        total_a.backward()

        summary = device.solve_forward_summary(pattern, 1.0)
        rho_b = Tensor(pattern.copy(), requires_grad=True)
        total_b = total_of(
            lambda r: device.port_powers_precomputed(r, summary), rho_b
        )
        total_b.backward()

        assert total_b.item() == pytest.approx(total_a.item(), rel=1e-12)
        np.testing.assert_allclose(
            rho_b.grad, rho_a.grad, rtol=1e-9, atol=1e-14
        )

    def test_worker_warm_pool_caches_and_bounds(self):
        import types

        from repro.core.executors import _WORKER_STATE_MAX

        sentinel_a, sentinel_b = object(), object()
        token = stable_worker_token(types.SimpleNamespace())
        assert worker_warm(token + ":x", sentinel_a) is sentinel_a
        # Second call returns the cached instance, not the fresh value.
        assert worker_warm(token + ":x", sentinel_b) is sentinel_a
        # LRU bound: flooding the pool with fresh tokens evicts the
        # oldest entry, so a later call re-seeds with the new value.
        for i in range(_WORKER_STATE_MAX):
            worker_warm(f"{token}:flood-{i}", object())
        assert worker_warm(token + ":x", sentinel_b) is sentinel_b

    def test_reconfigured_device_mints_fresh_worker_token(self):
        """configure_simulation_cache invalidates the warm-pool key.

        A reused process pool would otherwise keep serving the cached
        worker copy with the old workspace/backend after the caller
        reconfigured the device.
        """
        device = make_device("bending")
        before = stable_worker_token(device)
        device.configure_simulation_cache(True, SimulationWorkspace())
        after = stable_worker_token(device)
        assert after != before

    def test_wavelength_clone_mints_fresh_worker_token(self):
        """at_wavelength clones must not inherit the base's token.

        A reused process pool would otherwise serve the warm-cached base
        device (wrong omega) for every clone solve.
        """
        device = make_device("bending")
        base_token = stable_worker_token(device)
        clone = device.at_wavelength(1.6)
        assert stable_worker_token(clone) != base_token

    def test_calibration_cache_thread_safe_under_hits_and_eviction(self):
        """The LRU recency touch mutates on cache hits; hammer it.

        Threads repeatedly hit one hot key while others churn fresh
        alphas through a tiny bound, forcing concurrent touch/insert/
        evict interleavings — any KeyError here is the race the lock
        exists to prevent.
        """
        device = make_device("bending")
        device._calibration_cache.maxsize = 2
        device.calibration("fwd", 1.0)
        errors = []

        def hot(_i):
            try:
                for _ in range(25):
                    device.calibration("fwd", 1.0)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def churn(i):
            try:
                for j in range(4):
                    device.calibration("fwd", 1.0 - 1e-5 * (1 + i * 4 + j))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        with ThreadPoolExecutor(max_workers=6) as pool:
            for i in range(3):
                pool.submit(hot, i)
                pool.submit(churn, i)
        assert errors == []
        assert len(device._calibration_cache) <= 2

    def test_calibration_cache_bounded_and_dropped_from_pickle(self):
        """Warm-pooled devices must not grow without bound.

        Monte-Carlo workloads mint one (direction, alpha) calibration
        per temperature draw; the LRU bound caps what a long-lived
        (worker-warm) device pins, and pickles ship without the cache so
        per-chunk payloads stay lean.
        """
        device = make_device("bending")
        device._calibration_cache.maxsize = 3  # keep it fast
        for i in range(5):
            device.calibration("fwd", 1.0 - 1e-4 * i)
        assert len(device._calibration_cache) == 3
        # Recency refresh: touching the oldest survivor keeps it alive.
        survivor = ("fwd", round(1.0 - 2e-4, 9))
        assert survivor in device._calibration_cache
        device.calibration(survivor[0], survivor[1])
        device.calibration("fwd", 0.5)
        assert survivor in device._calibration_cache
        clone = pickle.loads(pickle.dumps(device))
        assert len(clone._calibration_cache) == 0

    def test_stable_worker_token_is_sticky_and_unique(self):
        a, b = make_device("bending"), make_device("bending")
        assert stable_worker_token(a) == stable_worker_token(a)
        assert stable_worker_token(a) != stable_worker_token(b)
        assert stable_worker_token(a, ":eval") != stable_worker_token(a)


class TestCrossExecutorDeterminism:
    """fom_trace agreement across executors x workers x solver backends."""

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_thread_matches_serial(self, backend):
        serial = _trace("bending", "serial", backend)
        threaded = _trace("bending", "thread:2", backend)
        if backend in ("direct", "batched"):
            # Shared memory + LU-backed solves: bit-identical.
            assert np.array_equal(serial.fom_trace(), threaded.fom_trace())
            assert np.array_equal(serial.pattern, threaded.pattern)
        else:
            # Preconditioned backends: fallback anchors arrive in
            # scheduling order, so agreement is to solver precision.
            np.testing.assert_allclose(
                threaded.fom_trace(),
                serial.fom_trace(),
                **PROCESS_TOL[backend],
            )

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_process_matches_serial(self, backend):
        serial = _trace("bending", "serial", backend)
        proc = _trace("bending", "process:2", backend)
        np.testing.assert_allclose(
            proc.fom_trace(), serial.fom_trace(), **PROCESS_TOL[backend]
        )
        np.testing.assert_allclose(
            proc.loss_trace(), serial.loss_trace(), **PROCESS_TOL[backend]
        )

    @pytest.mark.parametrize("backend", ["direct", "krylov"])
    def test_process_worker_count_consistent(self, backend):
        two = _trace("bending", "process:2", backend)
        three = _trace("bending", "process:3", backend)
        if backend == "direct":
            # Per-corner work is chunk-independent and deterministic.
            assert np.array_equal(two.fom_trace(), three.fom_trace())
        else:
            np.testing.assert_allclose(
                three.fom_trace(), two.fom_trace(), **PROCESS_TOL[backend]
            )

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_process_gradients_match_serial(self, backend):
        _, g_serial, _ = _loss_and_grad("bending", "serial", backend)
        _, g_proc, pids = _loss_and_grad("bending", "process:2", backend)
        assert len(pids) >= 2
        tol = 1e-9 if backend in ("direct", "batched") else 1e-4
        scale = max(float(np.linalg.norm(g_serial)), 1e-30)
        assert float(np.linalg.norm(g_proc - g_serial)) <= tol * scale


class TestSolveStatsConcurrencyAndMerge:
    def test_counters_exact_under_concurrent_add(self):
        stats = SolveStats()
        n_threads, n_bumps = 8, 250

        def bump(_i):
            for _ in range(n_bumps):
                stats.add(solves=1, iterations=2)

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            list(pool.map(bump, range(n_threads)))
        counts = stats.as_dict()
        assert counts["solves"] == n_threads * n_bumps
        assert counts["iterations"] == 2 * n_threads * n_bumps

    def test_counters_exact_under_simultaneous_solves(self):
        grid = SimGrid((40, 36), dl=0.05, npml=8)
        omega = omega_from_wavelength(1.55)
        rng = np.random.default_rng(0)
        eps = 1.0 + 11.0 * rng.uniform(size=grid.shape)
        ws = SimulationWorkspace()
        solver = HelmholtzSolver(grid, eps, omega, workspace=ws)
        before = ws.solver_stats.as_dict()
        b = rng.standard_normal(grid.n_cells) + 0j
        n_threads, n_solves = 6, 5

        def hammer(_i):
            for _ in range(n_solves):
                solver.solve_raw(b)

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            list(pool.map(hammer, range(n_threads)))
        delta = ws.solver_stats.delta_since(before)
        assert delta["solves"] == n_threads * n_solves
        assert delta["rhs_columns"] == n_threads * n_solves
        assert "factorizations" not in delta  # cached LU, no refactor

    def test_delta_since_and_merge_roundtrip(self):
        stats = SolveStats()
        stats.add(factorizations=2, solves=5)
        base = stats.as_dict()
        stats.add(solves=3, iterations=7)
        delta = stats.delta_since(base)
        assert delta == {"solves": 3, "iterations": 7}
        other = SolveStats()
        other.merge(delta)
        assert other.as_dict()["solves"] == 3
        assert other.as_dict()["iterations"] == 7
        assert other.as_dict()["factorizations"] == 0

    def test_merge_rejects_unknown_counters(self):
        with pytest.raises(ValueError, match="unknown solve-stat"):
            SolveStats().merge({"gpu_kernels": 1})

    def test_process_eval_merges_worker_stats_exactly(self):
        """Parent stats after a process fan-out == the serial run's.

        Every Monte-Carlo sample draws its own temperature, so each
        (direction, alpha) calibration is solved exactly once whether it
        happens in the parent or in a worker — the merged totals must
        therefore reproduce the serial count exactly for the direct
        backend.
        """
        pattern = None
        totals = {}
        for executor in ("serial", "process:2"):
            device = make_device("bending")
            device.configure_simulation_cache(True, SimulationWorkspace())
            process = FabricationProcess(
                device.design_shape,
                device.dl,
                context=device.litho_context(12),
                pad=12,
            )
            if pattern is None:
                pattern = rasterize_segments(
                    device.design_shape, device.dl, device.init_segments()
                )
            evaluate_post_fab(
                device, process, pattern, 4, seed=2, executor=executor
            )
            totals[executor] = device.workspace.stats()["solver"]
        assert totals["process:2"] == totals["serial"]

    def test_single_sample_process_eval_does_not_double_count(self):
        """n_samples=1 short-circuits to an inline call in the parent.

        The task must then return an empty delta (the live parent
        workspace already counted the work), or the merge would report
        exactly double.
        """
        pattern = None
        totals = {}
        for executor in ("serial", "process:2"):
            device = make_device("bending")
            device.configure_simulation_cache(True, SimulationWorkspace())
            process = FabricationProcess(
                device.design_shape,
                device.dl,
                context=device.litho_context(12),
                pad=12,
            )
            if pattern is None:
                pattern = rasterize_segments(
                    device.design_shape, device.dl, device.init_segments()
                )
            evaluate_post_fab(
                device, process, pattern, 1, seed=2, executor=executor
            )
            totals[executor] = device.workspace.stats()["solver"]
        assert totals["process:2"] == totals["serial"]

    def test_single_corner_process_run_keeps_stats_exact(self):
        """A one-corner sampler at p=1 fans out a single inline item."""
        totals = {}
        pids = {}
        for executor in ("serial", "process:2"):
            device = make_device("bending")
            device.configure_simulation_cache(True, SimulationWorkspace())
            opt = Boson1Optimizer(
                device,
                OptimizerConfig(
                    iterations=1,
                    seed=1,
                    sampling="nominal",
                    relax_epochs=0,
                    corner_executor=executor,
                ),
            )
            opt.run()
            opt.close()
            totals[executor] = device.workspace.stats()["solver"]
            pids[executor] = opt.observed_worker_pids
        # The forward-replay path legitimately solves a per-port adjoint
        # basis instead of one aggregated adjoint (rhs_columns differ),
        # but factorizations and solve counts must not double-count.
        assert (
            totals["process:2"]["factorizations"]
            == totals["serial"]["factorizations"]
        )
        assert totals["process:2"]["solves"] == totals["serial"]["solves"]
        # The inline run is not fan-out evidence: no pids recorded.
        assert pids["process:2"] == set()

    def test_engine_process_fanout_merges_worker_stats(self):
        device = make_device("bending")
        device.configure_simulation_cache(True, SimulationWorkspace())
        opt = Boson1Optimizer(
            device,
            OptimizerConfig(
                iterations=1, seed=1, corner_executor="process:2"
            ),
        )
        opt.run()
        opt.close()
        stats = device.workspace.stats()["solver"]
        # Workers factorized and solved; the parent saw all of it.
        assert stats["factorizations"] > 0
        assert stats["solves"] > 0
