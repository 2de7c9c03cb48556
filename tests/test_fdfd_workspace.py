"""Cache-correctness tests for the simulation workspace.

The contract of the caching layer is *bit-for-bit* identity: a warm
workspace must return exactly the same matrices, fields, powers and
gradients as the cold rebuild-everything path.  Anything weaker would
silently change optimization trajectories.
"""

import sys
import threading
import weakref

import numpy as np
import pytest

from repro.autodiff import Tensor
from repro.core import Boson1Optimizer, OptimizerConfig
from repro.devices import make_device
from repro.devices.base import PhotonicDevice
from repro.eval import evaluate_post_fab
from repro.fab.process import FabricationProcess
from repro.fdfd import (
    FactorOptions,
    HelmholtzSolver,
    PortPowerProblem,
    PortSpec,
    SimGrid,
    SimulationWorkspace,
    shared_workspace,
    reset_shared_workspace,
)
from repro.fdfd.sources import point_source
from repro.fdfd.workspace import (
    default_factor_options,
    set_default_factor_options,
)
from repro.params import rasterize_segments
from repro.utils.constants import omega_from_wavelength

OMEGA = omega_from_wavelength(1.55)


@pytest.fixture
def grid():
    return SimGrid((40, 36), dl=0.05, npml=8)


@pytest.fixture
def eps(grid):
    rng = np.random.default_rng(3)
    return 1.0 + 11.0 * rng.uniform(size=grid.shape)


class TestAssemblyIdentity:
    def test_system_matrix_bitwise_equal(self, grid, eps):
        cold = HelmholtzSolver(grid, eps, OMEGA, workspace=None)
        warm = HelmholtzSolver(grid, eps, OMEGA, workspace=SimulationWorkspace())
        a, b = cold.system_matrix, warm.system_matrix
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.data, b.data)

    def test_fields_bitwise_equal(self, grid, eps):
        src = point_source(grid, 20, 18)
        cold = HelmholtzSolver(grid, eps, OMEGA, workspace=None).solve(src)
        warm = HelmholtzSolver(
            grid, eps, OMEGA, workspace=SimulationWorkspace()
        ).solve(src)
        assert np.array_equal(cold.ez, warm.ez)
        assert np.array_equal(cold.hx, warm.hx)
        assert np.array_equal(cold.hy, warm.hy)

    def test_transposed_solve_bitwise_equal(self, grid, eps):
        rng = np.random.default_rng(0)
        rhs = rng.standard_normal(grid.n_cells) + 1j * rng.standard_normal(
            grid.n_cells
        )
        cold = HelmholtzSolver(grid, eps, OMEGA, workspace=None)
        warm = HelmholtzSolver(grid, eps, OMEGA, workspace=SimulationWorkspace())
        assert np.array_equal(
            cold.solve_transposed(rhs), warm.solve_transposed(rhs)
        )

    def test_assembly_reused_across_eps(self, grid, eps):
        ws = SimulationWorkspace()
        HelmholtzSolver(grid, eps, OMEGA, workspace=ws)
        HelmholtzSolver(grid, eps + 1.0, OMEGA, workspace=ws)
        stats = ws.stats()
        assert stats["assemblies"]["misses"] == 1
        assert stats["assemblies"]["hits"] == 1
        assert stats["factorizations"]["misses"] == 2

    def test_lu_shared_for_identical_eps(self, grid, eps):
        ws = SimulationWorkspace()
        a = HelmholtzSolver(grid, eps, OMEGA, workspace=ws)
        b = HelmholtzSolver(grid, eps.copy(), OMEGA, workspace=ws)
        assert a._lu is b._lu
        assert ws.stats()["factorizations"]["hits"] == 1

    def test_distinct_omega_distinct_assembly(self, grid, eps):
        ws = SimulationWorkspace()
        HelmholtzSolver(grid, eps, OMEGA, workspace=ws)
        HelmholtzSolver(grid, eps, OMEGA * 1.01, workspace=ws)
        assert ws.stats()["assemblies"]["misses"] == 2

    def test_lru_eviction_bounded(self, grid, eps):
        ws = SimulationWorkspace(max_factorizations=2)
        for i in range(5):
            bumped = eps.copy()
            bumped[0, 0] += i
            HelmholtzSolver(grid, bumped, OMEGA, workspace=ws)
        assert ws.stats()["factorizations"]["size"] <= 2


class TestFactorOptions:
    def test_reference_matches_tuned_to_solver_precision(self, grid, eps):
        src = point_source(grid, 20, 18)
        tuned = HelmholtzSolver(grid, eps, OMEGA, workspace=None).solve(src)
        reference = HelmholtzSolver(
            grid,
            eps,
            OMEGA,
            workspace=None,
            factor_options=FactorOptions.reference(),
        ).solve(src)
        np.testing.assert_allclose(tuned.ez, reference.ez, atol=1e-9, rtol=1e-9)

    def test_default_factor_options_roundtrip(self):
        previous = set_default_factor_options(FactorOptions.reference())
        try:
            assert default_factor_options() == FactorOptions.reference()
        finally:
            set_default_factor_options(previous)
        assert default_factor_options() == previous

    def test_residual_small(self, grid, eps):
        solver = HelmholtzSolver(grid, eps, OMEGA, workspace=None)
        rng = np.random.default_rng(1)
        b = rng.standard_normal(grid.n_cells) + 0j
        x = solver.solve_raw(b)
        residual = np.linalg.norm(solver.system_matrix @ x - b)
        assert residual / np.linalg.norm(b) < 1e-10


class TestPortInfrastructure:
    def _problem(self, grid, workspace):
        ports = [PortSpec("out", "x", 1.7, 0.9, 0.9)]
        source = PortSpec("src", "x", 0.3, 0.9, 0.9)
        return PortPowerProblem(grid, OMEGA, ports, source, workspace=workspace)

    def _guide_eps(self, grid):
        eps = np.ones(grid.shape)
        eps[:, 14:22] = 12.0
        return eps

    def test_infra_solve_matches_per_solve(self, grid):
        eps = self._guide_eps(grid)
        cold = self._problem(grid, None)
        warm = self._problem(grid, SimulationWorkspace())
        infra = warm.prepare(eps)
        sol_cold = cold.solve(eps)
        sol_warm = warm.solve(eps, infra=infra)
        assert sol_cold.amplitudes == sol_warm.amplitudes
        assert sol_cold.raw_powers == sol_warm.raw_powers

    def test_infra_gradients_match(self, grid):
        eps = self._guide_eps(grid)
        cold = self._problem(grid, None)
        warm = self._problem(grid, SimulationWorkspace())
        infra = warm.prepare(eps)
        g_cold = cold.grad_eps(cold.solve(eps), {"out": 1.0})
        g_warm = warm.grad_eps(warm.solve(eps, infra=infra), {"out": 1.0})
        assert np.array_equal(g_cold, g_warm)

    def test_mode_cache_hits(self, grid):
        eps = self._guide_eps(grid)
        ws = SimulationWorkspace()
        problem = self._problem(grid, ws)
        problem.solve(eps)
        problem.solve(eps)
        stats = ws.stats()
        assert stats["modes"]["hits"] >= 2  # src + out on the second solve


class TestDeviceCache:
    @pytest.fixture(scope="class")
    def bend_pattern(self):
        device = make_device("bending")
        return rasterize_segments(
            device.design_shape, device.dl, device.init_segments()
        )

    def test_powers_bitwise_equal_cold_vs_warm(self, bend_pattern):
        warm = make_device("bending")
        warm.configure_simulation_cache(True, SimulationWorkspace())
        cold = make_device("bending")
        cold.configure_simulation_cache(False)
        p_warm = warm.port_powers_array(bend_pattern, "fwd")
        p_cold = cold.port_powers_array(bend_pattern, "fwd")
        assert p_warm == p_cold

    def test_powers_bitwise_equal_across_alpha_bg(self, bend_pattern):
        warm = make_device("bending")
        warm.configure_simulation_cache(True, SimulationWorkspace())
        cold = make_device("bending")
        cold.configure_simulation_cache(False)
        for alpha in (1.0, 0.98):
            assert warm.port_powers_array(
                bend_pattern, "fwd", alpha
            ) == cold.port_powers_array(bend_pattern, "fwd", alpha)

    def test_gradients_bitwise_equal_cold_vs_warm(self, bend_pattern):
        grads = []
        for cached in (True, False):
            device = make_device("bending")
            device.configure_simulation_cache(cached, SimulationWorkspace())
            rho = Tensor(bend_pattern.copy(), requires_grad=True)
            device.port_powers(rho, "fwd")["out"].backward()
            grads.append(rho.grad.copy())
        assert np.array_equal(grads[0], grads[1])

    def test_repeated_warm_solves_stable(self, bend_pattern):
        device = make_device("bending")
        device.configure_simulation_cache(True, SimulationWorkspace())
        first = device.port_powers_array(bend_pattern, "fwd")
        second = device.port_powers_array(bend_pattern, "fwd")
        assert first == second

    def test_infra_memoized_per_direction_alpha(self, bend_pattern):
        ws = SimulationWorkspace()
        device = make_device("bending")
        device.configure_simulation_cache(True, ws)
        device.port_powers_array(bend_pattern, "fwd")
        _, infra = device._calibration_cache.get(("fwd", 1.0))
        assert infra is not None
        device.port_powers_array(bend_pattern, "fwd")
        assert device._calibration_cache.get(("fwd", 1.0))[1] is infra


class TestSharedWorkspace:
    def test_reset_clears_state_in_place(self):
        ws = shared_workspace()
        grid = SimGrid((20, 20), dl=0.05, npml=5)
        HelmholtzSolver(grid, np.ones(grid.shape), OMEGA)  # default = shared
        assert shared_workspace().stats()["assemblies"]["misses"] >= 1
        fresh = reset_shared_workspace()
        # In-place clear: objects holding a reference also go cold.
        assert fresh is shared_workspace()
        assert fresh is ws
        assert fresh.stats()["assemblies"]["misses"] == 0
        assert fresh.stats()["assemblies"]["size"] == 0

    def test_pickle_drops_caches(self):
        import pickle

        ws = SimulationWorkspace(max_factorizations=3)
        grid = SimGrid((20, 20), dl=0.05, npml=5)
        HelmholtzSolver(grid, np.ones(grid.shape), OMEGA, workspace=ws)
        clone = pickle.loads(pickle.dumps(ws))
        assert clone.stats()["assemblies"]["size"] == 0
        assert clone._factorizations.maxsize == 3
        assert clone.factor_options == ws.factor_options


class TestSolverGenerations:
    """Cached solvers live for one reuse unit (an optimizer iteration or
    a Monte-Carlo sample): retired at its end, released by the next
    unit's first stored solver."""

    def _solver(self, ws, grid, eps):
        return ws.linear_solver(ws.assembly(grid, OMEGA), eps)

    def test_new_factorization_releases_previous_generation(self, grid, eps):
        ws = SimulationWorkspace()
        old = [self._solver(ws, grid, eps + k) for k in range(3)]
        refs = [weakref.ref(s) for s in old]
        del old
        ws.begin_solver_epoch()
        assert ws.stats()["factorizations"]["size"] == 3  # lazy release
        keep = self._solver(ws, grid, eps + 10.0)
        assert ws.stats()["factorizations"]["size"] == 1
        assert all(ref() is None for ref in refs)
        assert keep is self._solver(ws, grid, eps + 10.0)

    def test_retired_solver_hits_until_next_store(self, grid, eps):
        ws = SimulationWorkspace()
        a = self._solver(ws, grid, eps)
        b = self._solver(ws, grid, eps + 1.0)
        factorized = ws.stats()["solver"]["factorizations"]
        ws.retire_solvers()
        # Same-theta re-evaluation: every solve hits, nothing refactorizes.
        assert self._solver(ws, grid, eps) is a
        assert self._solver(ws, grid, eps + 1.0) is b
        assert ws.stats()["solver"]["factorizations"] == factorized
        # A hit rejoins the current generation and outlives the release.
        ws.retire_solvers()
        assert self._solver(ws, grid, eps) is a
        b_ref = weakref.ref(b)
        del b
        self._solver(ws, grid, eps + 2.0)
        assert b_ref() is None
        assert self._solver(ws, grid, eps) is a
        assert ws.stats()["factorizations"]["size"] == 2

    def test_same_design_re_evaluation_refactorizes_nothing(self):
        device = make_device("bending")
        ws = SimulationWorkspace()
        device.configure_simulation_cache(True, ws)
        pattern = rasterize_segments(
            device.design_shape, device.dl, device.init_segments()
        )
        first = device.port_powers_array(pattern, "fwd")
        factorized = ws.stats()["solver"]["factorizations"]
        ws.begin_solver_epoch()
        assert device.port_powers_array(pattern, "fwd") == first
        assert ws.stats()["solver"]["factorizations"] == factorized

    def test_serial_monte_carlo_holds_one_sample_of_lus(self):
        device = make_device("bending")
        ws = SimulationWorkspace()
        device.configure_simulation_cache(True, ws)
        process = FabricationProcess(
            device.design_shape,
            device.dl,
            context=device.litho_context(12),
            pad=12,
        )
        pattern = rasterize_segments(
            device.design_shape, device.dl, device.init_segments()
        )
        n = 4
        evaluate_post_fab(device, process, pattern, n_samples=n, seed=0)
        stats = ws.stats()
        assert stats["factorizations"]["size"] <= 2
        assert stats["solver"]["factorizations"] == 2 * n

    def test_live_peak_never_trails_live_under_concurrent_stores(self):
        # Thread-executor corners store solvers concurrently; a lost
        # update of the peak would let a reader see it below the live
        # count.  Cheap stand-in solvers keep the stores contended.
        class Solver:
            pass

        ws = SimulationWorkspace(max_factorizations=4)
        held, violations = [], []

        def store(worker):
            for k in range(200):
                solver = Solver()
                held.append(solver)
                ws._store_solver((worker, k), solver)
                stats = ws.stats()["factorizations"]
                if stats["live_peak"] < stats["live"]:
                    violations.append(stats)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=store, args=(w,)) for w in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert violations == []
        stats = ws.stats()["factorizations"]
        assert stats["live"] == stats["live_peak"] == len(held) == 1600

    def test_monte_carlo_calibrations_live_one_sample(self, monkeypatch):
        def evaluate(device):
            device.configure_simulation_cache(True, SimulationWorkspace())
            process = FabricationProcess(
                device.design_shape,
                device.dl,
                context=device.litho_context(12),
                pad=12,
            )
            pattern = rasterize_segments(
                device.design_shape, device.dl, device.init_segments()
            )
            return evaluate_post_fab(device, process, pattern, n_samples=4, seed=0)

        device = make_device("bending")
        mean_fom = evaluate(device).mean_fom
        # Each sample's temperature draw is its own calibration key;
        # only the last sample's (one per direction) is still cached.
        assert len(device._calibration_cache) <= len(device.directions)
        monkeypatch.setattr(
            PhotonicDevice, "release_calibrations", lambda self: None
        )
        kept = make_device("bending")
        assert evaluate(kept).mean_fom == mean_fom
        assert len(kept._calibration_cache) > len(kept.directions)

    def test_design_run_holds_one_generation_and_close_ends_it(self):
        # backward() frees each corner's solver from the tape and the
        # loop keeps no tensor across iterations, so only the cached
        # generation (plus the first LU of the next iteration, which
        # releases it) is alive; a tape kept until the next iteration's
        # loss returned held 17.  close() frees the last generation.
        device = make_device("bending")
        ws = SimulationWorkspace()
        device.configure_simulation_cache(True, ws)
        optimizer = Boson1Optimizer(
            device, OptimizerConfig(iterations=4, seed=1, solver="direct")
        )
        optimizer.run()
        stats = ws.stats()["factorizations"]
        assert stats["live_peak"] <= 9
        assert stats["live"] > 0
        optimizer.close()
        stats = ws.stats()["factorizations"]
        assert (stats["live"], stats["size"]) == (0, 0)
        assert stats["misses"] > 0  # counters survive the release

    def test_design_run_keeps_within_iteration_reuse(self):
        # Every hit of a design loop falls inside one iteration (a corner
        # reusing the worst-corner probe's or a sibling corner's LU), so
        # retiring solvers per iteration keeps the counts a never-retiring
        # LRU of 8 measures: 20 hits, 103 misses.
        device = make_device("bending")
        ws = SimulationWorkspace()
        device.configure_simulation_cache(True, ws)
        Boson1Optimizer(
            device, OptimizerConfig(iterations=12, seed=1, solver="direct")
        ).run()
        stats = ws.stats()["factorizations"]
        assert (stats["hits"], stats["misses"]) == (20, 103)
