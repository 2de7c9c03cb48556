"""Linear-solver subsystem: registry, backends, and cross-backend physics.

The contract, per backend:

* ``direct`` — bit-identical to the PR 1 SuperLU path (it *is* that path,
  extracted behind :class:`~repro.fdfd.linalg.LinearSolver`).
* ``batched`` — bit-identical solves delivered through single matrix-RHS
  triangular sweeps; multi-direction devices batch forward and adjoint
  systems.
* ``krylov`` — solves preconditioned by a recycled nominal LU, accurate
  to the configured tolerance, with automatic direct fallback; gradients
  must agree with finite differences and trajectories with the direct
  backend to tight tolerance.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.autodiff import Tensor
from repro.core import Boson1Optimizer, OptimizerConfig
from repro.devices import make_device
from repro.fdfd import (
    HelmholtzSolver,
    SimGrid,
    SimulationWorkspace,
)
from repro.fdfd.linalg import (
    SOLVER_REGISTRY,
    BatchedDirectSolver,
    DirectSolver,
    PreconditionedKrylovSolver,
    SolverConfig,
    available_backends,
    make_linear_solver,
    register_solver,
)
from repro.fdfd.workspace import default_factor_options
from repro.params import rasterize_segments
from repro.utils.constants import omega_from_wavelength

OMEGA = omega_from_wavelength(1.55)
BACKENDS = ("direct", "batched", "krylov")


@pytest.fixture
def grid():
    return SimGrid((40, 36), dl=0.05, npml=8)


@pytest.fixture
def eps(grid):
    rng = np.random.default_rng(7)
    return 1.0 + 11.0 * rng.uniform(size=grid.shape)


def corner_of(eps):
    """A design-window-style perturbation of a nominal permittivity."""
    bumped = eps.copy()
    bumped[14:26, 12:24] += 0.6
    return bumped


def rhs_block(grid, k=3, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((grid.n_cells, k)) + 1j * rng.standard_normal(
        (grid.n_cells, k)
    )


def synthetic_system(n=120, seed=0):
    """A small complex shifted-Laplacian family: (L, anchor diagonal)."""
    rng = np.random.default_rng(seed)
    lap = sp.diags(
        [np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)],
        offsets=(-1, 0, 1),
        format="csc",
        dtype=np.complex128,
    )
    # Indefinite complex shift, Helmholtz-like: not SPD, mildly damped.
    d0 = -1.2 + 0.05j + 0.3 * rng.uniform(size=n)
    return lap, d0


class TestRegistryAndConfig:
    def test_builtin_backends_registered(self):
        assert {"direct", "batched", "krylov"} <= set(available_backends())

    def test_unknown_backend_raises(self, grid, eps):
        matrix = HelmholtzSolver(grid, eps, OMEGA, workspace=None).system_matrix
        with pytest.raises(ValueError, match="unknown solver backend"):
            make_linear_solver("cusolver", matrix, default_factor_options())

    def test_duplicate_registration_raises(self):
        with pytest.raises(ValueError, match="already registered"):
            register_solver("direct")(PreconditionedKrylovSolver)
        assert SOLVER_REGISTRY["direct"] is DirectSolver

    def test_coerce(self):
        assert SolverConfig.coerce(None) == SolverConfig()
        assert SolverConfig.coerce("krylov").backend == "krylov"
        cfg = SolverConfig.coerce("krylov:gmres")
        assert (cfg.backend, cfg.krylov_method) == ("krylov", "gmres")
        assert SolverConfig.coerce(cfg) is cfg
        with pytest.raises(ValueError):
            SolverConfig.coerce("spectral")
        with pytest.raises(TypeError):
            SolverConfig.coerce(42)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(krylov_method="jacobi")
        with pytest.raises(ValueError):
            SolverConfig(tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(maxiter=0)

    def test_optimizer_config_coerces_and_validates(self):
        cfg = OptimizerConfig(solver="batched")
        assert isinstance(cfg.solver, SolverConfig)
        assert cfg.solver.backend == "batched"
        with pytest.raises(ValueError, match="simulation"):
            OptimizerConfig(solver="krylov", simulation_cache=False)


class TestDirectAndBatched:
    def test_batched_solve_many_bitwise_matches_direct(self, grid, eps):
        matrix = HelmholtzSolver(grid, eps, OMEGA, workspace=None).system_matrix
        opts = default_factor_options()
        direct = make_linear_solver("direct", matrix, opts)
        batched = BatchedDirectSolver(matrix, direct.lu, None)
        block = rhs_block(grid)
        for trans in ("N", "T"):
            assert np.array_equal(
                direct.solve_many(block, trans=trans),
                batched.solve_many(block, trans=trans),
            )

    def test_solve_many_matches_column_solves(self, grid, eps):
        matrix = HelmholtzSolver(grid, eps, OMEGA, workspace=None).system_matrix
        solver = make_linear_solver("batched", matrix, default_factor_options())
        block = rhs_block(grid, k=4)
        stacked = np.stack([solver.solve(block[:, j]) for j in range(4)], axis=1)
        assert np.array_equal(solver.solve_many(block), stacked)

    def test_batched_counts_batched_calls(self, grid, eps):
        ws = SimulationWorkspace(solver_config="batched")
        solver = HelmholtzSolver(grid, eps, OMEGA, workspace=ws)
        solver.solve_many(rhs_block(grid))
        stats = ws.stats()["solver"]
        assert stats["batched_calls"] == 1
        assert stats["rhs_columns"] == 3

    def test_bad_trans_and_shape_raise(self, grid, eps):
        matrix = HelmholtzSolver(grid, eps, OMEGA, workspace=None).system_matrix
        solver = make_linear_solver("direct", matrix, default_factor_options())
        with pytest.raises(ValueError):
            solver.solve(rhs_block(grid)[:, 0], trans="H")
        with pytest.raises(ValueError):
            solver.solve_many(rhs_block(grid)[:, 0])


@pytest.mark.krylov
class TestKrylovBackend:
    def _workspace_pair(self, grid, eps, **overrides):
        cfg = SolverConfig(backend="krylov", **overrides)
        ws = SimulationWorkspace(solver_config=cfg)
        nominal = HelmholtzSolver(grid, eps, OMEGA, workspace=ws)
        return ws, nominal

    def test_nominal_anchor_is_direct(self, grid, eps):
        ws, nominal = self._workspace_pair(grid, eps)
        assert isinstance(nominal.linsolver, DirectSolver)
        assert ws.stats()["solver"]["factorizations"] == 1

    def test_corner_recycles_anchor_within_tolerance(self, grid, eps):
        ws, _ = self._workspace_pair(grid, eps, tol=1e-10)
        corner = corner_of(eps)
        warm = HelmholtzSolver(grid, corner, OMEGA, workspace=ws)
        assert isinstance(warm.linsolver, PreconditionedKrylovSolver)
        ref = HelmholtzSolver(grid, corner, OMEGA, workspace=None)
        b = rhs_block(grid)[:, 0]
        for solve in ("solve_raw", "solve_transposed"):
            x = getattr(warm, solve)(b)
            y = getattr(ref, solve)(b)
            assert np.linalg.norm(x - y) / np.linalg.norm(y) < 1e-8
        # No second factorization happened: the anchor was recycled.
        assert ws.stats()["solver"]["factorizations"] == 1
        assert ws.stats()["solver"]["krylov_solves"] == 2
        assert warm.linsolver.diagnostics.mean_iterations > 0

    def test_gmres_variant_converges(self, grid, eps):
        ws, _ = self._workspace_pair(grid, eps, krylov_method="gmres", tol=1e-9)
        corner = corner_of(eps)
        warm = HelmholtzSolver(grid, corner, OMEGA, workspace=ws)
        b = rhs_block(grid)[:, 0]
        x = warm.solve_raw(b)
        resid = np.linalg.norm(warm.system_matrix @ x - b) / np.linalg.norm(b)
        assert resid < 1e-7
        assert ws.stats()["solver"]["fallbacks"] == 0

    def test_fallback_on_nonconvergence_is_exact_and_anchored(self, grid, eps):
        ws, _ = self._workspace_pair(grid, eps, maxiter=1)
        far = np.full(grid.shape, 6.0)  # nothing like the anchor
        warm = HelmholtzSolver(grid, far, OMEGA, workspace=ws)
        b = rhs_block(grid)[:, 0]
        x = warm.solve_raw(b)
        resid = np.linalg.norm(warm.system_matrix @ x - b) / np.linalg.norm(b)
        assert resid < 1e-10  # the fallback is a direct solve
        stats = ws.stats()["solver"]
        assert stats["fallbacks"] == 1
        assert stats["factorizations"] == 2
        # The fallback LU became an anchor: a nearby eps now iterates
        # against it instead of the distant nominal anchor.
        near_far = far.copy()
        near_far[20, 20] += 0.05
        again = HelmholtzSolver(grid, near_far, OMEGA, workspace=ws)
        x2 = again.solve_raw(b)
        assert ws.stats()["solver"]["fallbacks"] == 1  # no new fallback
        resid2 = np.linalg.norm(again.system_matrix @ x2 - b) / np.linalg.norm(b)
        assert resid2 < 1e-6

    def test_no_fallback_raises(self, grid, eps):
        ws, _ = self._workspace_pair(grid, eps, maxiter=1, fallback=False)
        far = np.full(grid.shape, 6.0)
        warm = HelmholtzSolver(grid, far, OMEGA, workspace=ws)
        with pytest.raises(RuntimeError, match="did not converge"):
            warm.solve_raw(rhs_block(grid)[:, 0])

    def test_epoch_reset_reanchors(self, grid, eps):
        ws, _ = self._workspace_pair(grid, eps)
        corner = corner_of(eps)
        ws.begin_solver_epoch()
        # After the reset the *corner* is the first permittivity seen, so
        # it gets factorized directly instead of iterating.
        warm = HelmholtzSolver(grid, corner, OMEGA, workspace=ws)
        assert isinstance(warm.linsolver, DirectSolver)
        assert ws.stats()["solver"]["factorizations"] == 2

    def test_anchor_operator_sets_bounded(self, grid, eps):
        ws = SimulationWorkspace(max_assemblies=2, solver_config="krylov")
        for i in range(4):
            # Each omega is a new operator set and hence a new anchor key.
            HelmholtzSolver(grid, eps, OMEGA * (1.0 + 0.01 * i), workspace=ws)
        assert len(ws._anchors) <= 2

    def test_default_optimizer_config_inherits_workspace_backend(self):
        device = make_device("bending")
        ws = SimulationWorkspace(solver_config="krylov")
        device.configure_simulation_cache(True, ws)
        assert OptimizerConfig().solver is None
        Boson1Optimizer(device, OptimizerConfig(iterations=1, seed=0))
        assert device.workspace is ws  # pre-configured backend kept

    def test_workspace_pickle_keeps_solver_config(self, grid, eps):
        import pickle

        ws, _ = self._workspace_pair(grid, eps, tol=1e-6)
        clone = pickle.loads(pickle.dumps(ws))
        assert clone.solver_config == ws.solver_config
        assert clone.stats()["solver"]["factorizations"] == 0


class TestKrylovBudgetAndFallback:
    def _hard_solver(self, **overrides):
        """An unpreconditioned Helmholtz-like system: will not converge."""
        lap, d0 = synthetic_system(n=200, seed=17)
        matrix = (lap + sp.diags(d0)).tocsc()
        cfg = SolverConfig(backend="krylov", fallback=False, **overrides)
        return PreconditionedKrylovSolver(
            matrix, None, default_factor_options(), cfg
        )

    def test_gmres_budget_is_exact(self):
        """maxiter must cap *inner* iterations, not restart cycles.

        The old sizing ran ceil(maxiter/restart) full cycles — up to
        restart-1 iterations over budget (10 budgeted, 12 burnt).
        """
        solver = self._hard_solver(
            krylov_method="gmres", maxiter=10, gmres_restart=4
        )
        b = np.ones(200, dtype=complex)
        with pytest.raises(RuntimeError, match="did not converge"):
            solver.solve(b)
        assert solver.stats.wasted_iterations <= 10

    def test_solve_many_batches_after_midblock_fallback(self):
        lap, d0 = synthetic_system(n=200, seed=17)
        matrix = (lap + sp.diags(d0)).tocsc()
        cfg = SolverConfig(backend="krylov", maxiter=3)
        solver = PreconditionedKrylovSolver(
            matrix, None, default_factor_options(), cfg
        )
        rng = np.random.default_rng(0)
        rhs = rng.standard_normal((200, 5)) + 0j
        out = solver.solve_many(rhs)
        # Column 0 falls back mid-block; the remaining 4 columns must
        # ride ONE batched matrix-RHS sweep, not 4 scalar round-trips.
        assert solver.stats.fallbacks == 1
        assert solver.stats.batched_calls == 1
        np.testing.assert_allclose(matrix @ out, rhs, atol=1e-8)


class TestGmresRestartValidation:
    def test_zero_restart_rejected_at_construction(self):
        with pytest.raises(ValueError, match="gmres_restart"):
            SolverConfig(gmres_restart=0)

    def test_negative_restart_rejected(self):
        with pytest.raises(ValueError, match="gmres_restart"):
            SolverConfig(backend="krylov", gmres_restart=-3)

    def test_restart_of_one_is_valid_and_solvable(self, grid, eps):
        # The smallest legal restart must actually run (outer cycles =
        # maxiter), not just pass validation.
        cfg = SolverConfig(
            backend="krylov", krylov_method="gmres", gmres_restart=1,
            tol=1e-9, maxiter=40,
        )
        ws = SimulationWorkspace(solver_config=cfg)
        HelmholtzSolver(grid, eps, OMEGA, workspace=ws)  # anchor
        corner = eps.copy()
        corner[14:26, 12:24] += 0.3
        solver = HelmholtzSolver(grid, corner, OMEGA, workspace=ws)
        b = rhs_block(grid)[:, 0]
        x = solver.solve_raw(b)
        resid = np.linalg.norm(solver.system_matrix @ x - b) / np.linalg.norm(b)
        assert resid < 1e-6


class TestSolveManyPostFallback:
    def _fallen_back_solver(self, grid, eps):
        """A krylov solver that already paid for its direct fallback."""
        cfg = SolverConfig(backend="krylov", maxiter=1)
        ws = SimulationWorkspace(solver_config=cfg)
        HelmholtzSolver(grid, eps, OMEGA, workspace=ws)  # anchor
        far = np.full(grid.shape, 6.0)
        solver = HelmholtzSolver(grid, far, OMEGA, workspace=ws)
        solver.solve_raw(rhs_block(grid)[:, 0])  # triggers the fallback
        assert ws.stats()["solver"]["fallbacks"] == 1
        return ws, solver

    def test_block_short_circuits_to_fallback_factorization(self, grid, eps):
        ws, solver = self._fallen_back_solver(grid, eps)
        before = ws.stats()["solver"]
        block = rhs_block(grid, k=4, seed=3)
        out = solver.solve_many(block)
        after = ws.stats()["solver"]
        # One matrix-RHS sweep through the already-paid factorization:
        # no new factorization, no Krylov iterations, one batched call.
        assert after["factorizations"] == before["factorizations"]
        assert after["iterations"] == before["iterations"]
        assert after["batched_calls"] == before["batched_calls"] + 1
        ref = HelmholtzSolver(grid, np.full(grid.shape, 6.0), OMEGA, workspace=None)
        for j in range(4):
            expect = ref.solve_raw(block[:, j])
            np.testing.assert_allclose(out[:, j], expect, rtol=1e-10, atol=1e-12)

    def test_transposed_block_also_short_circuits(self, grid, eps):
        ws, solver = self._fallen_back_solver(grid, eps)
        block = rhs_block(grid, k=2, seed=4)
        out = solver.solve_many(block, trans="T")
        ref = HelmholtzSolver(grid, np.full(grid.shape, 6.0), OMEGA, workspace=None)
        for j in range(2):
            expect = ref.solve_transposed(block[:, j])
            np.testing.assert_allclose(out[:, j], expect, rtol=1e-10, atol=1e-12)


class TestWorkspaceStatsRates:
    def test_hit_rate_percentages(self, grid, eps):
        ws = SimulationWorkspace()
        HelmholtzSolver(grid, eps, OMEGA, workspace=ws)
        HelmholtzSolver(grid, eps, OMEGA, workspace=ws)
        stats = ws.stats()
        assert stats["factorizations"]["hit_rate_pct"] == 50.0
        assert stats["assemblies"]["hit_rate_pct"] == 50.0
        assert stats["modes"]["hit_rate_pct"] == 0.0
        ws.clear()
        assert ws.stats()["factorizations"]["hit_rate_pct"] == 0.0


# --------------------------------------------------------------------- #
# Cross-backend physics on the benchmark devices                        #
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def bend_pattern():
    device = make_device("bending")
    return rasterize_segments(
        device.design_shape, device.dl, device.init_segments()
    )


@pytest.fixture(scope="module")
def isolator_pattern():
    device = make_device("isolator")
    return rasterize_segments(
        device.design_shape, device.dl, device.init_segments()
    )


@pytest.fixture(scope="module")
def crossing_pattern():
    device = make_device("crossing")
    return rasterize_segments(
        device.design_shape, device.dl, device.init_segments()
    )


def device_with_backend(name, backend):
    device = make_device(name)
    device.configure_simulation_cache(
        True, SimulationWorkspace(solver_config=backend)
    )
    return device


#: Finite-difference probing divides the objective by a 1e-5 step, so the
#: objective itself must be far more accurate than the default Krylov
#: tolerance — FD checks run the iterative backend near direct precision.
FD_BACKENDS = {
    "direct": "direct",
    "batched": "batched",
    "krylov": SolverConfig(backend="krylov", tol=1e-10),
}


def adjoint_grad(device, pattern, seed=0):
    """Gradient of a fixed random weighting of all port powers."""
    rng = np.random.default_rng(seed)
    rho = Tensor(pattern.copy(), requires_grad=True)
    powers = device.port_powers_all(rho)
    total = None
    for direction in device.directions:
        for name, p in powers[direction].items():
            term = p * float(rng.uniform(0.5, 1.5))
            total = term if total is None else total + term
    total.backward()
    return rho.grad.copy()


def scalar_objective(device, pattern, seed=0):
    rng = np.random.default_rng(seed)
    value = 0.0
    for direction in device.directions:
        powers = device.port_powers_array(pattern, direction)
        for name in device.port_names(direction):
            value += powers[name] * float(rng.uniform(0.5, 1.5))
    return value


class TestGradientConsistency:
    """Adjoint gradients vs finite differences, per backend, per device."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bending_fd(self, bend_pattern, backend):
        device = device_with_backend("bending", FD_BACKENDS[backend])
        grad = adjoint_grad(device, bend_pattern)
        cells = [(10, 12), (16, 16), (22, 9)]
        d = 1e-5
        for ix, iy in cells:
            plus = bend_pattern.copy()
            plus[ix, iy] += d
            minus = bend_pattern.copy()
            minus[ix, iy] -= d
            fd = (
                scalar_objective(device, plus) - scalar_objective(device, minus)
            ) / (2 * d)
            assert grad[ix, iy] == pytest.approx(fd, rel=2e-2, abs=1e-12)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_crossing_fd(self, crossing_pattern, backend):
        # Four monitors (through, reflection, two crosstalk arms) on a
        # single direction: the widest port set of the benchmark trio.
        device = device_with_backend("crossing", FD_BACKENDS[backend])
        grad = adjoint_grad(device, crossing_pattern)
        cells = [(10, 16), (16, 16), (24, 8)]
        d = 1e-5
        for ix, iy in cells:
            plus = crossing_pattern.copy()
            plus[ix, iy] += d
            minus = crossing_pattern.copy()
            minus[ix, iy] -= d
            fd = (
                scalar_objective(device, plus) - scalar_objective(device, minus)
            ) / (2 * d)
            assert grad[ix, iy] == pytest.approx(fd, rel=2e-2, abs=1e-12)

    @pytest.mark.krylov
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_isolator_fd(self, isolator_pattern, backend):
        device = device_with_backend("isolator", FD_BACKENDS[backend])
        grad = adjoint_grad(device, isolator_pattern)
        cells = [(20, 14), (30, 18)]
        d = 1e-5
        for ix, iy in cells:
            plus = isolator_pattern.copy()
            plus[ix, iy] += d
            minus = isolator_pattern.copy()
            minus[ix, iy] -= d
            fd = (
                scalar_objective(device, plus) - scalar_objective(device, minus)
            ) / (2 * d)
            assert grad[ix, iy] == pytest.approx(fd, rel=2e-2, abs=1e-12)

    @pytest.mark.krylov
    def test_default_tol_krylov_gradient_near_direct(self, bend_pattern):
        g_direct = adjoint_grad(
            device_with_backend("bending", "direct"), bend_pattern
        )
        g_krylov = adjoint_grad(
            device_with_backend("bending", "krylov"), bend_pattern
        )
        rel = np.linalg.norm(g_krylov - g_direct) / np.linalg.norm(g_direct)
        assert rel < 1e-3

    def test_isolator_batched_matches_direct_gradient(self, isolator_pattern):
        g_direct = adjoint_grad(
            device_with_backend("isolator", "direct"), isolator_pattern
        )
        g_batched = adjoint_grad(
            device_with_backend("isolator", "batched"), isolator_pattern
        )
        np.testing.assert_allclose(g_batched, g_direct, rtol=1e-9, atol=1e-12)

    def test_isolator_batched_actually_batches(self, isolator_pattern):
        device = device_with_backend("isolator", "batched")
        assert device._batches_directions()
        adjoint_grad(device, isolator_pattern)
        stats = device.workspace.stats()["solver"]
        assert stats["batched_calls"] >= 2  # fwd block + adjoint block

    def test_bending_never_batches(self, bend_pattern):
        device = device_with_backend("bending", "batched")
        assert not device._batches_directions()  # single direction

    def test_isolator_array_all_batches_and_matches(self, isolator_pattern):
        direct = device_with_backend("isolator", "direct")
        batched = device_with_backend("isolator", "batched")
        p_direct = direct.port_powers_array_all(isolator_pattern)
        p_batched = batched.port_powers_array_all(isolator_pattern)
        assert p_batched == p_direct  # matrix-RHS sweeps are bitwise
        assert batched.workspace.stats()["solver"]["batched_calls"] >= 1

    def test_evaluate_post_fab_batched_matches_direct(self, isolator_pattern):
        from repro.eval import evaluate_post_fab
        from repro.fab.process import FabricationProcess

        reports = {}
        for backend in ("direct", "batched"):
            device = device_with_backend("isolator", backend)
            process = FabricationProcess(
                device.design_shape,
                device.dl,
                context=device.litho_context(12),
                pad=12,
            )
            reports[backend] = evaluate_post_fab(
                device, process, isolator_pattern, n_samples=2, seed=7
            )
        np.testing.assert_array_equal(
            reports["batched"].foms, reports["direct"].foms
        )


class TestTrajectoryConsistency:
    """`fom_trace` agreement across backends on short optimizer runs."""

    def _trace(self, device_name, backend, iterations):
        device = make_device(device_name)
        optimizer = Boson1Optimizer(
            device,
            OptimizerConfig(iterations=iterations, seed=0, solver=backend),
        )
        result = optimizer.run()
        optimizer.close()
        return result.fom_trace()

    def test_bending_batched_bitwise_matches_direct(self):
        direct = self._trace("bending", "direct", 3)
        batched = self._trace("bending", "batched", 3)
        assert np.array_equal(direct, batched)

    @pytest.mark.krylov
    def test_bending_krylov_matches_direct(self):
        direct = self._trace("bending", "direct", 3)
        krylov = self._trace("bending", "krylov", 3)
        np.testing.assert_allclose(krylov, direct, rtol=1e-6, atol=1e-9)

    @pytest.mark.krylov
    @pytest.mark.slow
    def test_isolator_backends_agree(self):
        direct = self._trace("isolator", "direct", 2)
        batched = self._trace("isolator", "batched", 2)
        krylov = self._trace("isolator", "krylov", 2)
        np.testing.assert_allclose(batched, direct, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(krylov, direct, rtol=1e-5, atol=1e-8)


@pytest.mark.krylov
@pytest.mark.slow
class TestLargeGridConvergence:
    """Krylov recycling on a grid where factorization is genuinely heavy."""

    def test_large_grid_corner_solves_converge(self):
        grid = SimGrid((160, 160), dl=0.05, npml=12)
        rng = np.random.default_rng(1)
        eps = 1.0 + 11.0 * rng.uniform(size=grid.shape)
        ws = SimulationWorkspace(
            solver_config=SolverConfig(backend="krylov", tol=1e-8, maxiter=40)
        )
        HelmholtzSolver(grid, eps, OMEGA, workspace=ws)  # anchor
        b = rng.standard_normal(grid.n_cells) + 0j
        for bump in (0.1, 0.3, 0.6):
            corner = eps.copy()
            corner[60:100, 60:100] += bump
            solver = HelmholtzSolver(grid, corner, OMEGA, workspace=ws)
            x = solver.solve_raw(b)
            resid = np.linalg.norm(solver.system_matrix @ x - b)
            assert resid / np.linalg.norm(b) < 1e-6
        assert ws.stats()["solver"]["fallbacks"] == 0
        assert ws.stats()["solver"]["factorizations"] == 1
