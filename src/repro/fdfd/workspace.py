"""Simulation workspace: cross-solve caches for the FDFD stack.

The variation-aware inner loop re-solves the same *window* hundreds of
times: every fabrication corner and every Monte-Carlo sample shares the
grid, the frequency and the PML ramp, and only the permittivity diagonal
changes.  The seed implementation rebuilt everything per solve; this
module caches the invariants:

``FdfdAssembly``
    The PML-stretched derivative operators and the precomputed Laplacian
    ``Dxb Dxf + Dyb Dyf`` for one ``(grid, omega, pml)`` key, plus the
    CSC diagonal positions needed to assemble
    ``A = L + diag(omega^2 eps)`` with a single vectorized data update —
    no sparse matmuls, no sparse add, no format conversion per solve.

``SimulationWorkspace``
    Bounded LRU caches for assemblies, slab-mode solves (port
    cross-sections are outside the design region, so their modes are
    constants of an optimization) and LU factorizations keyed by the
    permittivity bytes (corners sharing a permittivity — e.g. the
    worst-corner probe and the nominal corner, or the two directions of
    a reciprocal device — factorize once; see below for how long they
    are kept).

``FactorOptions``
    SuperLU configuration.  The default exploits the near-symmetry of
    the Helmholtz operator (``MMD_AT_PLUS_A`` ordering + symmetric mode
    + relaxed diagonal pivoting), which roughly halves factorization
    time at machine-precision residuals; ``FactorOptions.reference()``
    restores SciPy's COLAMD default.

Solves themselves go through the pluggable backends of
:mod:`repro.fdfd.linalg` (:meth:`SimulationWorkspace.linear_solver`):
``direct``/``batched`` cache one SuperLU per permittivity as before,
while ``krylov`` keeps a small pool of *preconditioner anchors* per
operator set — LUs of recently factorized permittivities, nearest of
which preconditions a BiCGStab/GMRES solve for every other corner.
:meth:`SimulationWorkspace.begin_solver_epoch` (called by the optimizer
once per iteration) drops the anchors so the first permittivity of each
iteration — the nominal corner — becomes the anchor its siblings recycle.

How long a factorization lives: cached solvers belong to one
*generation*, a reuse unit — one optimizer iteration, or one
Monte-Carlo sample.  Every cache hit the workloads make falls inside
such a unit (a corner reusing the worst-corner probe's LU, two corners
sharing a permittivity); nothing reads an LU from an earlier unit.
:meth:`SimulationWorkspace.retire_solvers` (called by
``begin_solver_epoch`` and at the start of each Monte-Carlo sample)
closes a generation: its solvers still hit until the next solver is
stored, and that store releases them all.  So a worker holds the LUs of
the unit it is working on, not ``max_factorizations`` of them.  Krylov
anchors keep their own lifetime (until the next epoch).  The autodiff
tape does not extend any of this: ``Tensor.backward()`` drops each
adjoint closure, and the solver it holds, once it has run.  The last
generation ends with the run —
:meth:`SimulationWorkspace.release_solvers` (called by
``Boson1Optimizer.close()``) frees it, so an idle daemon or the next
job does not carry the previous job's LUs.  ``stats()["factorizations"]``
reports ``live`` and ``live_peak``: how many solvers this workspace
stored are still referenced, now and at most.

Every cache is content-addressed, so a warm workspace returns the same
bits as a cold build for the direct backends — tests assert bit-for-bit
identity of matrices, fields and gradients.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.fdfd.grid import SimGrid
from repro.fdfd.linalg import (
    SOLVER_REGISTRY,
    DirectSolver,
    LinearSolver,
    SolveStats,
    SolverConfig,
    make_linear_solver,
)
from repro.fdfd.modes import SlabModeSolver, WaveguideMode
from repro.fdfd.operators import build_derivative_ops, laplacian_from_ops
from repro.fdfd.pml import PMLSpec
from repro.obs.trace import span

__all__ = [
    "FactorOptions",
    "FdfdAssembly",
    "SimulationWorkspace",
    "shared_workspace",
    "reset_shared_workspace",
    "default_factor_options",
    "set_default_factor_options",
]


@dataclass(frozen=True)
class FactorOptions:
    """SuperLU factorization configuration.

    Parameters
    ----------
    permc_spec:
        Column permutation strategy.  ``MMD_AT_PLUS_A`` suits the
        nearly-symmetric Helmholtz operator; ``COLAMD`` is SciPy's
        general-purpose default.
    diag_pivot_thresh:
        Partial-pivoting threshold in [0, 1]; small values keep pivots
        on the diagonal, preserving the symmetric ordering's fill-in.
    symmetric_mode:
        Enable SuperLU's symmetric-pattern heuristics.
    """

    permc_spec: str = "MMD_AT_PLUS_A"
    diag_pivot_thresh: float = 0.1
    symmetric_mode: bool = True

    @classmethod
    def reference(cls) -> "FactorOptions":
        """SciPy's default configuration (COLAMD, full partial pivoting)."""
        return cls(
            permc_spec="COLAMD", diag_pivot_thresh=1.0, symmetric_mode=False
        )

    def splu(self, matrix: sp.csc_matrix) -> spla.SuperLU:
        """Factorize a CSC matrix with these options."""
        with span("solver.factorize", "solver", n=matrix.shape[0]):
            return spla.splu(
                matrix,
                permc_spec=self.permc_spec,
                options=dict(
                    SymmetricMode=self.symmetric_mode,
                    DiagPivotThresh=self.diag_pivot_thresh,
                ),
            )


_DEFAULT_FACTOR_OPTIONS = FactorOptions()


def default_factor_options() -> FactorOptions:
    """The process-wide factorization configuration."""
    return _DEFAULT_FACTOR_OPTIONS


def set_default_factor_options(options: FactorOptions) -> FactorOptions:
    """Replace the process-wide default; returns the previous value.

    Used by benchmarks to time the seed-reference configuration
    (``FactorOptions.reference()``) against the tuned default.
    """
    global _DEFAULT_FACTOR_OPTIONS
    previous = _DEFAULT_FACTOR_OPTIONS
    _DEFAULT_FACTOR_OPTIONS = options
    return previous


class FdfdAssembly:
    """Prebuilt operators + Laplacian for one ``(grid, omega, pml)``.

    The precomputed pieces let :meth:`system_matrix` assemble
    ``A = L + diag(omega^2 eps)`` by copying the cached CSC Laplacian and
    adding the diagonal in place — bit-identical to the cold
    ``(L + diags(...)).tocsc()`` path (asserted by the test suite)
    because sparse addition and format conversion commute when the
    diagonal pattern is a subset of ``L``'s.
    """

    def __init__(self, grid: SimGrid, omega: float, pml: PMLSpec):
        self.grid = grid
        self.omega = float(omega)
        self.pml = pml
        self.ops = build_derivative_ops(grid, self.omega, pml)
        self.laplacian = laplacian_from_ops(self.ops)
        self._laplacian_csc = self.laplacian.tocsc()
        self._laplacian_csc.sort_indices()
        self._diag_positions = self._locate_diagonal(self._laplacian_csc)

    @staticmethod
    def _locate_diagonal(mat: sp.csc_matrix) -> np.ndarray | None:
        """Data-array index of entry ``(i, i)`` per column, else ``None``.

        The 3-point Laplacian always stores its main diagonal, but a
        degenerate operator set (e.g. a future masked variant) might
        not; in that case the slow sparse-add path is used instead.
        """
        n = mat.shape[0]
        cols = np.repeat(np.arange(n), np.diff(mat.indptr))
        positions = np.flatnonzero(mat.indices == cols)
        if positions.size != n:
            return None
        return positions

    # ------------------------------------------------------------------ #
    def system_matrix(self, eps_r: np.ndarray) -> sp.csc_matrix:
        """``A = L + diag(omega^2 eps_r)`` in CSC format."""
        diag = self.omega**2 * np.asarray(eps_r, dtype=np.float64).ravel()
        if self._diag_positions is None:
            return (
                self.laplacian + sp.diags(diag, format="csr")
            ).tocsc()
        matrix = self._laplacian_csc.copy()
        matrix.data[self._diag_positions] += diag
        return matrix


def _hash_array(arr: np.ndarray) -> bytes:
    digest = hashlib.sha1()
    digest.update(np.ascontiguousarray(arr).view(np.uint8).data)
    return digest.digest()


class _LRUCache:
    """A tiny thread-safe LRU map (inserted-value cache).

    :meth:`retire` moves every entry into a *previous generation*: a
    retired entry still hits (and rejoins the current generation) until
    the next :meth:`put`, which releases whatever is still retired.
    """

    def __init__(self, maxsize: int):
        self.maxsize = int(maxsize)
        self._store: OrderedDict = OrderedDict()
        self._retired: dict = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key):
        with self._lock:
            if key in self._store:
                self._store.move_to_end(key)
                self.hits += 1
                return self._store[key]
            if key in self._retired:
                self._store[key] = self._retired.pop(key)
                self.hits += 1
                return self._store[key]
            self.misses += 1
            return None

    def put(self, key, value):
        with self._lock:
            self._retired.clear()
            self._store[key] = value
            self._store.move_to_end(key)
            while len(self._store) > self.maxsize:
                self._store.popitem(last=False)

    def retire(self) -> None:
        with self._lock:
            self._retired.update(self._store)
            self._store.clear()

    def release(self) -> None:
        """Drop both generations; the hit/miss counters carry on."""
        with self._lock:
            self._store.clear()
            self._retired.clear()

    def __len__(self) -> int:
        return len(self._store) + len(self._retired)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._store or key in self._retired

    def clear(self) -> None:
        self.release()
        with self._lock:
            self.hits = 0
            self.misses = 0


class _PrecondAnchor:
    """One preconditioner anchor: a flattened permittivity and its LU.

    The LU serves exact solves (anchor corners, cache seeds) and
    preconditions every nearby permittivity's Krylov solve; ``eps`` is
    what the nearest-anchor search measures distance against.
    """

    __slots__ = ("eps", "lu")

    def __init__(self, eps: np.ndarray, lu):
        self.eps = eps
        self.lu = lu


class SimulationWorkspace:
    """Shared caches for repeated FDFD solves on the same window.

    Parameters
    ----------
    max_assemblies:
        Distinct ``(grid, omega, pml)`` operator sets to keep.
    max_factorizations:
        LU factorizations retained within one generation, keyed by
        permittivity content.  One optimizer iteration revisits a
        permittivity at most a handful of times (worst-probe + nominal
        corner, fwd/bwd directions), so a small bound suffices.
        Factorizations of superseded patterns do not wait for eviction:
        :meth:`retire_solvers` ends a generation and the next stored
        solver releases it.
    max_modes:
        Slab-mode solutions retained, keyed by cross-section content.
    factor_options:
        SuperLU configuration used for every factorization created
        through this workspace.
    solver_config:
        Linear-solver backend selection (a
        :class:`~repro.fdfd.linalg.SolverConfig`, a backend name such as
        ``"krylov"``, or ``None`` for the direct default).

    Notes
    -----
    The workspace deliberately survives pickling as an *empty* shell
    (caches are dropped): LU objects are not picklable, and worker
    processes re-warm their own caches.
    """

    def __init__(
        self,
        max_assemblies: int = 8,
        max_factorizations: int = 8,
        max_modes: int = 64,
        factor_options: FactorOptions | None = None,
        solver_config: SolverConfig | str | None = None,
    ):
        self.factor_options = factor_options or default_factor_options()
        self.solver_config = SolverConfig.coerce(solver_config)
        self.solver_stats = SolveStats()
        self._assemblies = _LRUCache(max_assemblies)
        self._factorizations = _LRUCache(max_factorizations)
        self._modes = _LRUCache(max_modes)
        # Preconditioner anchors for iterative backends: per operator
        # set, a small ordered pool of (eps, LU) pairs; see
        # linear_solver() for the recycling policy.  The operator-set
        # keys themselves are LRU-bounded (by max_assemblies, like the
        # operator cache) so evaluation-only usage — e.g. a wavelength
        # sweep, one omega per point — cannot pin factorizations without
        # limit.
        self._anchors: OrderedDict = OrderedDict()
        self._anchor_lock = threading.Lock()
        # Every solver this workspace stored, for as long as anything
        # (the cache, an autodiff tape, a caller) still references it.
        self._live_solvers: weakref.WeakSet = weakref.WeakSet()
        self._live_peak = 0
        self._live_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def assembly(
        self, grid: SimGrid, omega: float, pml: PMLSpec | None = None
    ) -> FdfdAssembly:
        """The cached operator set for one window configuration."""
        pml = pml or PMLSpec()
        key = (grid, round(float(omega), 12), pml)
        cached = self._assemblies.get(key)
        if cached is None:
            cached = FdfdAssembly(grid, omega, pml)
            self._assemblies.put(key, cached)
        return cached

    def linear_solver(
        self, assembly: FdfdAssembly, eps_r: np.ndarray
    ) -> LinearSolver:
        """The configured backend's solver for one permittivity.

        Solvers are cached by permittivity content, so corners sharing a
        permittivity (the worst-corner probe and the nominal corner, the
        two directions of a reciprocal device) share one factorization —
        or, for the Krylov backend, one preconditioned operator.

        Krylov anchor policy: the first permittivity factorized for an
        operator set after :meth:`begin_solver_epoch` becomes the
        *anchor* (in the optimizer loop, the nominal corner); every
        subsequent permittivity is solved iteratively, preconditioned by
        its nearest anchor in Euclidean permittivity distance.  A solve
        that falls back to direct factorization contributes its LU as an
        additional anchor, so off-manifold environments (calibration
        runs, far Monte-Carlo samples) pay the factorization once and
        then precondition their own neighbourhood.
        """
        eps = np.asarray(eps_r, dtype=np.float64)
        eps_hash = _hash_array(eps)
        key = (assembly.grid, round(assembly.omega, 12), assembly.pml, eps_hash)
        cached = self._factorizations.get(key)
        if cached is not None:
            if cached.lu is not None and self.solver_uses_preconditioner:
                # A cached LU hit after an epoch reset (a retired solver
                # the new epoch has not released yet) is still a
                # perfectly good anchor: re-register it so the epoch's
                # sibling corners precondition against it instead of
                # paying a fresh factorization (re-evaluating the same
                # design — FD probing, repeated losses — hits this).
                # Skip when already anchored: repeat hits must not copy
                # the full grid or churn the anchor LRU order.
                akey = (assembly.grid, round(assembly.omega, 12), assembly.pml)
                with self._anchor_lock:
                    registered = eps_hash in self._anchors.get(akey, ())
                if not registered:
                    self._add_anchor(
                        akey, eps_hash, eps.ravel().copy(), cached.lu
                    )
            return cached

        backend = self.solver_config.backend
        matrix = assembly.system_matrix(eps)
        if not getattr(SOLVER_REGISTRY[backend], "uses_preconditioner", False):
            solver = make_linear_solver(
                backend,
                matrix,
                self.factor_options,
                config=self.solver_config,
                stats=self.solver_stats,
            )
        else:
            solver = self._preconditioned_solver(
                assembly, matrix, eps, eps_hash, backend
            )
        self._store_solver(key, solver)
        return solver

    def _store_solver(self, key, solver: LinearSolver) -> None:
        self._factorizations.put(key, solver)
        with self._live_lock:
            self._live_solvers.add(solver)
            self._live_peak = max(self._live_peak, len(self._live_solvers))

    def _anchor_pool(self, akey) -> OrderedDict:
        """The (touched) anchor pool for one operator set.

        Caller must hold :attr:`_anchor_lock`.  Centralizes the
        operator-set LRU policy — pools are bounded like the assembly
        cache so evaluation-only usage (one omega per sweep point)
        cannot pin factorizations without limit.
        """
        anchors = self._anchors.setdefault(akey, OrderedDict())
        self._anchors.move_to_end(akey)
        while len(self._anchors) > self._assemblies.maxsize:
            self._anchors.popitem(last=False)
        return anchors

    def _preconditioned_solver(
        self, assembly, matrix, eps, eps_hash, backend
    ) -> LinearSolver:
        akey = (assembly.grid, round(assembly.omega, 12), assembly.pml)
        eps_flat = eps.ravel().copy()
        with self._anchor_lock:
            anchors = self._anchor_pool(akey)
            if eps_hash in anchors:
                # The solver cache evicted this permittivity but its LU
                # survives as an anchor: exact solves, no iteration.
                return DirectSolver(
                    matrix, anchors[eps_hash].lu, self.solver_stats
                )
            if not anchors:
                # First permittivity of the epoch — the nominal corner in
                # the optimizer loop.  Factorize it; siblings recycle it.
                lu = self.factor_options.splu(matrix)
                self.solver_stats.add(factorizations=1)
                anchors[eps_hash] = _PrecondAnchor(eps_flat, lu)
                return DirectSolver(matrix, lu, self.solver_stats)
            nearest = min(
                anchors.values(),
                key=lambda a: float(np.linalg.norm(a.eps - eps_flat)),
            )
        return make_linear_solver(
            backend,
            matrix,
            self.factor_options,
            config=self.solver_config,
            stats=self.solver_stats,
            preconditioner=nearest.lu,
            on_fallback=lambda direct: self._add_anchor(
                akey, eps_hash, eps_flat, direct.lu
            ),
        )

    def _add_anchor(self, akey, eps_hash, eps_flat, lu) -> None:
        with self._anchor_lock:
            anchors = self._anchor_pool(akey)
            anchors[eps_hash] = _PrecondAnchor(eps_flat, lu)
            while len(anchors) > self.solver_config.max_anchors:
                anchors.popitem(last=False)

    @property
    def solver_uses_preconditioner(self) -> bool:
        """Whether the configured backend recycles anchor factorizations.

        The optimizer uses this to decide if the first corner of an
        iteration must be solved before the executor fan-out (so the
        anchor is established deterministically).
        """
        backend = SOLVER_REGISTRY[self.solver_config.backend]
        return bool(getattr(backend, "uses_preconditioner", False))

    def with_solver_config(
        self, solver_config: SolverConfig | str | None
    ) -> "SimulationWorkspace":
        """A fresh workspace with this one's options but another backend.

        Factorization options and cache bounds carry over; caches start
        cold (solver objects are backend-specific).
        """
        return SimulationWorkspace(
            max_assemblies=self._assemblies.maxsize,
            max_factorizations=self._factorizations.maxsize,
            max_modes=self._modes.maxsize,
            factor_options=self.factor_options,
            solver_config=solver_config,
        )

    def merge_solver_stats(self, counts: dict) -> None:
        """Fold a worker process's solver-stats delta into this workspace.

        The parent half of the process fan-out's stats contract: workers
        snapshot their own (re-warmed, per-worker) workspace around each
        task and ship ``SolveStats.delta_since`` dicts home with the
        results; merging them here makes :meth:`stats` report the whole
        fleet's factorizations, sweeps and fallbacks.  Empty deltas are
        a no-op.
        """
        if counts:
            self.solver_stats.merge(counts)

    def retire_solvers(self) -> None:
        """End a reuse unit: cached solvers become the previous generation.

        Called at the start of every optimizer iteration (through
        :meth:`begin_solver_epoch`) and of every Monte-Carlo sample.  A
        retired solver still serves a cache hit — re-evaluating the same
        design refactorizes nothing — until the next solver is stored,
        which releases every retired one.  The release is deliberately
        lazy: the old LUs are freed as the new one lands, so the
        allocator reuses their pages instead of returning them to the OS
        and faulting them back in for the next factorization.
        """
        self._factorizations.retire()

    def release_solvers(self) -> None:
        """End the last generation: drop every cached solver and anchor.

        Called when a run ends (``Boson1Optimizer.close()``), so a
        long-lived workspace — the process-wide one a ``repro serve``
        daemon shares across jobs — holds no LUs between runs.  Hit/miss
        and solver counters are kept.  With jobs running concurrently on
        one workspace, one job's release can only cost another job cache
        hits, never its bits: refactorizing the same matrix is
        deterministic.  (Krylov anchors are already shared that way —
        every job's ``begin_solver_epoch`` drops them for all.)
        """
        self._factorizations.release()
        with self._anchor_lock:
            self._anchors.clear()

    def begin_solver_epoch(self) -> None:
        """Start an optimizer iteration: retire solvers, drop anchors.

        The design pattern changes every iteration, so last iteration's
        solvers and anchors are stale.  Solvers are retired (see
        :meth:`retire_solvers`) on every backend; clearing the Krylov
        anchors makes the first factorization of the new iteration — the
        nominal corner — the anchor every other corner recycles.
        """
        self.retire_solvers()
        with self._anchor_lock:
            self._anchors.clear()

    def factorize(
        self, assembly: FdfdAssembly, eps_r: np.ndarray
    ) -> tuple[spla.SuperLU, sp.csc_matrix]:
        """LU + matrix of the system (direct-backend compatibility shim).

        Kept for callers predating :meth:`linear_solver`; requires a
        backend that actually holds an LU.
        """
        solver = self.linear_solver(assembly, eps_r)
        if solver.lu is None:
            raise RuntimeError(
                f"factorize() needs an LU-backed solver; backend "
                f"{self.solver_config.backend!r} returned none"
            )
        return solver.lu, solver.matrix

    def slab_mode(
        self, eps_line: np.ndarray, dl: float, omega: float, order: int
    ) -> WaveguideMode:
        """Cached 1-D eigenmode solve on a cross-section."""
        eps_line = np.asarray(eps_line, dtype=np.float64)
        key = (
            _hash_array(eps_line),
            eps_line.size,
            round(float(dl), 12),
            round(float(omega), 12),
            int(order),
        )
        cached = self._modes.get(key)
        if cached is None:
            cached = SlabModeSolver(eps_line, dl, omega).mode(order)
            self._modes.put(key, cached)
        return cached

    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, dict]:
        """Hit/miss counters and rates per cache (benchmark evidence).

        Each cache reports raw ``hits``/``misses``/``size`` plus
        ``hit_rate_pct`` (0.0 when the cache was never consulted); the
        ``factorizations`` entry also counts the solvers this workspace
        stored that are still referenced anywhere (the cache, an autodiff
        tape, a caller): ``live`` now, ``live_peak`` at most since
        construction or :meth:`clear`.  They describe this process, so
        they stay out of the ``solver`` entry, which aggregates backend
        work (factorizations, RHS columns, Krylov iterations, fallbacks)
        and sums across a fleet's workers.
        """
        report: dict[str, dict] = {}
        for name, cache in (
            ("assemblies", self._assemblies),
            ("factorizations", self._factorizations),
            ("modes", self._modes),
        ):
            total = cache.hits + cache.misses
            report[name] = {
                "hits": cache.hits,
                "misses": cache.misses,
                "size": len(cache),
                "hit_rate_pct": round(100.0 * cache.hits / total, 1) if total else 0.0,
            }
        with self._live_lock:
            report["factorizations"]["live"] = len(self._live_solvers)
            report["factorizations"]["live_peak"] = self._live_peak
        report["solver"] = {
            "backend": self.solver_config.backend,
            **self.solver_stats.as_dict(),
        }
        return report

    def clear(self) -> None:
        self._assemblies.clear()
        self._factorizations.clear()
        self._modes.clear()
        self.solver_stats.reset()
        with self._anchor_lock:
            self._anchors.clear()
        with self._live_lock:
            self._live_peak = len(self._live_solvers)

    # Pickling support: ship an empty workspace (LU objects cannot be
    # pickled; worker processes re-warm their own caches).
    def __getstate__(self):
        return {
            "factor_options": self.factor_options,
            "solver_config": self.solver_config,
            "max_assemblies": self._assemblies.maxsize,
            "max_factorizations": self._factorizations.maxsize,
            "max_modes": self._modes.maxsize,
        }

    def __setstate__(self, state):
        self.__init__(
            max_assemblies=state["max_assemblies"],
            max_factorizations=state["max_factorizations"],
            max_modes=state["max_modes"],
            factor_options=state["factor_options"],
            solver_config=state.get("solver_config"),
        )


_SHARED = SimulationWorkspace()


def shared_workspace() -> SimulationWorkspace:
    """The process-wide default workspace."""
    return _SHARED


def reset_shared_workspace() -> SimulationWorkspace:
    """Drop every shared cache (tests / benchmarks).

    Clears the shared instance *in place* so that every device, problem
    and solver holding a reference to it goes cold too, and returns it.
    """
    _SHARED.clear()
    return _SHARED
