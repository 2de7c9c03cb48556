"""Device base class: geometry + simulation + differentiable port powers.

A :class:`PhotonicDevice` ties together

* a :class:`~repro.fdfd.grid.SimGrid` and a rectangular *design region*,
* the fixed *background* waveguide geometry feeding the region,
* per-direction port sets (source, transmission, reflection, crosstalk),
* a cached *calibration run* per (direction, temperature scale) providing
  the input power ``P_in`` and the incident field for reflection
  subtraction, and
* the autodiff custom op ``rho_scaled -> normalized port powers`` whose
  VJP is one adjoint FDFD solve.

Subclasses define geometry, ports, initialization paths and the device
objective (Eq. 2 terms).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.autodiff import Tensor
from repro.autodiff.ops import as_tensor, custom_vjp_with_residuals
from repro.fdfd.adjoint import PortInfrastructure, PortPowerProblem, PortSpec
from repro.fdfd.grid import SimGrid
from repro.fdfd.linalg import SOLVER_REGISTRY
from repro.fdfd.solver import HelmholtzSolver
from repro.fdfd.workspace import SimulationWorkspace, _LRUCache, shared_workspace
from repro.params.initializers import PathSegment
from repro.utils.constants import EPS_SI, EPS_VOID, omega_from_wavelength

__all__ = [
    "PhotonicDevice",
    "DirectionSolveSummary",
    "ForwardSolveSummary",
]


def _pattern_digest(arr: np.ndarray) -> bytes:
    digest = hashlib.sha1()
    digest.update(np.ascontiguousarray(arr).view(np.uint8).data)
    return digest.digest()


@dataclass
class DirectionSolveSummary:
    """Pickle-clean by-products of one direction's forward FDFD solve.

    Produced in a worker process by
    :meth:`PhotonicDevice.solve_forward_summary` and consumed in the
    parent by :meth:`PhotonicDevice.port_powers_precomputed`: everything
    the taped adjoint needs without re-running (or shipping) the solve.

    The adjoint seam works because the adjoint right-hand side of a
    port-power objective always lies in the span of the per-port monitor
    functionals ``w_j`` (see :meth:`PortPowerProblem.adjoint_source`):
    ``v = sum_j g_j * coeff_j * w_j`` with ``coeff_j = gamma_j
    conj(c_j) / P_in`` known at forward time.  The worker therefore
    solves the *adjoint basis* ``y_j = A^{-T} w_j`` — cheap triangular
    sweeps against the forward factorization, batched where the backend
    allows — and the parent's VJP is pure linear algebra:
    ``lam = sum_j g_j coeff_j y_j``.
    """

    direction: str
    #: Normalized port powers in :meth:`PhotonicDevice.port_names` order.
    powers: np.ndarray
    #: Per-port complex adjoint coefficients ``gamma_j conj(c_j) / P_in``.
    adjoint_coeffs: np.ndarray = field(repr=False)
    #: Flattened complex forward field ``ez``.
    ez: np.ndarray = field(repr=False)
    #: ``(n_cells, n_ports)`` adjoint-basis columns ``A^{-T} w_j``.
    adjoint_basis: np.ndarray = field(repr=False)


@dataclass
class ForwardSolveSummary:
    """One corner's forward-solve summary: all directions + provenance.

    ``rho_digest`` fingerprints the scaled design occupancy the worker
    solved, so :meth:`PhotonicDevice.port_powers_precomputed` can refuse
    a summary that does not belong to the tensor it is being attached to
    (a silent mismatch would produce plausible-looking wrong gradients).
    """

    directions: list[DirectionSolveSummary]
    alpha_bg: float
    rho_digest: bytes = field(repr=False)


class PhotonicDevice:
    """Base class for benchmark devices.

    Parameters
    ----------
    grid:
        Simulation window.
    design_slice:
        ``(slice_x, slice_y)`` of the design region in grid cells.
    wavelength_um:
        Operating free-space wavelength.
    eps_solid:
        Nominal solid permittivity (silicon at 300 K by default).

    Subclass contract
    -----------------
    * ``directions`` — propagation directions to simulate, e.g.
      ``("fwd",)`` or ``("fwd", "bwd")``.
    * :meth:`background_occupancy` — binary full-grid occupancy of the
      fixed waveguides, **zero inside the design window**.
    * :meth:`monitor_ports` / :meth:`source_port` — per direction.
    * :meth:`calibration_occupancy` / :meth:`calibration_monitor` — the
      straight-guide geometry and monitor measuring launched power.
    * :meth:`init_segments` — light-concentrated initialization paths in
      design-region coordinates.
    * :meth:`objective_terms` — the Eq. (2) objective description.
    * :meth:`fom` — scalar figure of merit from per-direction powers
      (higher is NOT always better; see ``fom_lower_is_better``).
    """

    name: str = "device"
    directions: tuple[str, ...] = ("fwd",)
    #: True when the FoM is a cost (the isolator's contrast ratio).
    fom_lower_is_better: bool = False
    #: Memoized per-wavelength clones kept per device (LRU; each holds
    #: full-grid calibration fields, so the bound matters).
    _MAX_WAVELENGTH_CLONES: int = 32
    #: Calibration runs kept per device (LRU).  Each entry pins a
    #: full-grid incident field, and evaluation workloads mint one
    #: (direction, alpha) key per Monte-Carlo temperature draw — without
    #: a bound a long-lived device (e.g. one parked in a worker's warm
    #: pool) would accumulate them without limit.  Monte-Carlo samples
    #: also end each entry's life early (:meth:`release_calibrations`).
    _MAX_CALIBRATIONS: int = 32

    def __init__(
        self,
        grid: SimGrid,
        design_slice: tuple[slice, slice],
        wavelength_um: float = 1.55,
        eps_solid: float = EPS_SI,
        simulation_cache: bool = True,
        workspace: SimulationWorkspace | None = None,
    ):
        self.grid = grid
        self.design_slice = design_slice
        self.wavelength_um = float(wavelength_um)
        self.omega = omega_from_wavelength(wavelength_um)
        self.eps_solid = float(eps_solid)
        sx, sy = design_slice
        self.design_shape = (
            len(range(*sx.indices(grid.nx))),
            len(range(*sy.indices(grid.ny))),
        )
        self._background = None
        self._calibration_cache = _LRUCache(self._MAX_CALIBRATIONS)
        self._wavelength_clones: dict[float, "PhotonicDevice"] = {}
        self.configure_simulation_cache(simulation_cache, workspace)

    def configure_simulation_cache(
        self,
        enabled: bool,
        workspace: SimulationWorkspace | None = None,
    ) -> None:
        """Switch the simulation caching layer on or off.

        Parameters
        ----------
        enabled:
            When True (the default at construction) the device routes
            every solve through a
            :class:`~repro.fdfd.workspace.SimulationWorkspace` and
            memoizes the per-direction port infrastructure.  When False
            every solve rebuilds operators, modes and monitors — the
            seed behaviour, kept for cold-path benchmarks and cache
            correctness tests.
        workspace:
            Explicit workspace to use when ``enabled``; defaults to the
            process-shared one.  Ignored when ``enabled`` is False.

        Both paths produce bit-identical powers and gradients (asserted
        by the test suite); only the wall time differs.
        """
        self.simulation_cache = bool(enabled)
        if self.simulation_cache:
            self.workspace = workspace or shared_workspace()
        else:
            self.workspace = None
        self._calibration_cache.clear()
        self._wavelength_clones.clear()
        # A reconfigured device is a different worker payload: drop the
        # warm-pool token (if one was minted) so process-pool workers
        # re-seed from the fresh pickle instead of serving the cached
        # copy with the old workspace/backend.
        self.__dict__.pop("_worker_token", None)

    # Wavelength clones and calibration runs hold full-grid fields and
    # are cheap for workers to re-solve (content-addressed, bit-stable);
    # dropping them keeps pickled devices (process-pool workers, which
    # re-pickle the device once per chunk) lean.  The calibration cache
    # (and its lock) is re-created empty on unpickle.
    def __getstate__(self):
        state = dict(self.__dict__)
        state["_wavelength_clones"] = {}
        state.pop("_calibration_cache", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._calibration_cache = _LRUCache(self._MAX_CALIBRATIONS)

    def at_wavelength(self, wavelength_um: float) -> "PhotonicDevice":
        """A memoized clone of this device at another wavelength.

        The clone shares the geometry, background occupancy and the
        simulation workspace (so slab-mode and assembly caches persist
        across wavelengths and repeated sweeps) but keeps its own
        ``omega`` and calibration cache — a second sweep over the same
        wavelengths reuses every calibration run instead of re-solving
        cold.
        """
        key = round(float(wavelength_um), 12)
        if key == round(self.wavelength_um, 12):
            return self
        clone = self._wavelength_clones.get(key)
        if clone is None:
            cls = type(self)
            clone = cls.__new__(cls)
            clone.__dict__.update(self.__dict__)
            clone.wavelength_um = float(wavelength_um)
            clone.omega = omega_from_wavelength(wavelength_um)
            clone._calibration_cache = _LRUCache(self._MAX_CALIBRATIONS)
            clone._wavelength_clones = {}
            # The clone is a different worker payload than its base
            # device (different omega): it must mint its own warm-pool
            # token rather than inherit the base's via __dict__.update,
            # or a reused process pool would serve the base device from
            # the warm cache for every clone solve.
            clone.__dict__.pop("_worker_token", None)
            self._wavelength_clones[key] = clone
            # Bounded LRU: each clone pins full-grid calibration fields,
            # so a long-lived device sweeping many wavelengths must not
            # accumulate them without limit.
            while len(self._wavelength_clones) > self._MAX_WAVELENGTH_CLONES:
                self._wavelength_clones.pop(next(iter(self._wavelength_clones)))
        else:
            # Refresh recency (plain dicts preserve insertion order).
            self._wavelength_clones[key] = self._wavelength_clones.pop(key)
        return clone

    def for_corner(self, corner) -> "PhotonicDevice":
        """The device clone a variation corner should be simulated on.

        A corner with no wavelength axis (``wavelength_um=None``) runs
        on this device unchanged — the path every pre-scenario corner
        takes — while scenario-family members route to their
        :meth:`at_wavelength` clone (which is ``self`` again when the
        pinned wavelength equals this device's centre wavelength).
        """
        if corner.wavelength_um is None:
            return self
        return self.at_wavelength(corner.wavelength_um)

    # ------------------------------------------------------------------ #
    # Geometry interface (subclasses)                                    #
    # ------------------------------------------------------------------ #
    def background_occupancy(self) -> np.ndarray:
        """Binary occupancy of fixed waveguides; zero in design window."""
        raise NotImplementedError

    def monitor_ports(self, direction: str) -> Sequence[PortSpec]:
        raise NotImplementedError

    def source_port(self, direction: str) -> PortSpec:
        raise NotImplementedError

    def calibration_occupancy(self, direction: str) -> np.ndarray:
        """Full-grid occupancy of the calibration (norm-run) geometry."""
        raise NotImplementedError

    def calibration_monitor(self, direction: str) -> PortSpec:
        """Port measuring the launched power in the calibration run."""
        raise NotImplementedError

    def init_segments(self) -> list[PathSegment]:
        """Light-concentrated initialization paths (design coords, um)."""
        raise NotImplementedError

    def objective_terms(self) -> dict:
        """Objective description consumed by :mod:`repro.core.objective`."""
        raise NotImplementedError

    def fom(self, powers: Mapping[str, Mapping[str, float]]) -> float:
        """Scalar figure of merit from per-direction port powers."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Derived geometry helpers                                           #
    # ------------------------------------------------------------------ #
    @property
    def dl(self) -> float:
        return self.grid.dl

    def cached_background(self) -> np.ndarray:
        if self._background is None:
            bg = np.asarray(self.background_occupancy(), dtype=np.float64)
            if bg.shape != self.grid.shape:
                raise ValueError("background occupancy has wrong shape")
            if np.any(bg[self.design_slice] != 0):
                raise ValueError(
                    "background occupancy must be zero inside the design "
                    "window"
                )
            self._background = bg
        return self._background

    def design_origin_um(self) -> tuple[float, float]:
        """Bottom-left corner of the design region in window coordinates."""
        sx, sy = self.design_slice
        return (sx.start * self.dl, sy.start * self.dl)

    def litho_context(self, pad: int) -> np.ndarray:
        """Context tile for the fabrication model.

        The background occupancy in a ``pad``-cell collar around the
        design region, on the padded design tile (zero in the centre).
        """
        bg = self.cached_background()
        sx, sy = self.design_slice
        nx, ny = self.design_shape
        tile = np.zeros((nx + 2 * pad, ny + 2 * pad))
        # Global-grid window the tile covers, clipped to the grid.
        gx0, gy0 = sx.start - pad, sy.start - pad
        cx0, cy0 = max(gx0, 0), max(gy0, 0)
        cx1 = min(gx0 + tile.shape[0], self.grid.nx)
        cy1 = min(gy0 + tile.shape[1], self.grid.ny)
        tile[cx0 - gx0 : cx1 - gx0, cy0 - gy0 : cy1 - gy0] = bg[cx0:cx1, cy0:cy1]
        tile[pad : pad + nx, pad : pad + ny] = 0.0
        return tile

    def eps_from_occupancy(self, occupancy: np.ndarray) -> np.ndarray:
        """Permittivity map from a (possibly alpha-scaled) occupancy."""
        return EPS_VOID + (self.eps_solid - EPS_VOID) * occupancy

    # ------------------------------------------------------------------ #
    # Calibration (normalization runs)                                   #
    # ------------------------------------------------------------------ #
    def _problem(self, direction: str) -> PortPowerProblem:
        return PortPowerProblem(
            self.grid,
            self.omega,
            list(self.monitor_ports(direction)),
            self.source_port(direction),
            workspace=self.workspace,
        )

    def _line_in_design(self, plane: int, span: slice, axis: str) -> bool:
        """Whether a port line intersects the design window."""
        sx, sy = self.design_slice
        x_range = range(*sx.indices(self.grid.nx))
        y_range = range(*sy.indices(self.grid.ny))
        if axis == "x":
            trans = range(*span.indices(self.grid.ny))
            return plane in x_range and bool(set(trans) & set(y_range))
        trans = range(*span.indices(self.grid.nx))
        return plane in y_range and bool(set(trans) & set(x_range))

    def _port_infrastructure(
        self, problem: PortPowerProblem, direction: str, alpha_bg: float
    ) -> PortInfrastructure | None:
        """Precomputed monitors + source for one (direction, alpha_bg).

        Port cross-sections lie outside the design window, so the
        environment permittivity (scaled background, empty design
        region) determines their modes for *every* design pattern.  If a
        device ever places a port inside the design window this returns
        ``None`` and modes fall back to per-solve computation.
        """
        for port in (problem.source_port, *problem.ports):
            plane, span = problem.port_plane_and_span(port)
            if self._line_in_design(plane, span, port.axis):
                return None
        eps_env = self.eps_from_occupancy(self.cached_background() * alpha_bg)
        return problem.prepare(eps_env)

    def _calibration_entry(self, direction: str, alpha_bg: float) -> tuple:
        """The cached ``((problem, p_in, incident), infra)`` for one key.

        Thread-safe: the LRU bookkeeping (recency touch, insertion,
        eviction) happens under the cache's lock, while the calibration
        solve itself runs outside it — concurrent cold misses on one key
        duplicate the solve benignly (entries are content-addressed;
        last writer wins with identical bits), which matches the pre-LRU
        behaviour of the threaded corner fan-out.  Returning the whole
        entry also spares callers a second cache read that a concurrent
        eviction could invalidate.
        """
        key = (direction, round(float(alpha_bg), 9))
        entry = self._calibration_cache.get(key)
        if entry is not None:
            return entry
        problem = self._problem(direction)
        calib_occ = np.asarray(
            self.calibration_occupancy(direction), dtype=np.float64
        )
        eps_calib = self.eps_from_occupancy(calib_occ * alpha_bg)
        calib_port = self.calibration_monitor(direction)
        calib_problem = PortPowerProblem(
            self.grid,
            self.omega,
            [calib_port],
            self.source_port(direction),
            workspace=self.workspace,
        )
        sol = calib_problem.solve(eps_calib)
        p_in = sol.raw_powers[calib_port.name]
        if p_in <= 0:
            raise RuntimeError(
                f"calibration run for {self.name}/{direction} launched "
                "no power — check the port geometry"
            )
        incident = sol.fields.ez
        infra = (
            self._port_infrastructure(problem, direction, alpha_bg)
            if self.simulation_cache
            else None
        )
        entry = ((problem, p_in, incident), infra)
        self._calibration_cache.put(key, entry)
        return entry

    def release_calibrations(self) -> None:
        """Drop every cached calibration run (one Monte-Carlo sample ends).

        A Monte-Carlo sample's temperature draw mints a key no other
        sample uses, so without this a warm device would fill its cache
        with single-use full-grid fields.  Unlike LUs, which
        :meth:`SimulationWorkspace.retire_solvers` releases lazily so the
        next factorization reuses their pages, calibrations are dropped
        at once: nothing could hit them, and freeing them before the
        sample's LUs are allocated keeps the heap from fragmenting around
        them.  The design loop never releases: its few ``alpha_bg`` keys
        hit every iteration.
        """
        self._calibration_cache.release()

    def calibration(
        self, direction: str, alpha_bg: float = 1.0
    ) -> tuple[PortPowerProblem, float, np.ndarray]:
        """Problem, input power and incident field for one direction.

        ``alpha_bg`` is the temperature occupancy scale applied to the
        background (cached per rounded value, since temperature corners
        shift the launched power slightly).
        """
        return self._calibration_entry(direction, alpha_bg)[0]

    def _calibration_with_infra(
        self, direction: str, alpha_bg: float
    ) -> tuple[PortPowerProblem, float, np.ndarray, PortInfrastructure | None]:
        (problem, p_in, incident), infra = self._calibration_entry(
            direction, alpha_bg
        )
        return problem, p_in, incident, infra

    # ------------------------------------------------------------------ #
    # Differentiable port powers                                         #
    # ------------------------------------------------------------------ #
    def port_names(self, direction: str) -> list[str]:
        return [p.name for p in self.monitor_ports(direction)]

    def _power_op(
        self, direction: str, alpha_bg: float
    ) -> Callable[[Tensor], Tensor]:
        """Custom op: design occupancy -> normalized port power vector."""
        problem, p_in, incident, infra = self._calibration_with_infra(
            direction, alpha_bg
        )
        names = self.port_names(direction)
        bg_scaled = self.cached_background() * alpha_bg
        dslice = self.design_slice
        contrast = self.eps_solid - EPS_VOID

        def forward(occ_design):
            occ = bg_scaled.copy()
            occ[dslice] = occ_design
            eps = self.eps_from_occupancy(occ)
            sol = problem.solve(eps, incident_ez=incident, infra=infra)
            powers = np.array(
                [sol.raw_powers[n] / p_in for n in names], dtype=np.float64
            )
            return powers, sol

        def vjp(g, out, sol, occ_design):
            cotangents = {n: float(gi) for n, gi in zip(names, g)}
            grad_eps = problem.grad_eps(sol, cotangents, input_power=p_in)
            return (grad_eps[dslice] * contrast,)

        return custom_vjp_with_residuals(
            forward, vjp, name=f"{self.name}:{direction}:powers"
        )

    def port_powers(
        self, rho_scaled, direction: str, alpha_bg: float = 1.0
    ) -> dict[str, Tensor]:
        """Normalized port powers of a design pattern (differentiable).

        Parameters
        ----------
        rho_scaled:
            Scaled design occupancy (design-region shape), i.e. the
            fabrication chain's output ``rho_tilde'`` in ``[0, alpha_t]``.
        direction:
            One of :attr:`directions`.
        alpha_bg:
            Temperature scale for the *background* (held constant on the
            tape; the design's own temperature dependence arrives through
            ``rho_scaled``).
        """
        if direction not in self.directions:
            raise ValueError(
                f"unknown direction {direction!r}; have {self.directions}"
            )
        rho_scaled = as_tensor(rho_scaled)
        if tuple(rho_scaled.shape) != self.design_shape:
            raise ValueError(
                f"design shape {rho_scaled.shape} != {self.design_shape}"
            )
        op = self._power_op(direction, alpha_bg)
        vector = op(rho_scaled)
        return {
            name: vector[i] for i, name in enumerate(self.port_names(direction))
        }

    def port_powers_all(
        self, rho_scaled, alpha_bg: float = 1.0
    ) -> dict[str, dict[str, Tensor]]:
        """Normalized port powers for *every* direction (differentiable).

        With a batching solver backend (``--solver batched``) and a
        multi-direction device, all forward sources sharing this
        permittivity are stacked into one matrix-RHS solve and, on the
        backward pass, all adjoint systems into one transposed sweep —
        the isolator's fwd+bwd pair costs two triangular sweeps instead
        of four solver round-trips.  Otherwise this is the per-direction
        loop, term for term identical to calling :meth:`port_powers`.
        """
        op = self._power_op_all(alpha_bg) if self._batches_directions() else None
        if op is None:
            return {
                d: self.port_powers(rho_scaled, d, alpha_bg)
                for d in self.directions
            }
        rho_scaled = as_tensor(rho_scaled)
        if tuple(rho_scaled.shape) != self.design_shape:
            raise ValueError(
                f"design shape {rho_scaled.shape} != {self.design_shape}"
            )
        return self._split_by_direction(op(rho_scaled), lambda entry: entry)

    def _split_by_direction(self, vector, wrap) -> dict[str, dict]:
        """Unflatten a concatenated power vector back to per-direction dicts.

        The inverse of the ordering :meth:`_power_op_all` emits; shared
        by the taped (``wrap`` = identity on Tensor entries) and no-tape
        (``wrap`` = float) callers so the layouts cannot drift apart.
        """
        result: dict[str, dict] = {}
        offset = 0
        for direction in self.directions:
            names = self.port_names(direction)
            result[direction] = {
                name: wrap(vector[offset + i]) for i, name in enumerate(names)
            }
            offset += len(names)
        return result

    def _batches_directions(self) -> bool:
        """Whether the workspace backend amortizes stacked RHS columns."""
        if len(self.directions) < 2 or self.workspace is None:
            return False
        backend = SOLVER_REGISTRY[self.workspace.solver_config.backend]
        return bool(getattr(backend, "batches_rhs", False))

    def _power_op_all(self, alpha_bg: float):
        """Multi-direction power op; ``None`` when batching can't apply."""
        infos = []
        for direction in self.directions:
            problem, p_in, incident, infra = self._calibration_with_infra(
                direction, alpha_bg
            )
            if infra is None:
                # A port touches the design window: modes depend on the
                # pattern, so sources can't be precomputed or stacked.
                return None
            infos.append(
                (direction, problem, p_in, incident, infra, self.port_names(direction))
            )
        bg_scaled = self.cached_background() * alpha_bg
        dslice = self.design_slice
        contrast = self.eps_solid - EPS_VOID
        pml = infos[0][1].pml

        def forward(occ_design):
            occ = bg_scaled.copy()
            occ[dslice] = occ_design
            eps = self.eps_from_occupancy(occ)
            solver = HelmholtzSolver(
                self.grid, eps, self.omega, pml, workspace=self.workspace
            )
            rhs = np.stack(
                [
                    (-1j * self.omega)
                    * info[4].source_jz.ravel().astype(np.complex128)
                    for info in infos
                ],
                axis=1,
            )
            ez_block = solver.solve_many(rhs)
            powers = []
            solutions = []
            for j, (direction, problem, p_in, incident, infra, names) in enumerate(
                infos
            ):
                fields = solver.fields_from_ez(np.ascontiguousarray(ez_block[:, j]))
                sol = problem.measure(solver, fields, incident, infra)
                solutions.append(sol)
                powers.extend(sol.raw_powers[n] / p_in for n in names)
            return np.array(powers, dtype=np.float64), (solver, solutions)

        def vjp(g, out, residuals, occ_design):
            solver, solutions = residuals
            adjoint_rhs = []
            offset = 0
            for (direction, problem, p_in, incident, infra, names), sol in zip(
                infos, solutions
            ):
                cotangents = {
                    n: float(g[offset + i]) for i, n in enumerate(names)
                }
                offset += len(names)
                adjoint_rhs.append(
                    problem.adjoint_source(sol, cotangents, input_power=p_in)
                )
            lam_block = solver.solve_many(np.stack(adjoint_rhs, axis=1), trans="T")
            grad = np.zeros(self.grid.shape, dtype=np.float64)
            for j, ((direction, problem, *_rest), sol) in enumerate(
                zip(infos, solutions)
            ):
                grad += problem.grad_from_adjoint(
                    sol, np.ascontiguousarray(lam_block[:, j])
                )
            return (grad[dslice] * contrast,)

        return custom_vjp_with_residuals(
            forward, vjp, name=f"{self.name}:all:powers"
        )

    # ------------------------------------------------------------------ #
    # Forward-replay seam (process-pool corner fan-out)                  #
    # ------------------------------------------------------------------ #
    def solve_forward_summary(
        self, rho_scaled: np.ndarray, alpha_bg: float = 1.0
    ) -> ForwardSolveSummary:
        """Forward solves only, packaged as a pickle-clean summary.

        The worker half of the process-pool corner fan-out: run in a
        forked worker on a plain numpy ``rho_scaled`` (the fabrication
        chain's output — the chain itself stays taped in the parent),
        it performs each direction's forward FDFD solve plus the
        per-port adjoint-basis sweeps ``y_j = A^{-T} w_j`` against the
        same factorization, and returns arrays and scalars only — no
        tape, no LU objects, no workspace.  Feed the result to
        :meth:`port_powers_precomputed` in the parent to rebuild the
        differentiable port powers without re-solving anything.
        """
        rho = np.asarray(rho_scaled, dtype=np.float64)
        if rho.shape != self.design_shape:
            raise ValueError(
                f"design shape {rho.shape} != {self.design_shape}"
            )
        summaries: list[DirectionSolveSummary] = []
        for direction in self.directions:
            problem, p_in, incident, infra = self._calibration_with_infra(
                direction, alpha_bg
            )
            occ = self.cached_background() * alpha_bg
            occ[self.design_slice] = rho
            eps = self.eps_from_occupancy(occ)
            sol = problem.solve(eps, incident_ez=incident, infra=infra)
            names = self.port_names(direction)
            powers = np.array(
                [sol.raw_powers[n] / p_in for n in names], dtype=np.float64
            )
            weights = np.stack(
                [
                    np.asarray(
                        sol.monitors[n].weight_vector(), dtype=np.complex128
                    )
                    for n in names
                ],
                axis=1,
            )
            basis = sol.solver.solve_many(weights, trans="T")
            coeffs = np.array(
                [
                    sol.monitors[n].power_factor
                    * np.conj(sol.amplitudes[n])
                    / p_in
                    for n in names
                ],
                dtype=np.complex128,
            )
            summaries.append(
                DirectionSolveSummary(
                    direction=direction,
                    powers=powers,
                    adjoint_coeffs=coeffs,
                    ez=sol.fields.ez.ravel().copy(),
                    adjoint_basis=np.ascontiguousarray(basis),
                )
            )
        return ForwardSolveSummary(
            directions=summaries,
            alpha_bg=float(alpha_bg),
            rho_digest=_pattern_digest(rho),
        )

    def port_powers_precomputed(
        self,
        rho_scaled,
        summary: ForwardSolveSummary,
        alpha_bg: float | None = None,
    ) -> dict[str, dict[str, Tensor]]:
        """Differentiable port powers from precomputed fields (no solve).

        The parent half of the process-pool corner fan-out, and the
        custom-op seam the tentpole is built on: the forward pass simply
        returns the worker-computed powers, while the VJP assembles the
        adjoint field from the summary's basis columns —
        ``lam = sum_j g_j coeff_j y_j`` per direction, then the standard
        ``-2 omega^2 Re(lam * ez)`` permittivity gradient — so the taped
        backward pass runs entirely in the parent with zero FDFD solves.
        Gradients match the in-process path to solver precision (the
        adjoint is recombined from per-port solves instead of one
        aggregated solve).

        ``rho_scaled`` must be the exact tensor whose ``.data`` the
        worker solved; a digest mismatch raises.  Pass ``alpha_bg`` to
        additionally pin the background temperature scale the summary
        was solved at — the same design array solved at a different
        corner temperature is a different system, and the digest alone
        cannot tell them apart.
        """
        if alpha_bg is not None and float(alpha_bg) != summary.alpha_bg:
            raise ValueError(
                f"precomputed solve summary was produced at "
                f"alpha_bg={summary.alpha_bg!r}, not the expected "
                f"{float(alpha_bg)!r}"
            )
        rho_scaled = as_tensor(rho_scaled)
        if tuple(rho_scaled.shape) != self.design_shape:
            raise ValueError(
                f"design shape {rho_scaled.shape} != {self.design_shape}"
            )
        if [s.direction for s in summary.directions] != list(self.directions):
            raise ValueError(
                f"summary directions "
                f"{[s.direction for s in summary.directions]} != device "
                f"directions {list(self.directions)}"
            )
        expected = [len(self.port_names(d)) for d in self.directions]
        for s, n_ports in zip(summary.directions, expected):
            if s.powers.size != n_ports or s.adjoint_basis.shape[1] != n_ports:
                raise ValueError(
                    f"summary for direction {s.direction!r} carries "
                    f"{s.powers.size} powers / "
                    f"{s.adjoint_basis.shape[1]} basis columns for "
                    f"{n_ports} ports"
                )
        dslice = self.design_slice
        contrast = self.eps_solid - EPS_VOID
        omega = self.omega
        grid_shape = self.grid.shape
        digest = summary.rho_digest
        directions = summary.directions

        def forward(occ_design):
            if _pattern_digest(occ_design) != digest:
                raise ValueError(
                    "precomputed solve summary does not match this design "
                    "occupancy — it was produced for a different pattern"
                )
            return np.concatenate([s.powers for s in directions]), None

        def vjp(g, out, residuals, occ_design):
            grad = np.zeros(grid_shape, dtype=np.float64)
            offset = 0
            for s in directions:
                k = s.powers.size
                lam = s.adjoint_basis @ (
                    np.asarray(g[offset : offset + k], dtype=np.float64)
                    * s.adjoint_coeffs
                )
                grad += (-2.0 * omega**2 * np.real(lam * s.ez)).reshape(
                    grid_shape
                )
                offset += k
            return (grad[dslice] * contrast,)

        op = custom_vjp_with_residuals(
            forward, vjp, name=f"{self.name}:precomputed:powers"
        )
        return self._split_by_direction(op(rho_scaled), lambda entry: entry)

    def port_powers_array(
        self, rho_scaled: np.ndarray, direction: str, alpha_bg: float = 1.0
    ) -> dict[str, float]:
        """Plain numpy port powers (evaluation path, no tape)."""
        problem, p_in, incident, infra = self._calibration_with_infra(
            direction, alpha_bg
        )
        occ = self.cached_background() * alpha_bg
        occ[self.design_slice] = rho_scaled
        sol = problem.solve(
            self.eps_from_occupancy(occ), incident_ez=incident, infra=infra
        )
        return {n: sol.raw_powers[n] / p_in for n in self.port_names(direction)}

    def port_powers_array_all(
        self, rho_scaled: np.ndarray, alpha_bg: float = 1.0
    ) -> dict[str, dict[str, float]]:
        """Plain numpy port powers for *every* direction (no tape).

        The evaluation-path counterpart of :meth:`port_powers_all`: with
        a batching backend and a multi-direction device the forward
        sources stack into one matrix-RHS solve; otherwise it loops
        :meth:`port_powers_array` with identical results.
        """
        op = self._power_op_all(alpha_bg) if self._batches_directions() else None
        if op is None:
            return {
                d: self.port_powers_array(rho_scaled, d, alpha_bg)
                for d in self.directions
            }
        vector = op(np.asarray(rho_scaled, dtype=np.float64)).data
        return self._split_by_direction(vector, float)
