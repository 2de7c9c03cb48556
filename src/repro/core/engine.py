"""End-to-end BOSON-1 inverse-design engine.

:class:`Boson1Optimizer` wires every subsystem together:

    theta --P--> pattern --[L_l, E_eta, T_t]--> scaled pattern
          --FDFD+adjoint--> port powers --Eq.2--> corner loss
          --Eq.3 blend + corner aggregation--> scalar loss --Adam--> theta'

All paper techniques are :class:`~repro.core.config.OptimizerConfig`
switches; see that module for the ablation mapping.
"""

from __future__ import annotations

import functools
import logging
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.autodiff import Tensor
from repro.core.checkpoint import (
    CheckpointManager,
    DesignCheckpoint,
    GracefulShutdown,
    config_digest,
)
from repro.core.config import OptimizerConfig
from repro.core.executors import (
    SerialExecutor,
    make_executor,
    map_ordered_with_serial_head,
    run_warm_task,
    stable_worker_token,
)
from repro.core.objective import (
    aggregate_losses,
    build_loss,
    parse_aggregate,
    radiation_power,
)
from repro.core.optimizer import Adam
from repro.core.relaxation import RelaxationSchedule
from repro.core.remote import RemoteFleetDead
from repro.core.sampling import (
    ScenarioFamilySampling,
    make_sampling_strategy,
)
from repro.devices.base import PhotonicDevice
from repro.fab.corners import VariationCorner
from repro.obs.export import TraceSession
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer, span, tracing_active
from repro.fab.litho import GaussianLithography
from repro.fab.process import FabricationProcess
from repro.fab.temperature import alpha_of_temperature
from repro.fab.etch import tanh_projection
from repro.params.density import DensityParameterization
from repro.params.levelset import LevelSetParameterization
from repro.params.initializers import (
    random_theta,
    rasterize_segments,
    theta_from_pattern,
)
from repro.utils.seeding import get_rng_state, rng_from_seed, set_rng_state

__all__ = [
    "Boson1Optimizer",
    "OptimizationResult",
    "IterationRecord",
    "NonFiniteStepError",
]

log = logging.getLogger("repro.engine")


class NonFiniteStepError(FloatingPointError):
    """An iteration produced a non-finite loss or gradient.

    Raised before the iteration is recorded, streamed, stepped or
    checkpointed, so theta, the Adam state and the last checkpoint all
    still describe the last good iteration.
    """


def _check_finite_step(iteration: int, loss: float, grad: np.ndarray) -> None:
    """Raise :class:`NonFiniteStepError` unless loss and gradient are finite."""
    bad = int(grad.size - np.count_nonzero(np.isfinite(grad)))
    if np.isfinite(loss) and bad == 0:
        return
    raise NonFiniteStepError(
        f"iteration {iteration}: non-finite step (loss={loss!r}, "
        f"{bad} of {grad.size} gradient entries non-finite); the step "
        f"was refused, so theta and the last checkpoint predate it"
    )


class _CornerWorkerState:
    """Per-worker warm state of one optimizer's process corner fan-out.

    Lives in the worker's :func:`repro.core.executors.worker_warm` pool:
    the device (and its re-warmed simulation workspace) survives across
    chunks and iterations, and ``epoch`` tracks the parent's solver
    epoch so preconditioner anchors are dropped exactly once per
    iteration — the worker-side mirror of the parent's
    ``begin_solver_epoch`` call.
    """

    def __init__(self, device: PhotonicDevice):
        self.device = device
        self.epoch: int | None = None

    def summarize(self, epoch: int, alpha_bg: float, rho_fab: np.ndarray):
        workspace = self.device.workspace
        if workspace is not None and epoch != self.epoch:
            workspace.begin_solver_epoch()
        self.epoch = epoch
        return self.device.solve_forward_summary(rho_fab, alpha_bg)


def _corner_forward_task(token, device, epoch, capture, item):
    """One forward-replay task (module-level so process pools can pickle).

    ``item`` is a pickle-clean ``(alpha_bg, rho_fab array)`` pair; the
    result is ``(ForwardSolveSummary, solver-stats delta, worker
    identity, obs payload)``.  The identity rides along as evidence that
    workers actually ran (asserted by tests and recorded by the
    benchmark); the obs payload (span tree + metric deltas, only when
    the parent's tracing was active at dispatch — ``capture`` is baked
    into the pickled partial) rides the same seam home.  The warm-pool /
    stats-delta / inline-parent protocol lives in
    :func:`repro.core.executors.run_warm_task`; the inline variant
    skips the epoch reset (the parent manages its own epochs).
    """
    alpha_bg, rho_fab = item
    return run_warm_task(
        token,
        _CornerWorkerState(device),
        lambda state: state.summarize(epoch, alpha_bg, rho_fab),
        lambda state: state.device.workspace,
        inline_task=lambda state: state.device.solve_forward_summary(
            rho_fab, alpha_bg
        ),
        capture_obs=capture,
    )


@dataclass
class IterationRecord:
    """Per-iteration trace entry (feeds the Fig. 5 trajectory plots)."""

    iteration: int
    loss: float
    p: float
    n_corners: int
    fom: float
    powers: dict[str, dict[str, float]]
    #: Health of the step: the gradient's and the Adam update's 2-norms
    #: (NaN in records written before these fields existed).
    grad_norm: float = float("nan")
    step_norm: float = float("nan")

    def radiation(self, direction: str) -> float:
        """``1 - sum(ports)`` for one direction at this iteration."""
        return 1.0 - sum(self.powers[direction].values())


@dataclass
class OptimizationResult:
    """Output of one optimization run."""

    theta: np.ndarray
    pattern: np.ndarray
    history: list[IterationRecord]
    config: OptimizerConfig
    device_name: str
    final_loss: float = field(default=float("nan"))
    #: True when the run stopped early on a graceful-shutdown signal
    #: (the final checkpoint then holds everything needed to resume).
    interrupted: bool = field(default=False)

    @property
    def iterations_run(self) -> int:
        return len(self.history)

    def fom_trace(self) -> np.ndarray:
        return np.array([r.fom for r in self.history])

    def loss_trace(self) -> np.ndarray:
        return np.array([r.loss for r in self.history])

    def power_trace(self, direction: str, port: str) -> np.ndarray:
        """Time series of one port power (e.g. Fig. 5 transmission)."""
        return np.array([r.powers[direction][port] for r in self.history])

    def radiation_trace(self, direction: str) -> np.ndarray:
        return np.array([r.radiation(direction) for r in self.history])


class Boson1Optimizer:
    """The adaptive variation-aware subspace optimizer.

    Parameters
    ----------
    device:
        Benchmark device to design.
    config:
        Technique switches and hyper-parameters.
    process:
        Fabrication chain; built with the device's litho context when
        omitted.
    objective_terms:
        Optional override of the device objective (used by the ``-eff``
        baseline variant).
    """

    def __init__(
        self,
        device: PhotonicDevice,
        config: OptimizerConfig | None = None,
        process: FabricationProcess | None = None,
        objective_terms: dict | None = None,
        fab_pad: int = 12,
    ):
        self.device = device
        self.config = config or OptimizerConfig()
        self.rng = rng_from_seed(self.config.seed)
        if device.simulation_cache != self.config.simulation_cache:
            device.configure_simulation_cache(self.config.simulation_cache)
        if (
            self.config.solver is not None
            and self.config.simulation_cache
            and device.workspace is not None
            and device.workspace.solver_config != self.config.solver
        ):
            # An explicitly requested backend gets its own workspace
            # rather than mutating the process-shared one under other
            # devices; the replacement inherits the old workspace's
            # factorization options and cache bounds so only the backend
            # changes.  config.solver=None leaves a pre-configured
            # workspace (and its backend) untouched.
            device.configure_simulation_cache(
                True,
                device.workspace.with_solver_config(self.config.solver),
            )
        self.executor = make_executor(
            self.config.corner_executor,
            self.config.executor_workers,
            remote_timeout=self.config.remote_timeout,
            remote_connect_retries=self.config.remote_connect_retries,
        )
        #: Distinct worker identities (``pid.nonce`` strings, distinct
        #: even across hosts with colliding pids) seen by the
        #: process/remote corner fan-out; empty for in-process
        #: executors.  Test/benchmark evidence that forked or remote
        #: workers really carried the solves.
        self.observed_worker_pids: set[str] = set()
        self._solver_epoch = 0
        if process is None:
            process = FabricationProcess(
                device.design_shape,
                device.dl,
                context=device.litho_context(fab_pad),
                pad=fab_pad,
            )
        self.process = process
        self.terms = objective_terms or device.objective_terms()
        #: Explicit objective overrides apply to every scenario; without
        #: one, off-centre wavelengths ask their own clone for terms
        #: (wavelength-dependent objectives, e.g. the demux).
        self._explicit_terms = objective_terms is not None
        self._terms_by_omega: dict[float, dict] = {}
        self._aggregate_mode, self._aggregate_alpha = parse_aggregate(
            self.config.aggregate
        )
        self.schedule = RelaxationSchedule(
            self.config.relax_epochs, self.config.p_start
        )
        self.sampler = self._build_sampler()
        self.param = self._build_parameterization()
        self._blur = (
            GaussianLithography(
                device.design_shape, device.dl, self.config.mfs_blur_um
            )
            if self.config.mfs_blur_um
            else None
        )
        self.theta = self._initial_theta()

    # ------------------------------------------------------------------ #
    # Construction helpers                                               #
    # ------------------------------------------------------------------ #
    def _build_parameterization(self):
        cfg = self.config
        if cfg.parameterization == "levelset":
            return LevelSetParameterization(
                self.device.design_shape,
                knot_shape=cfg.knot_shape,
                beta=cfg.levelset_beta,
            )
        return DensityParameterization(
            self.device.design_shape,
            self.device.dl,
            beta=cfg.density_beta,
        )

    def _build_sampler(self):
        cfg = self.config
        kwargs = dict(
            t_delta=cfg.t_delta,
            eta_delta=cfg.eta_delta,
            nominal_weight=cfg.nominal_weight,
        )
        if cfg.sampling in ("random", "axial+random"):
            kwargs["n_random"] = cfg.n_random_corners
            kwargs["n_xi"] = self.process.eole.n_terms
        if cfg.sampling == "axial+worst":
            kwargs["xi_step"] = cfg.worst_xi_step
        base = make_sampling_strategy(cfg.sampling, **kwargs)
        if cfg.wavelengths_um or cfg.temperatures_k:
            return ScenarioFamilySampling(
                base, cfg.wavelengths_um, cfg.temperatures_k
            )
        return base

    def _initial_theta(self) -> np.ndarray:
        if self.config.init == "path":
            pattern = rasterize_segments(
                self.device.design_shape, self.device.dl,
                self.device.init_segments(),
            )
            return theta_from_pattern(self.param, pattern, self.device.dl)
        # Raw (unsmoothed) knot noise: the paper's failure-mode baseline.
        # Smoothing the noise would already be a mild form of
        # initialization engineering.
        return random_theta(self.param, self.rng, scale=1.0, smooth_cells=0.0)

    # ------------------------------------------------------------------ #
    # Pattern decoding                                                   #
    # ------------------------------------------------------------------ #
    def decode(self, theta) -> Tensor:
        """Differentiable pattern, including optional MFS blur control."""
        rho = self.param.pattern(theta)
        if self._blur is not None:
            rho = tanh_projection(self._blur.image(rho), 0.5, beta=8.0)
        return rho

    def decode_array(self, theta: np.ndarray) -> np.ndarray:
        """Hard binary pattern for evaluation."""
        rho = self.param.pattern_array(theta)
        if self._blur is not None:
            rho = (self._blur.image_array(rho) > 0.5).astype(np.float64)
        return rho

    # ------------------------------------------------------------------ #
    # Loss evaluation                                                    #
    # ------------------------------------------------------------------ #
    def _powers_for(self, rho_scaled: Tensor, alpha_bg: float):
        return self.device.port_powers_all(rho_scaled, alpha_bg)

    def _corner_loss(self, rho: Tensor, corner: VariationCorner):
        device = self.device.for_corner(corner)
        rho_fab = self.process.apply(rho, corner)
        alpha_bg = alpha_of_temperature(corner.temperature_k)
        powers = device.port_powers_all(rho_fab, alpha_bg)
        loss = build_loss(
            self._terms_for(device), powers, self.config.dense_objectives
        )
        return loss, powers

    def _terms_for(self, device: PhotonicDevice) -> dict:
        """Objective terms for one scenario's device clone.

        An explicit ``objective_terms`` override applies to every
        scenario (the ``-eff`` baseline semantics); otherwise off-centre
        clones ask for their own terms — memoized per omega — so
        wavelength-dependent objectives (the demux routes each band to
        a different port) aggregate correctly across the family.
        """
        if device is self.device or self._explicit_terms:
            return self.terms
        key = round(float(device.wavelength_um), 12)
        terms = self._terms_by_omega.get(key)
        if terms is None:
            terms = device.objective_terms()
            self._terms_by_omega[key] = terms
        return terms

    def _omega_groups(self, corners) -> "dict[float, list[int]]":
        """Order-preserving partition of a scenario family by omega.

        Keyed like the workspace caches (``round(wavelength, 12)``) so
        every member of a group shares its Laplacian and assembly.
        Corners without a wavelength axis group under the device's
        centre wavelength, which makes this the identity (one group)
        for plain fab-corner runs.
        """
        groups: dict[float, list[int]] = {}
        for i, corner in enumerate(corners):
            lam = (
                corner.wavelength_um
                if corner.wavelength_um is not None
                else self.device.wavelength_um
            )
            groups.setdefault(round(float(lam), 12), []).append(i)
        return groups

    def _ideal_loss(self, rho: Tensor):
        powers = self._powers_for(rho, 1.0)
        loss = build_loss(self.terms, powers, self.config.dense_objectives)
        return loss, powers

    def _corner_losses_process(self, rho: Tensor, corners, include_ideal: bool):
        """All corner losses via the forward-replay fan-out (fork or TCP).

        The taped fabrication chain runs per corner *in the parent*;
        workers — forked process-pool workers or remote hosts behind a
        :class:`~repro.core.remote.RemoteCornerExecutor` — receive
        pickle-clean ``(alpha_bg, rho_fab bytes)`` payloads, replay only
        the forward FDFD solves
        (:meth:`PhotonicDevice.solve_forward_summary`), and the
        summaries are injected back into the taped graph through
        :meth:`PhotonicDevice.port_powers_precomputed` — the backward
        pass assembles every VJP from the worker-returned adjoint-basis
        columns without a single parent-side solve.  Reduction is
        ordered, so results are reproducible for any worker count;
        gradients match the in-process executors to solver precision.
        While the relaxation ramp is active the ideal-condition system
        ships as one extra work item instead of a parent-side solve.
        Worker solve statistics are merged into the parent workspace.
        The remote executor adds heartbeat-bounded dead-worker detection
        and resubmits a dead worker's items to survivors inside
        ``map_ordered`` — every item is a pure function of its payload,
        so a mid-iteration worker death leaves the reduced result (and,
        for LU-backed backends, every bit of the trajectory) unchanged.

        Scenario families fan out *per omega group*: each group ships
        its own device clone under its own warm-pool token, so per-omega
        device digests cross the wire once per epoch per worker —
        exactly like today's single device — and workers keep one warm
        workspace per omega.  The ideal-condition system rides the
        centre-omega group as one extra work item; a family with no
        centre-wavelength member leaves it to the caller's scalar solve.
        """
        groups = self._omega_groups(corners)
        center_key = round(float(self.device.wavelength_um), 12)
        self._solver_epoch += 1
        tracer = get_tracer()
        metrics = get_metrics()
        results: list = [None] * len(corners)
        ideal_result = None
        for key, idxs in groups.items():
            device_g = self.device.for_corner(corners[idxs[0]])
            rho_fabs = [self.process.apply(rho, corners[i]) for i in idxs]
            alphas = [
                alpha_of_temperature(corners[i].temperature_k) for i in idxs
            ]
            with_ideal = include_ideal and key == center_key
            if with_ideal:
                rho_fabs.append(rho)
                alphas.append(1.0)
            task = functools.partial(
                _corner_forward_task,
                stable_worker_token(device_g, ":design"),
                device_g,
                self._solver_epoch,
                tracing_active(),
            )
            items = [
                (alpha, np.asarray(fab.data, dtype=np.float64))
                for alpha, fab in zip(alphas, rho_fabs)
            ]
            with span(
                "engine.dispatch", "engine",
                backend=self.executor.name, corners=len(items),
            ) as dispatch:
                outcomes = self.executor.map_ordered(task, items)
            workspace = device_g.workspace
            terms = self._terms_for(device_g)
            group_results = []
            for (summary, stats_delta, worker, obs), rho_fab, alpha in zip(
                outcomes, rho_fabs, alphas
            ):
                if worker is not None:
                    # Inline-in-parent runs report no identity
                    # (run_warm_task); every reported one is a genuine
                    # worker — the pid.nonce form stays distinct even
                    # across hosts whose pids collide.
                    self.observed_worker_pids.add(worker)
                if obs is not None:
                    # Worker span trees graft under this fan-out's
                    # dispatch span — one connected timeline across the
                    # fleet — and worker metric deltas merge like stats
                    # deltas.
                    if tracer is not None:
                        tracer.adopt(obs.get("spans", []), dispatch.span_id)
                    metrics.merge_delta(obs.get("metrics"))
                if workspace is not None:
                    workspace.merge_solver_stats(stats_delta)
                powers = device_g.port_powers_precomputed(
                    rho_fab, summary, alpha_bg=alpha
                )
                loss = build_loss(
                    terms, powers, self.config.dense_objectives
                )
                group_results.append((loss, powers))
            if with_ideal:
                ideal_result = group_results.pop()
            for i, result in zip(idxs, group_results):
                results[i] = result
        return results, ideal_result

    def loss(
        self, theta_t: Tensor, iteration: int
    ) -> tuple[Tensor, dict[str, dict[str, float]], int]:
        """Eq. (3) blended loss, nominal-condition powers, corner count.

        With scenario axes configured (``config.wavelengths_um`` /
        ``temperatures_k``) the sampled fab corners are crossed into a
        scenario family (partitioned by omega into one fan-out per group
        on the process and remote executors) and reduced by
        ``config.aggregate`` — weighted mean, tempered soft-max worst
        case, or CVaR tail expectation
        (:func:`repro.core.objective.aggregate_losses`).

        Corner losses are independent given ``rho``; they fan out over
        :attr:`executor` and are reduced serially in the sampler's
        corner order, so for LU-backed solver backends the result is
        bit-identical for every executor backend and worker count.  The
        first corner (the nominal one, for every built-in sampling
        strategy) is evaluated before the fan-out so the ``krylov``
        backend's preconditioner anchor is established deterministically
        too; its results match the direct backend to solver tolerance.
        A process or remote executor routes through the forward-replay
        fan-out (:meth:`_corner_losses_process`): workers carry the
        forward solves, the parent assembles the VJPs, and results match
        the serial path to solver precision.  The returned corner count
        is the number the loss actually averaged over (0 when
        ``use_fab`` is off).
        """
        with span("engine.loss", "engine", iteration=iteration):
            return self._loss_impl(theta_t, iteration)

    def _loss_impl(self, theta_t, iteration):
        if self.device.workspace is not None:
            # New iteration, new pattern: retire last iteration's
            # solvers (their LUs are released by the first factorization
            # below) and refresh the Krylov preconditioner anchors so the
            # nominal corner — the first permittivity factorized below —
            # is what every other corner of this iteration
            # preconditions against.
            self.device.workspace.begin_solver_epoch()
        rho = self.decode(theta_t)
        nominal_powers: dict[str, dict[str, float]] | None = None

        if not self.config.use_fab:
            total, powers = self._ideal_loss(rho)
            nominal_powers = {
                d: {k: v.item() for k, v in powers[d].items()}
                for d in powers
            }
            return total, nominal_powers, 0

        worst_finder = None
        if self.sampler.wants_worst_finder:
            worst_finder = self._make_worst_finder(rho)
        corners = self.sampler.corners(iteration, self.rng, worst_finder)
        if not corners:
            raise ValueError(
                f"sampling strategy {self.sampler.name!r} "
                f"({type(self.sampler).__name__}) produced no corners at "
                f"iteration {iteration} with use_fab=True; the Eq. (3) "
                "fabrication loss needs at least one corner to average over"
            )

        p = self.schedule.p(iteration)
        workspace = self.device.workspace
        ideal_result = None
        if not self.executor.supports_shared_memory:
            # Process executor: the tape cannot cross process boundaries,
            # so workers replay only the forward solves and the parent
            # assembles the VJPs (see _corner_losses_process).
            corner_results, ideal_result = self._corner_losses_process(
                rho, corners, include_ideal=p < 1.0
            )
        else:
            # With a preconditioned backend, the first corner (the nominal
            # one, for every built-in sampling strategy) is evaluated before
            # the fan-out so the epoch's preconditioner anchor is
            # established deterministically — a pooled executor would
            # otherwise anchor whichever corner thread ran first.  LU-backed
            # backends keep the full fan-out (no anchor, and a serial head
            # would cost threaded runs one corner of overlap).
            corner_results = map_ordered_with_serial_head(
                self.executor,
                lambda corner: self._corner_loss(rho, corner),
                corners,
                workspace is not None and workspace.solver_uses_preconditioner,
            )
        losses = []
        weights = []
        for corner, (loss_c, powers_c) in zip(corners, corner_results):
            losses.append(loss_c)
            weights.append(corner.weight)
            if nominal_powers is None and corner.is_nominal():
                nominal_powers = {
                    d: {k: v.item() for k, v in powers_c[d].items()}
                    for d in powers_c
                }
        # "mean" replays the historical per-corner op sequence inside
        # aggregate_losses, keeping single-omega LU-backed runs bitwise.
        fab_loss = aggregate_losses(
            losses, weights, self._aggregate_mode, self._aggregate_alpha
        )

        if p < 1.0:
            if ideal_result is not None:
                ideal_loss, ideal_powers = ideal_result
            else:
                ideal_loss, ideal_powers = self._ideal_loss(rho)
            total = fab_loss * p + ideal_loss * (1.0 - p)
            if nominal_powers is None:
                nominal_powers = {
                    d: {k: v.item() for k, v in ideal_powers[d].items()}
                    for d in ideal_powers
                }
        else:
            total = fab_loss
        if nominal_powers is None:
            # Sampler produced no nominal corner: take the first corner's
            # powers as the snapshot (already computed in the fan-out).
            _, powers_c = corner_results[0]
            nominal_powers = {
                d: {k: v.item() for k, v in powers_c[d].items()}
                for d in powers_c
            }
        return total, nominal_powers, len(corners)

    # ------------------------------------------------------------------ #
    # Worst-corner search (Sec. III-E)                                   #
    # ------------------------------------------------------------------ #
    def _make_worst_finder(self, rho: Tensor):
        rho_const = rho.detach()

        def finder(t_step: float, xi_step: float) -> VariationCorner:
            t_var = Tensor(np.array(300.0), requires_grad=True)
            xi_var = Tensor(
                np.zeros(self.process.eole.n_terms), requires_grad=True
            )
            probe = VariationCorner("worst-probe")
            rho_fab = self.process.apply(
                rho_const, probe, temperature=t_var, xi=xi_var
            )
            powers = self._powers_for(rho_fab, 1.0)
            loss = build_loss(self.terms, powers, self.config.dense_objectives)
            loss.backward()
            t_grad = 0.0 if t_var.grad is None else float(t_var.grad)
            xi_grad = (
                np.zeros(self.process.eole.n_terms)
                if xi_var.grad is None
                else xi_var.grad
            )
            # One signed-gradient ascent step on the loss (FGSM-style).
            t_worst = 300.0 + t_step * np.sign(t_grad)
            xi_worst = xi_step * np.sign(xi_grad)
            return VariationCorner(
                "worst",
                litho="nominal",
                temperature_k=float(t_worst),
                xi=xi_worst,
            )

        return finder

    def close(self) -> None:
        """Release executor workers and the last generation of solvers.

        The run's final LUs would otherwise stay cached in the
        (often process-wide) workspace until the next run stores one —
        a daemon would hold the previous job's factorizations while idle
        and during the next job (see
        :meth:`~repro.fdfd.workspace.SimulationWorkspace.release_solvers`).
        The executor re-creates its pool lazily and the caches re-warm,
        so an optimizer remains usable after ``close()``.
        """
        self.executor.shutdown()
        if self.device.workspace is not None:
            self.device.workspace.release_solvers()

    # ------------------------------------------------------------------ #
    # Main loop                                                          #
    # ------------------------------------------------------------------ #
    def run(
        self,
        iterations: int | None = None,
        callback: Callable[[IterationRecord], None] | None = None,
        resume: "DesignCheckpoint | str | Path | None" = None,
        stop_event: "threading.Event | None" = None,
    ) -> OptimizationResult:
        """Optimize and return the trajectory + final design.

        Parameters
        ----------
        iterations:
            Override of ``config.iterations``.
        callback:
            Called with each :class:`IterationRecord` (for live logging).
        resume:
            A :class:`~repro.core.checkpoint.DesignCheckpoint` (or a
            path to one) to continue from.  The checkpoint's config
            digest and device name must match this optimizer
            (:meth:`DesignCheckpoint.verify_against` raises otherwise);
            theta, Adam moments, RNG stream, sampler state, solver
            epoch, and the recorded history are restored, and for
            LU-backed solver backends the continued trajectory is
            bitwise-identical to the uninterrupted one.
        stop_event:
            Cross-thread soft-stop seam: setting this
            :class:`threading.Event` (from any thread) acts like a
            first SIGINT — the loop finishes the current iteration,
            checkpoints (when checkpointing is on), and returns with
            ``result.interrupted`` True.  This is how ``repro serve``
            stops jobs running on worker threads, where signal handlers
            cannot be installed.

        With ``config.checkpoint_dir`` set, the loop writes crash-safe
        checkpoints every ``config.checkpoint_every`` iterations (plus a
        final one), SIGINT/SIGTERM finish the current iteration and
        checkpoint before returning (``result.interrupted`` is then
        True), and a fully-dead remote fleet checkpoints, logs the
        per-worker failures, and degrades to serial execution instead of
        aborting the run (degradation happens with or without
        checkpointing).  A non-finite loss or gradient raises
        :class:`NonFiniteStepError` before that iteration reaches the
        history, the callback, Adam or a checkpoint.
        """
        n_iter = iterations if iterations is not None else self.config.iterations
        adam = Adam(lr=self.config.effective_lr)
        theta = np.array(self.theta, dtype=np.float64)
        history: list[IterationRecord] = []
        start = 0
        if resume is not None:
            if not isinstance(resume, DesignCheckpoint):
                resume = DesignCheckpoint.load(resume)
            theta, start = self._apply_checkpoint(resume, adam, history)
        manager = None
        if self.config.checkpoint_dir is not None:
            manager = CheckpointManager(
                self.config.checkpoint_dir,
                every=self.config.checkpoint_every,
                keep=self.config.checkpoint_keep,
            )
        session = None
        if self.config.trace_dir is not None:
            session = TraceSession(
                self.config.trace_dir, self.config.trace_formats()
            )

        try:
            return self._run_loop(
                start, n_iter, adam, theta, history, callback, manager,
                session, stop_event,
            )
        finally:
            if session is not None:
                session.close()
            # Pools are re-created lazily, so releasing workers here
            # keeps the optimizer reusable while never leaking threads.
            self.executor.shutdown()

    # ------------------------------------------------------------------ #
    # Checkpoint seam                                                    #
    # ------------------------------------------------------------------ #
    def _make_checkpoint(
        self,
        next_iteration: int,
        theta: np.ndarray,
        adam: Adam,
        history: "list[IterationRecord]",
    ) -> DesignCheckpoint:
        """Snapshot the loop state *between* iterations.

        Called with the post-step theta/Adam/RNG of the iteration just
        completed, so a resume replays the remaining iterations exactly
        as the uninterrupted run would have executed them.
        """
        return DesignCheckpoint(
            config_digest=config_digest(self.config, self.device.name),
            device_name=self.device.name,
            next_iteration=int(next_iteration),
            theta=np.array(theta, dtype=np.float64),
            adam_state=adam.state_dict(),
            rng_state=get_rng_state(self.rng),
            sampler_state=self.sampler.state_dict(),
            solver_epoch=self._solver_epoch,
            history=list(history),
        )

    def _apply_checkpoint(
        self,
        ckpt: DesignCheckpoint,
        adam: Adam,
        history: "list[IterationRecord]",
    ) -> "tuple[np.ndarray, int]":
        """Restore a verified checkpoint into the live loop state."""
        ckpt.verify_against(self.config, self.device.name)
        adam.load_state_dict(ckpt.adam_state)
        set_rng_state(self.rng, ckpt.rng_state)
        self.sampler.load_state_dict(ckpt.sampler_state)
        self._solver_epoch = int(ckpt.solver_epoch)
        history.extend(ckpt.history)
        log.info(
            "resuming %s from iteration %d (%d iterations recorded)",
            self.device.name,
            ckpt.next_iteration,
            len(ckpt.history),
        )
        return np.array(ckpt.theta, dtype=np.float64), int(ckpt.next_iteration)

    def _degrade_to_serial(self, exc: RemoteFleetDead) -> None:
        """Swap the dead remote fleet for in-process serial execution."""
        for failure in exc.worker_failures or ["no failure detail recorded"]:
            log.error("remote worker failure: %s", failure)
        log.warning(
            "the entire remote fleet is dead; degrading to the serial "
            "executor to finish the run in-process (items lost "
            "mid-iteration: %s)",
            exc.missing or "none",
        )
        try:
            self.executor.shutdown()
        except Exception:
            pass  # the fleet is already gone; nothing worth keeping
        self.executor = SerialExecutor()

    def _run_loop(self, start, n_iter, adam, theta, history, callback,
                  manager, session=None, stop_event=None):
        final_loss = history[-1].loss if history else float("nan")
        interrupted = False
        with GracefulShutdown(
            enabled=manager is not None, external_stop=stop_event
        ) as stop:
            it = start
            while it < n_iter:
                # Snapshot the RNG before the iteration: if the remote
                # fleet dies mid-fan-out, the retried iteration must
                # replay the same corner draws, not advance the stream
                # twice — and a degradation checkpoint must describe the
                # state *before* the lost iteration.
                rng_before = get_rng_state(self.rng)
                theta_t = Tensor(theta, requires_grad=True)
                with span("engine.iteration", "engine", iteration=it):
                    try:
                        loss, nominal_powers, n_corners = self.loss(
                            theta_t, it
                        )
                    except RemoteFleetDead as exc:
                        set_rng_state(self.rng, rng_before)
                        if manager is not None:
                            manager.save(
                                self._make_checkpoint(
                                    it, theta, adam, history
                                )
                            )
                        self._degrade_to_serial(exc)
                        continue  # retry the same iteration in-process
                    with span("engine.backward", "engine"):
                        loss.backward()
                    grad = (
                        theta_t.grad
                        if theta_t.grad is not None
                        else np.zeros_like(theta)
                    )
                    loss_value = loss.item()
                    # The tape is consumed; drop its root and leaf so no
                    # tensor of this iteration outlives it.
                    del loss, theta_t
                    _check_finite_step(it, loss_value, grad)
                    new_theta = adam.step(theta, grad)
                    record = IterationRecord(
                        iteration=it,
                        loss=loss_value,
                        p=self.schedule.p(it) if self.config.use_fab else 0.0,
                        n_corners=n_corners,
                        fom=self.device.fom(nominal_powers),
                        powers=nominal_powers,
                        grad_norm=float(np.linalg.norm(grad)),
                        step_norm=float(np.linalg.norm(new_theta - theta)),
                    )
                    history.append(record)
                    if callback is not None:
                        callback(record)
                    theta = new_theta
                final_loss = record.loss
                it += 1
                if session is not None:
                    session.record(
                        "iteration", it - 1,
                        extra={
                            "loss": record.loss,
                            "fom": record.fom,
                            "grad_norm": record.grad_norm,
                            "step_norm": record.step_norm,
                        },
                        workspace=self.device.workspace,
                    )
                if self.config.metrics_every and it % self.config.metrics_every == 0:
                    snap = get_metrics().snapshot(self.device.workspace)
                    log.info(
                        "metrics @ iteration %d: counters=%s gauges=%s",
                        it - 1, snap["counters"], snap["gauges"],
                    )
                if manager is not None and (
                    stop.requested
                    or it == n_iter
                    or manager.should_save(it)
                ):
                    manager.save(
                        self._make_checkpoint(it, theta, adam, history)
                    )
                if stop.requested:
                    interrupted = True
                    log.warning(
                        "graceful shutdown: stopped after iteration %d "
                        "of %d; resume with the checkpoint in %s",
                        it - 1,
                        n_iter,
                        manager.directory if manager is not None else "?",
                    )
                    break

        self.theta = theta
        return OptimizationResult(
            theta=theta,
            pattern=self.decode_array(theta),
            history=history,
            config=self.config,
            device_name=self.device.name,
            final_loss=final_loss,
            interrupted=interrupted,
        )
