"""Configuration of the BOSON-1 optimizer.

Every technique the paper ablates (Table II) or sweeps (Fig. 6) is a field
here, so baselines and ablations are *configurations*, not forks of the
engine:

* ``use_fab=False``        -> free-space optimization (Density / LS rows);
* ``dense_objectives=False`` -> sparse single objective
  ("- loss landscape reshaping");
* ``relax_epochs=0``       -> no conditional subspace relaxation
  ("- subspace relax");
* ``sampling="exhaustive"``  -> corner sweeping ("exhaustive sample");
* ``init="random"``        -> random initialization ("random init").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.core.remote import (
    DEFAULT_CONNECT_RETRIES,
    DEFAULT_REMOTE_TIMEOUT,
    MIN_REMOTE_TIMEOUT,
    parse_worker_addresses,
)
from repro.fdfd.linalg import SolverConfig

__all__ = ["OptimizerConfig", "SolverConfig"]


@dataclass
class OptimizerConfig:
    """Hyper-parameters and technique switches for :class:`Boson1Optimizer`.

    Parameters
    ----------
    parameterization:
        ``"levelset"`` (paper default) or ``"density"``.
    mfs_blur_um:
        Gaussian minimum-feature-size control radius applied to the
        pattern (the ``-M`` suffix of the paper's tables); ``None``
        disables it.
    init:
        ``"path"`` — light-concentrated initialization (Sec. III-D3);
        ``"random"`` — the Table II failure mode.
    iterations:
        Optimization steps.
    lr:
        Adam step size; ``None`` picks a parameterization-specific
        default (level-set values are in um, density latents are logits).
    use_fab:
        Optimize *through* the fabrication model (subspace optimization).
    dense_objectives:
        Eq. (2) auxiliary penalties on extra monitors.
    relax_epochs / p_start:
        Eq. (3) conditional subspace relaxation ramp.
    sampling:
        Variation sampling strategy name (see
        :data:`repro.core.sampling.SAMPLING_STRATEGIES`).
    n_random_corners:
        Extra Monte-Carlo corners for the ``random``-flavoured strategies.
    t_delta / eta_delta:
        Corner magnitudes: temperature excursion (K) and global etch
        threshold shift.
    worst_xi_step:
        Step size of the worst-corner ascent in EOLE-coefficient space.
    seed:
        Root seed for every stochastic component.
    wavelengths_um:
        Operating-wavelength axis of the scenario family, in um.
        ``None`` (the default) keeps objectives single-wavelength at
        the device's own centre wavelength — byte-identical to the
        pre-scenario engine.  With wavelengths set, every sampled fab
        corner is crossed with each wavelength (and each temperature,
        below); members are grouped by omega so each group shares its
        Laplacian.
    temperatures_k:
        Operating-temperature axis of the scenario family, in kelvin.
        Composes with each fab corner's own thermal excursion as an
        offset around the 300 K nominal.  ``None`` (the default) leaves
        corner temperatures alone.
    aggregate:
        Scenario-loss reduction: ``"mean"`` (weighted expectation, the
        historical behaviour), ``"worst"`` (tempered soft-max of the
        family — differentiable worst case), or ``"cvar:<alpha>"``
        (expected loss of the worst ``alpha``-tail, e.g.
        ``"cvar:0.5"``).  See
        :func:`repro.core.objective.aggregate_losses`.
    corner_executor:
        Backend for the per-iteration corner fan-out: ``"serial"``
        (default), ``"thread"`` / ``"thread:n"``, ``"process"`` /
        ``"process:n"``, or ``"remote:host:port[,host:port...]"``
        (worker hosts started with ``repro worker --listen``).  Corner
        losses are independent and reduced in a fixed order; serial and
        thread executors produce bit-identical results for LU-backed
        solver backends (``direct``/``batched``; preconditioned
        backends agree to solver tolerance, since fallback anchors
        arrive in scheduling order).  The process and remote
        backends route through the forward-replay fan-out — workers run
        only the forward FDFD solves on pickle-clean payloads and the
        parent assembles the taped VJPs from the returned adjoint-basis
        columns — so their losses and gradients match the serial path
        to solver precision (the adjoint is recombined from per-port
        solves) and they scale with cores / hosts.  The remote backend
        additionally resubmits a dead worker's items to survivors (see
        :mod:`repro.core.remote` for the failure semantics).
    executor_workers:
        Worker count for pooled backends.  ``None`` (the default)
        auto-tunes ``process``/``remote`` to ``min(corner count,
        available workers)`` per fan-out — on a single-core box an auto
        process spec runs inline in the parent.
    remote_timeout:
        Dead-worker detection bound (seconds) for the ``remote``
        executor: the longest a worker may stay silent — no result, no
        heartbeat — before its work is resubmitted to survivors.
        Ignored by in-process executors.
    remote_connect_retries:
        Connection attempts per worker address when the ``remote``
        executor first dials the fleet.  Failed attempts back off
        exponentially with jitter, so a worker still binding its
        listen socket does not fail the whole run.  Ignored by
        in-process executors.
    checkpoint_dir:
        Directory for crash-safe :class:`~repro.core.checkpoint.
        DesignCheckpoint` files; ``None`` (the default) disables
        checkpointing.  With a directory set, SIGINT/SIGTERM finish
        the current iteration, write a final checkpoint, and return
        cleanly.  (A fully-dead remote fleet degrades to serial
        execution either way; with a directory set it also checkpoints
        first.)
    checkpoint_every:
        Iterations between periodic checkpoints (a final checkpoint is
        always written at run end when checkpointing is enabled).
    checkpoint_keep:
        How many rotated checkpoints to keep on disk.
    trace_dir:
        Directory for :mod:`repro.obs` trace artifacts (``trace.jsonl``,
        ``trace_chrome.json``, ``summary.txt``); ``None`` (the default)
        disables tracing — span sites then cost a single ``None`` check.
    trace_format:
        Comma-separated subset of ``jsonl,chrome`` selecting which
        trace artifacts a traced run writes (the text summary is always
        written).  Ignored without ``trace_dir``.
    metrics_every:
        Log a metrics-registry snapshot every N iterations (0, the
        default, disables periodic metrics logging).
    simulation_cache:
        Route solves through the shared
        :class:`~repro.fdfd.workspace.SimulationWorkspace` (cached
        operators, modes, factorizations).  Off reproduces the cold
        seed path bit-for-bit; only wall time differs.
    solver:
        Linear-solver backend: a
        :class:`~repro.fdfd.linalg.SolverConfig` or a backend name —
        ``"direct"`` (one LU per permittivity, the reference),
        ``"batched"`` (direct + matrix-RHS sweeps and multi-direction
        batching), ``"krylov"`` (nominal-LU-preconditioned
        BiCGStab/GMRES across corners, with automatic direct fallback;
        ``"krylov:gmres"`` selects GMRES).  The Krylov knobs (tolerance,
        iteration budget, anchors) shape the trajectory only to solver
        precision but are still bound into the checkpoint config digest
        (a resume must replay the same solver).  ``None`` (the default)
        inherits whatever backend the device's workspace is already
        configured with — so a device set up via
        ``configure_simulation_cache(True, SimulationWorkspace(
        solver_config="krylov"))`` keeps its backend under a default
        config.  Non-direct backends require ``simulation_cache=True``.
    """

    parameterization: str = "levelset"
    mfs_blur_um: float | None = None
    init: str = "path"
    iterations: int = 50
    lr: float | None = None
    use_fab: bool = True
    dense_objectives: bool = True
    relax_epochs: int = 20
    p_start: float = 0.2
    sampling: str = "axial+worst"
    n_random_corners: int = 2
    t_delta: float = 30.0
    eta_delta: float = 0.03
    nominal_weight: float = 4.0
    worst_xi_step: float = 1.0
    seed: int = 0
    knot_shape: tuple[int, int] | None = None
    levelset_beta: float = 2.0
    density_beta: float = 8.0
    wavelengths_um: tuple[float, ...] | None = None
    temperatures_k: tuple[float, ...] | None = None
    aggregate: str = "mean"
    corner_executor: str = "serial"
    executor_workers: int | None = None
    remote_timeout: float = DEFAULT_REMOTE_TIMEOUT
    remote_connect_retries: int = DEFAULT_CONNECT_RETRIES
    checkpoint_dir: str | None = None
    checkpoint_every: int = 1
    checkpoint_keep: int = 3
    trace_dir: str | None = None
    trace_format: str = "jsonl"
    metrics_every: int = 0
    simulation_cache: bool = True
    solver: SolverConfig | str | None = None

    def __post_init__(self):
        if self.solver is not None:
            self.solver = SolverConfig.coerce(self.solver)
            if self.solver.backend != "direct" and not self.simulation_cache:
                raise ValueError(
                    f"solver backend {self.solver.backend!r} needs the "
                    "simulation workspace; set simulation_cache=True"
                )
        if self.parameterization not in ("levelset", "density"):
            raise ValueError(
                "parameterization must be 'levelset' or 'density', "
                f"got {self.parameterization!r}"
            )
        if self.init not in ("path", "random"):
            raise ValueError(f"init must be 'path' or 'random', got {self.init!r}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.lr is not None and self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.relax_epochs < 0:
            raise ValueError("relax_epochs must be >= 0")
        if not 0.0 <= self.p_start <= 1.0:
            raise ValueError("p_start must lie in [0, 1]")
        for axis, unit in (("wavelengths_um", "um"), ("temperatures_k", "K")):
            values = getattr(self, axis)
            if values is None:
                continue
            values = tuple(float(v) for v in values)
            if not values:
                values = None
            else:
                for v in values:
                    if not (math.isfinite(v) and v > 0):
                        raise ValueError(
                            f"{axis} entries must be positive finite "
                            f"({unit}), got {v!r}"
                        )
            setattr(self, axis, values)
        from repro.core.objective import parse_aggregate

        parse_aggregate(self.aggregate)  # validate the spec eagerly
        backend, _, rest = self.corner_executor.partition(":")
        if backend not in ("serial", "thread", "process", "remote"):
            raise ValueError(
                "corner_executor must be 'serial', 'thread', 'process' or "
                f"'remote:host:port[,...]', got {self.corner_executor!r}"
            )
        if backend == "remote":
            # Reject malformed address lists at config time, before any
            # socket is opened (parse_worker_addresses raises a
            # descriptive ValueError).
            parse_worker_addresses(rest)
        if self.executor_workers is not None and self.executor_workers < 1:
            raise ValueError("executor_workers must be >= 1")
        if self.remote_timeout <= 0:
            raise ValueError(
                f"remote_timeout must be positive (seconds), got "
                f"{self.remote_timeout}"
            )
        if backend == "remote":
            # Fail at config time with the same bound the executor
            # enforces: a timeout no heartbeat can beat inside would
            # misdeclare every busy worker dead.
            if self.remote_timeout <= MIN_REMOTE_TIMEOUT:
                raise ValueError(
                    f"remote_timeout must exceed {MIN_REMOTE_TIMEOUT:g}s "
                    "so a busy worker's liveness heartbeat fits inside "
                    f"it, got {self.remote_timeout}"
                )
        if self.remote_connect_retries < 1:
            raise ValueError(
                "remote_connect_retries must be >= 1, got "
                f"{self.remote_connect_retries}"
            )
        if self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.checkpoint_keep < 1:
            raise ValueError(
                f"checkpoint_keep must be >= 1, got {self.checkpoint_keep}"
            )
        self.trace_formats()  # validate trace_format tokens eagerly
        if self.metrics_every < 0:
            raise ValueError(
                f"metrics_every must be >= 0, got {self.metrics_every}"
            )

    def trace_formats(self) -> "tuple[str, ...]":
        """The parsed, validated ``trace_format`` tokens."""
        from repro.obs.export import TRACE_FORMATS

        tokens = tuple(
            tok.strip() for tok in self.trace_format.split(",") if tok.strip()
        )
        unknown = set(tokens) - set(TRACE_FORMATS)
        if not tokens or unknown:
            raise ValueError(
                "trace_format must be a comma-separated subset of "
                f"{','.join(TRACE_FORMATS)!r}, got {self.trace_format!r}"
            )
        return tokens

    @property
    def effective_lr(self) -> float:
        """The learning rate actually used."""
        if self.lr is not None:
            return self.lr
        return 0.03 if self.parameterization == "levelset" else 0.4

    def with_overrides(self, **kwargs) -> "OptimizerConfig":
        """A copy with the given fields replaced (ablation helper)."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------ #
    # Named presets matching the paper's method notation                 #
    # ------------------------------------------------------------------ #
    @classmethod
    def boson1(cls, **overrides) -> "OptimizerConfig":
        """The full BOSON-1 recipe."""
        return cls(**overrides)

    @classmethod
    def ablation_no_reshaping(cls, **overrides) -> "OptimizerConfig":
        """Table II row: "- loss landscape reshaping" (sparse objective)."""
        return cls(dense_objectives=False, **overrides)

    @classmethod
    def ablation_no_relax(cls, **overrides) -> "OptimizerConfig":
        """Table II row: "- subspace relax"."""
        return cls(relax_epochs=0, **overrides)

    @classmethod
    def ablation_exhaustive(cls, **overrides) -> "OptimizerConfig":
        """Table II row: "exhaustive sample"."""
        return cls(sampling="exhaustive", **overrides)

    @classmethod
    def ablation_random_init(cls, **overrides) -> "OptimizerConfig":
        """Table II row: "random init"."""
        return cls(init="random", **overrides)
