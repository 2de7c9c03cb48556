"""Monte-Carlo post-fabrication evaluation."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from repro.core.executors import (
    CornerExecutor,
    make_executor,
    map_ordered_with_serial_head,
    run_warm_task,
    stable_worker_token,
)
from repro.core.sampling import scenario_family
from repro.devices.base import PhotonicDevice
from repro.fab.corners import VariationCorner
from repro.fab.litho import LITHO_CORNER_NAMES
from repro.fab.process import FabricationProcess
from repro.fab.temperature import alpha_of_temperature
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer, span, tracing_active
from repro.utils.seeding import rng_from_seed

__all__ = [
    "RobustnessReport",
    "evaluate_post_fab",
    "evaluate_ideal",
]


@dataclass
class RobustnessReport:
    """Statistics of a Monte-Carlo robustness evaluation.

    ``foms`` are per-sample FoM values; ``mean_powers`` averages each
    monitored port power over the samples (the paper's
    ``[fwd, bwd]`` columns).  ``fom_lower_is_better`` records the
    device's FoM polarity so that :attr:`worst_fom` is meaningful
    without caller-side bookkeeping.
    """

    foms: np.ndarray
    mean_powers: dict[str, dict[str, float]]
    corners: list[VariationCorner] = field(repr=False, default_factory=list)
    fom_lower_is_better: bool = False

    @property
    def mean_fom(self) -> float:
        return float(np.mean(self.foms))

    @property
    def std_fom(self) -> float:
        return float(np.std(self.foms))

    @property
    def worst_fom(self) -> float:
        """The worst sample for this FoM's polarity.

        The maximum when lower is better (a cost, e.g. the isolator's
        contrast ratio), otherwise the minimum.
        """
        if self.fom_lower_is_better:
            return float(np.max(self.foms))
        return float(np.min(self.foms))

    @property
    def best_fom(self) -> float:
        """The best sample for this FoM's polarity."""
        if self.fom_lower_is_better:
            return float(np.min(self.foms))
        return float(np.max(self.foms))

    @property
    def n_samples(self) -> int:
        return int(self.foms.size)

    # ------------------------------------------------------------------ #
    # Scenario stratification                                            #
    # ------------------------------------------------------------------ #
    def stratified_foms(self) -> "dict[float | None, np.ndarray]":
        """Per-wavelength FoM arrays, in first-appearance order.

        The key ``None`` is the device's own centre wavelength (every
        sample of a plain, non-stratified evaluation).  Evaluations run
        with a ``wavelengths_um`` axis yield one stratum per wavelength,
        each holding the same underlying fabrication draws — a
        variance-reduced comparison across operating points.
        """
        out: dict = {}
        for fom, corner in zip(self.foms, self.corners):
            out.setdefault(corner.wavelength_um, []).append(float(fom))
        return {k: np.asarray(v) for k, v in out.items()}

    def yield_fraction(self, threshold: float) -> float:
        """Fraction of samples whose FoM meets ``threshold``."""
        if self.fom_lower_is_better:
            return float(np.mean(self.foms <= threshold))
        return float(np.mean(self.foms >= threshold))

    def stratified_yield(self, threshold: float) -> "dict[float | None, float]":
        """Per-wavelength yield fractions (see :meth:`stratified_foms`)."""
        out = {}
        for lam, foms in self.stratified_foms().items():
            if self.fom_lower_is_better:
                out[lam] = float(np.mean(foms <= threshold))
            else:
                out[lam] = float(np.mean(foms >= threshold))
        return out


def sample_corner(
    rng: np.random.Generator,
    n_xi: int,
    t_delta: float = 30.0,
    index: int = 0,
) -> VariationCorner:
    """One Monte-Carlo variation draw matching the paper's protocol.

    Lithography corner uniform over {min, nominal, max}, temperature
    uniform over +-``t_delta`` around 300 K, EOLE coefficients standard
    normal.
    """
    litho = LITHO_CORNER_NAMES[int(rng.integers(0, 3))]
    t = 300.0 + float(rng.uniform(-t_delta, t_delta))
    xi = rng.standard_normal(n_xi) if n_xi > 0 else None
    return VariationCorner(f"mc-{index}", litho=litho, temperature_k=t, xi=xi)


def _evaluate_sample(
    device: PhotonicDevice,
    process: FabricationProcess,
    pattern: np.ndarray,
    corner: VariationCorner,
) -> tuple[float, dict[str, dict[str, float]]]:
    """FoM + per-port powers of one fabricated variation draw.

    Module-level (not a closure) so the process backend can pickle it;
    worker processes re-warm their own simulation caches.

    Each sample is one factorization reuse unit: its calibration run
    and its design solve never share a permittivity with another
    sample, so the sample starts by retiring the previous sample's
    solvers (:meth:`~repro.fdfd.workspace.SimulationWorkspace.retire_solvers`)
    and dropping its calibration runs
    (:meth:`PhotonicDevice.release_calibrations`, on the device clone
    the sample runs on).  Every fan-out path (serial, thread, process,
    remote) runs through here, so on every path a sample's LUs are
    released as soon as the next sample stores its first one, and its
    calibration fields when the next sample starts.
    """
    if device.workspace is not None:
        device.workspace.retire_solvers()
    device = device.for_corner(corner)
    device.release_calibrations()
    fabbed = process.apply_array(pattern, corner)
    alpha_bg = alpha_of_temperature(corner.temperature_k)
    powers = device.port_powers_array_all(fabbed, alpha_bg)
    return device.fom(powers), powers


def _evaluate_sample_task(
    token: str,
    device: PhotonicDevice,
    process: FabricationProcess,
    pattern: np.ndarray,
    capture: bool,
    corner: VariationCorner,
):
    """Process-pool variant of :func:`_evaluate_sample`.

    The same seam the taped corner fan-out uses
    (:func:`repro.core.executors.run_warm_task` holds the shared
    warm-pool / stats-delta / inline-parent protocol): the device is
    parked in the worker's warm pool so its workspace and calibration
    caches survive across chunks and repeated evaluations, and the task
    returns its solver-stats delta (merged into the parent workspace by
    :func:`evaluate_post_fab`) plus the worker identity as fan-out
    evidence and — when the parent dispatched with tracing active — the
    worker's span tree and metric deltas.
    """
    (fom, powers), delta, worker, obs = run_warm_task(
        token,
        device,
        lambda dev: _evaluate_sample(dev, process, pattern, corner),
        lambda dev: dev.workspace,
        capture_obs=capture,
    )
    return fom, powers, delta, worker, obs


def evaluate_post_fab(
    device: PhotonicDevice,
    process: FabricationProcess,
    pattern: np.ndarray,
    n_samples: int = 20,
    seed: int = 1234,
    t_delta: float = 30.0,
    executor: CornerExecutor | str | None = None,
    remote_timeout: float | None = None,
    remote_connect_retries: int | None = None,
    wavelengths_um=None,
) -> RobustnessReport:
    """Expected post-fabrication performance of a design pattern.

    Parameters
    ----------
    device / process:
        The device geometry and the fabrication chain to push the pattern
        through.
    pattern:
        Ideal design pattern (design-region shape, values in [0, 1]).
    n_samples:
        Monte-Carlo draws (paper uses 20).
    seed:
        Evaluation seed, independent of the optimization seed.
    executor:
        Sample fan-out backend (``None``/``"serial"``, ``"thread"``,
        ``"process"``, ``"remote:host:port[,...]"``, or a
        :class:`~repro.core.executors.CornerExecutor`).
        All corners are drawn *before* the fan-out and results reduce in
        sample order, so with LU-backed solver backends the report is
        bit-identical for every backend and worker count — including the
        remote backend, whose dead-worker resubmission re-runs the same
        pure per-sample tasks on survivors.  The ``krylov``
        backend evaluates the first sample before the fan-out on
        shared-memory executors so the preconditioner anchor is
        deterministic (process workers re-warm their own workspaces and
        anchor per worker chunk); its pooled-executor results can still
        differ from serial at the solver tolerance, since fallback
        anchors arrive in scheduling order.
    remote_timeout:
        Dead-worker detection bound (seconds) for ``remote`` executor
        specs; ignored otherwise.  ``None`` keeps the default
        (:data:`repro.core.remote.DEFAULT_REMOTE_TIMEOUT`).
    remote_connect_retries:
        Connection attempts per worker address for ``remote`` executor
        specs (exponential backoff between tries); ignored otherwise.
        ``None`` keeps the default
        (:data:`repro.core.remote.DEFAULT_CONNECT_RETRIES`).
    wavelengths_um:
        Optional wavelength axis for scenario-stratified evaluation:
        every Monte-Carlo fabrication draw is re-evaluated at each
        wavelength (same draws across strata — a paired comparison),
        and the report exposes per-wavelength statistics via
        :meth:`RobustnessReport.stratified_foms` /
        :meth:`~RobustnessReport.stratified_yield`.  ``None`` (the
        default) keeps the single-wavelength behaviour bit-for-bit.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    pattern = np.asarray(pattern, dtype=np.float64)
    rng = rng_from_seed(seed)
    corners = [
        sample_corner(rng, process.eole.n_terms, t_delta, index=i)
        for i in range(n_samples)
    ]
    # Wavelength stratification crosses the *same* fabrication draws
    # with each operating point; with no axis this is the identity.
    corners = scenario_family(corners, wavelengths_um)
    n_scenarios = len(corners)

    pool = make_executor(
        executor,
        remote_timeout=remote_timeout,
        remote_connect_retries=remote_connect_retries,
    )
    # In-process (serial/thread) task; the process and remote backends
    # route through _evaluate_sample_task below for worker warm-pooling
    # and stats merging.
    task = functools.partial(_evaluate_sample, device, process, pattern)
    workspace = device.workspace
    try:
        if not pool.supports_shared_memory:
            # Process/remote fan-out: same warm-pool seam as the
            # engine's taped corner fan-out — workers (forked or behind
            # a socket) keep their re-warmed device across chunks and
            # repeated evaluations, and their solve statistics merge
            # back into the parent workspace.
            task_p = functools.partial(
                _evaluate_sample_task,
                stable_worker_token(device, ":eval"),
                device,
                process,
                pattern,
                tracing_active(),
            )
            results = []
            with span(
                "eval.dispatch", "eval",
                backend=pool.name, samples=len(corners),
            ) as dispatch:
                outcomes = pool.map_ordered(task_p, corners)
            tracer = get_tracer()
            metrics = get_metrics()
            for fom, powers, delta, _worker, obs in outcomes:
                if obs is not None:
                    if tracer is not None:
                        tracer.adopt(obs.get("spans", []), dispatch.span_id)
                    metrics.merge_delta(obs.get("metrics"))
                if workspace is not None:
                    workspace.merge_solver_stats(delta)
                results.append((fom, powers))
        else:
            results = map_ordered_with_serial_head(
                pool,
                task,
                corners,
                workspace is not None and workspace.solver_uses_preconditioner,
            )
    finally:
        if not isinstance(executor, CornerExecutor):
            pool.shutdown()

    foms = np.zeros(n_scenarios)
    power_sums: dict[str, dict[str, float]] = {
        d: {} for d in device.directions
    }
    for i, (fom, powers) in enumerate(results):
        foms[i] = fom
        for d, dp in powers.items():
            for name, value in dp.items():
                power_sums[d][name] = power_sums[d].get(name, 0.0) + value
    mean_powers = {
        d: {name: total / n_scenarios for name, total in dp.items()}
        for d, dp in power_sums.items()
    }
    return RobustnessReport(
        foms=foms,
        mean_powers=mean_powers,
        corners=corners,
        fom_lower_is_better=device.fom_lower_is_better,
    )


def evaluate_ideal(
    device: PhotonicDevice,
    pattern: np.ndarray,
) -> tuple[float, dict[str, dict[str, float]]]:
    """FoM of the *un-fabricated* pattern at nominal conditions.

    This is the numerically-plausible pre-fab figure that the paper's
    arrows start from.
    """
    pattern = np.asarray(pattern, dtype=np.float64)
    powers = device.port_powers_array_all(pattern, 1.0)
    return device.fom(powers), powers
