"""Outside-in layer trace for the benchmark's traced runs.

Every layer of the repository is timed from the benchmark process by
wrapping its public entry points in place, at the binding its caller
uses (a class attribute for methods, the importing module's global for
functions imported by name, such as ``build_loss`` in
``repro.core.engine``).  The wrappers open :func:`repro.obs.span` spans
in the ``bench`` category, so they land in the in-memory
:class:`repro.obs.Tracer` of the benchmark process.  Process-pool
workers are forked after the wrappers are installed; their ``bench``
spans and counter deltas come home through the span capture and metric
deltas that ``repro.obs`` already ships back with each worker result.

A layer's self time is its span's duration minus the part of that
interval covered by its child ``bench`` spans (the union of their
intervals, so overlapping worker spans are not counted twice).  The
repository's own spans are ignored when attributing time.
"""

from __future__ import annotations

import functools
from collections import defaultdict

from metrics import PER_LAYER
from repro.obs import get_metrics, span

CATEGORY = "bench"

#: Counter names this module adds to the ``repro.obs`` metrics registry.
LU_NNZ = "bench.lu_nnz"
LU_FACTORS = "bench.lu_factors"
FACTOR_HITS = "bench.factor_hits"
FACTOR_MISSES = "bench.factor_misses"
MODE_MISSES = "bench.mode_misses"
CHECKPOINT_BYTES = "bench.checkpoint_bytes"

def _wrap(owner, attr: str, name: str, after=None) -> None:
    """Replace ``owner.attr`` by a version that runs inside a span."""
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with span(name, CATEGORY):
            out = fn(*args, **kwargs)
        if after is not None:
            after(args, out)
        return out

    setattr(owner, attr, traced)


def _count_lu(fn):
    """Record the nnz of every LU ``fn`` returns (no span of its own)."""

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        lu = fn(*args, **kwargs)
        metrics = get_metrics()
        metrics.counter_add(LU_NNZ, lu.L.nnz + lu.U.nnz)
        metrics.counter_add(LU_FACTORS)
        return lu

    return counted


def _cache_probe(cache: str, counters: dict, entry):
    """Wrap a workspace method to count its cache hits and misses.

    ``counters`` maps a field of ``SimulationWorkspace.stats()[cache]``
    to the counter bumped when a call moves it.
    """

    @functools.wraps(entry)
    def probed(self, *args, **kwargs):
        before = self.stats()[cache]
        out = entry(self, *args, **kwargs)
        after = self.stats()[cache]
        for field, counter in counters.items():
            if after[field] != before[field]:
                get_metrics().counter_add(counter)
        return out

    return probed


def install() -> None:
    """Wrap every layer's entry points (call once, before any fork)."""
    from repro.autodiff.tensor import Tensor
    from repro.core import engine
    from repro.core.checkpoint import CheckpointManager
    from repro.core.engine import Boson1Optimizer
    from repro.core.executors import ProcessExecutor, ThreadExecutor
    from repro.core.optimizer import Adam
    from repro.core.sampling import SAMPLING_STRATEGIES, ScenarioFamilySampling
    from repro.fab.process import FabricationProcess
    from repro.fdfd.adjoint import PortPowerProblem
    from repro.fdfd.linalg.direct import BatchedDirectSolver, DirectSolver
    from repro.fdfd.linalg.krylov import PreconditionedKrylovSolver
    from repro.fdfd.workspace import (
        FactorOptions,
        FdfdAssembly,
        SimulationWorkspace,
    )
    from repro.params.density import DensityParameterization
    from repro.params.levelset import LevelSetParameterization

    SimulationWorkspace.linear_solver = _cache_probe(
        "factorizations",
        {"hits": FACTOR_HITS, "misses": FACTOR_MISSES},
        SimulationWorkspace.linear_solver,
    )
    SimulationWorkspace.slab_mode = _cache_probe(
        "modes", {"misses": MODE_MISSES}, SimulationWorkspace.slab_mode
    )
    # The LU factor itself stays inside linear_solver's self time (or
    # the Krylov solve's, for a fallback); only its size is recorded.
    FactorOptions.splu = _count_lu(FactorOptions.splu)

    entry_points = [
        ("params.decode", LevelSetParameterization, "pattern"),
        ("params.decode", LevelSetParameterization, "pattern_array"),
        ("params.decode", DensityParameterization, "pattern"),
        ("params.decode", DensityParameterization, "pattern_array"),
        ("fab.apply", FabricationProcess, "apply"),
        ("fab.apply", FabricationProcess, "apply_array"),
        ("fdfd.workspace.assembly", SimulationWorkspace, "assembly"),
        ("fdfd.workspace.assembly", FdfdAssembly, "system_matrix"),
        ("fdfd.workspace.linear_solver", SimulationWorkspace, "linear_solver"),
        ("fdfd.workspace.slab_mode", SimulationWorkspace, "slab_mode"),
        ("fdfd.linalg.direct.solve", DirectSolver, "solve"),
        ("fdfd.linalg.direct.solve", DirectSolver, "solve_many"),
        ("fdfd.linalg.direct.solve", BatchedDirectSolver, "solve_many"),
        ("fdfd.linalg.krylov.solve", PreconditionedKrylovSolver, "solve"),
        ("fdfd.linalg.krylov.solve", PreconditionedKrylovSolver, "solve_many"),
        ("fdfd.adjoint.solve", PortPowerProblem, "solve"),
        ("fdfd.adjoint.grad_eps", PortPowerProblem, "grad_eps"),
        ("autodiff.backward", Tensor, "backward"),
        ("core.objective", engine, "build_loss"),
        ("core.objective", engine, "aggregate_losses"),
        ("core.optimizer.adam", Adam, "step"),
        ("core.engine", Boson1Optimizer, "run"),
        ("core.executors.map_ordered", ProcessExecutor, "map_ordered"),
        ("core.executors.map_ordered", ThreadExecutor, "map_ordered"),
    ]
    for cls in [*SAMPLING_STRATEGIES.values(), ScenarioFamilySampling]:
        if "corners" in vars(cls):
            entry_points.append(("core.sampling.corners", cls, "corners"))
    for name, owner, attr in entry_points:
        _wrap(owner, attr, name)
    _wrap(
        CheckpointManager, "save", "core.checkpoint.save",
        after=lambda _args, path: get_metrics().counter_add(
            CHECKPOINT_BYTES, path.stat().st_size
        ),
    )


def _covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def span_times(records: "list[dict]") -> dict:
    """Self time, outermost total time and call count per ``bench`` span.

    Returns ``{name: {"self_s", "total_s", "calls"}}``; ``total_s`` sums
    only spans with no enclosing span of the same name, so recursive
    entry points (``solve_many`` calling ``solve``) are not counted
    twice.
    """
    by_id = {rec["id"]: rec for rec in records}

    def bench_ancestors(rec):
        parent = by_id.get(rec["parent"])
        while parent is not None:
            if parent["cat"] == CATEGORY:
                yield parent
            parent = by_id.get(parent["parent"])

    children = defaultdict(list)
    out: dict = defaultdict(lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0})
    bench = [rec for rec in records if rec["cat"] == CATEGORY]
    for rec in bench:
        ancestors = list(bench_ancestors(rec))
        if ancestors:
            children[ancestors[0]["id"]].append(
                (rec["ts"], rec["ts"] + rec["dur"])
            )
        entry = out[rec["name"]]
        entry["calls"] += 1
        if all(a["name"] != rec["name"] for a in ancestors):
            entry["total_s"] += rec["dur"] / 1e9
    for rec in bench:
        lo, hi = rec["ts"], rec["ts"] + rec["dur"]
        own = rec["dur"] - _covered_ns(children[rec["id"]], lo, hi)
        out[rec["name"]]["self_s"] += own / 1e9
    return dict(out)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(records, counters: dict, solver: dict) -> dict:
    """Per-layer metrics of one traced unit of work.

    ``records`` are the drained span records, ``counters`` the
    ``repro.obs`` metrics counters, and ``solver`` the workspace's
    ``SolveStats`` counters (worker deltas already merged by the
    program).  The serve and trace-overhead metrics are filled in by
    the caller.
    """
    times = span_times(records)

    def self_s(name):
        return times.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return times.get(name, {}).get("calls", 0)

    hits = counters.get(FACTOR_HITS, 0)
    misses = counters.get(FACTOR_MISSES, 0)
    sweeps = solver.get("iterations", 0) + solver.get("wasted_iterations", 0)
    attempts = solver.get("krylov_solves", 0) + solver.get("fallbacks", 0)
    engine_total = times.get("core.engine", {}).get("total_s", 0.0)

    # Worker task spans are adopted under the dispatch span that also
    # encloses the parent's map_ordered span: group both by that parent.
    fanouts = defaultdict(lambda: {"map_ns": 0, "busy_ns": 0, "pids": set()})
    for rec in records:
        if rec["name"] == "core.executors.map_ordered":
            fanouts[rec["parent"]]["map_ns"] += rec["dur"]
        elif rec["name"] == "worker.task":
            fanouts[rec["parent"]]["busy_ns"] += rec["dur"]
            fanouts[rec["parent"]]["pids"].add(rec["pid"])
    n_workers = max((len(f["pids"]) for f in fanouts.values()), default=0)
    busy = sum(f["busy_ns"] for f in fanouts.values())
    capacity = sum(len(f["pids"]) * f["map_ns"] for f in fanouts.values())
    map_total = times.get("core.executors.map_ordered", {}).get("total_s", 0.0)

    out = {name: 0.0 for name in PER_LAYER}
    out.update({
        "fdfd.workspace.linear_solver.self_s": self_s("fdfd.workspace.linear_solver"),
        "fdfd.workspace.factorizations": solver.get("factorizations", 0),
        "fdfd.workspace.factor_hit_ratio": _ratio(hits, hits + misses),
        "fdfd.workspace.lu_nnz": _ratio(
            counters.get(LU_NNZ, 0), counters.get(LU_FACTORS, 0)
        ),
        "fdfd.linalg.direct.solve.self_s": self_s("fdfd.linalg.direct.solve"),
        "fdfd.linalg.rhs_columns": solver.get("rhs_columns", 0),
        "fdfd.linalg.krylov.solve.self_s": self_s("fdfd.linalg.krylov.solve"),
        "fdfd.linalg.krylov.iterations": sweeps,
        "fdfd.linalg.krylov.useful_ratio": _ratio(
            solver.get("iterations", 0), sweeps
        ),
        "fdfd.linalg.krylov.fallback_ratio": _ratio(
            solver.get("fallbacks", 0), attempts
        ),
        "fdfd.workspace.assembly.self_s": self_s("fdfd.workspace.assembly"),
        "fdfd.workspace.slab_mode.self_s": self_s("fdfd.workspace.slab_mode"),
        "fdfd.workspace.mode_misses": counters.get(MODE_MISSES, 0),
        "fab.apply.self_s": self_s("fab.apply"),
        "fab.apply.calls": calls("fab.apply"),
        "params.decode.self_s": self_s("params.decode"),
        "core.sampling.corners.total_s": times.get(
            "core.sampling.corners", {}
        ).get("total_s", 0.0),
        "fdfd.adjoint.solve.self_s": self_s("fdfd.adjoint.solve"),
        "fdfd.adjoint.grad_eps.self_s": self_s("fdfd.adjoint.grad_eps"),
        "fdfd.adjoint.grad_eps.calls": calls("fdfd.adjoint.grad_eps"),
        "autodiff.backward.self_s": self_s("autodiff.backward"),
        "core.objective.self_s": self_s("core.objective"),
        "core.optimizer.adam.self_s": self_s("core.optimizer.adam"),
        "core.engine.self_s": self_s("core.engine"),
        "core.engine.unattributed_ratio": _ratio(
            self_s("core.engine"), engine_total
        ),
        "core.executors.map_ordered.total_s": map_total,
        "core.executors.workers": n_workers,
        "core.executors.busy_ratio": _ratio(busy, capacity),
        "core.checkpoint.save.self_s": self_s("core.checkpoint.save"),
        "core.checkpoint.saves": calls("core.checkpoint.save"),
        "core.checkpoint.bytes": counters.get(CHECKPOINT_BYTES, 0),
    })
    return out
