"""Pluggable executors for independent simulation fan-out.

The variation-aware loop evaluates many *independent* units of work per
step: one loss per fabrication corner in
:meth:`repro.core.engine.Boson1Optimizer.loss`, one FoM per sample in
:func:`repro.eval.montecarlo.evaluate_post_fab`.  This module provides a
minimal executor abstraction over ``concurrent.futures`` so those sites
can fan out without committing to a backend:

* ``serial``  — in-process loop; zero overhead, always available.
* ``thread``  — ``ThreadPoolExecutor``; shared memory, no pickling.
  SuperLU factorization and triangular solves hold the GIL (SciPy
  1.17: eight dl=0.05 factorizations on two threads ran at 0.87-0.96x
  serial speed), so threads overlap only the NumPy work around them —
  FFT lithography and dense array arithmetic.  On a 2-core host an
  8-iteration bending design on ``thread:2`` ran at 0.87-1.18x serial
  speed while its peak RSS roughly doubled (~210 MB to 370-400 MB:
  every in-flight corner holds its own factorization).  Safe for taped
  (autodiff) work: corner subgraphs are disjoint and the tape is built
  from parent pointers, not global state.
* ``process`` — ``ProcessPoolExecutor``; for picklable task payloads.
  Tape-free workloads (Monte-Carlo evaluation) ship whole tasks; taped
  corner losses go through the *forward-replay* seam — workers run only
  the forward FDFD solves on pickle-clean ``(alpha, rho_fab)`` payloads
  and the parent injects the returned solve summaries into the autodiff
  graph (:meth:`repro.devices.base.PhotonicDevice.port_powers_precomputed`).
  Workers re-warm their own simulation caches; :func:`worker_warm` keeps
  the unpickled device (and its warmed workspace) alive across chunks
  and map calls so only the first task of a fan-out pays the re-warm.
* ``remote`` — :class:`repro.core.remote.RemoteCornerExecutor`; the
  same pickle-clean payloads shipped over TCP to worker servers started
  with ``repro worker --listen host:port`` (spec:
  ``remote:host:port[,host:port...]``).  Same seams, same warm-pool
  protocol, plus dead-worker resubmission — see :mod:`repro.core.remote`.

``process`` and ``remote`` specs without an explicit worker count
auto-tune to ``min(n_items, available workers)``
(:func:`resolve_worker_count`): corner counts per iteration bound how
many workers can help, and on a single-core box an auto-tuned process
spec resolves to one worker and runs inline in the parent — forking
would be pure overhead — which makes ``--executor process`` a safe
default everywhere.

Determinism contract
--------------------
:meth:`CornerExecutor.map_ordered` always returns results in **input
order**, whatever order workers finish in, and callers reduce serially
over that list — so results are bit-reproducible regardless of backend
and worker count (asserted by the test suite).  Preconditioned solver
backends are the one exception: each worker process anchors its own
chunk, so iterative results agree with serial only to solver tolerance.
"""

from __future__ import annotations

import itertools
import os
import uuid
from collections import OrderedDict
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from repro.obs.metrics import get_metrics
from repro.obs.trace import SpanCapture, span

__all__ = [
    "CornerExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "make_executor",
    "map_ordered_with_serial_head",
    "resolve_worker_count",
    "worker_warm",
    "run_warm_task",
    "stable_worker_token",
    "task_in_parent",
    "EXECUTOR_BACKENDS",
]

T = TypeVar("T")
R = TypeVar("R")

# --------------------------------------------------------------------- #
# Worker-side warm pool                                                 #
# --------------------------------------------------------------------- #
#: Per-process cache of re-warmed task state (devices + their simulation
#: workspaces), keyed by a parent-issued token.  Process-pool tasks
#: unpickle their device once per chunk; the *first* unpickled copy per
#: token is kept here so every later task of the same fan-out — across
#: chunks and across map calls (optimizer iterations) — reuses the
#: warmed calibration and factorization caches instead of starting cold.
_WORKER_STATE: "OrderedDict[str, object]" = OrderedDict()
#: Distinct fan-outs a single worker keeps warm at once.  Small on
#: purpose: each entry can pin full-grid calibration fields.
_WORKER_STATE_MAX = 4

_TOKEN_COUNTER = itertools.count()

#: Random per-process component of worker tokens.  A bare pid is not a
#: process identity once payloads cross machines (a remote worker host
#: can coincidentally run the server under the parent's pid, which would
#: make :func:`task_in_parent` skip the warm pool and drop stats
#: deltas); the nonce disambiguates.  Forked pool workers inherit the
#: nonce but differ in pid; spawned and remote processes differ in both.
_PROCESS_NONCE = uuid.uuid4().hex[:12]


def _process_identity() -> str:
    return f"{os.getpid()}.{_PROCESS_NONCE}"


def stable_worker_token(obj, suffix: str = "") -> str:
    """A stable warm-pool token for ``obj``, minted on first use.

    Tokens embed the parent's process identity (pid + per-process
    nonce) and a process-wide counter, so two objects can never share
    one within a parent's lifetime (``id()`` reuse after garbage
    collection would), and no worker — forked or on another host — can
    mistake a parent token for its own.  The token is stored on the
    object and ships with its pickle, which is what lets every worker of
    a fan-out agree on the cache key.  ``suffix`` namespaces different
    task kinds warming the same object (e.g. design vs. evaluation).
    """
    token = getattr(obj, "_worker_token", None)
    if token is None:
        token = f"{_process_identity()}:{next(_TOKEN_COUNTER)}"
        object.__setattr__(obj, "_worker_token", token)
    return token + suffix


def task_in_parent(token: str) -> bool:
    """Whether a fan-out task is executing in the process that minted ``token``.

    Pool executors short-circuit single-item maps to an inline call in
    the calling process.  Worker-side behaviour must then be skipped:
    the task is already using the parent's live device and workspace, so
    seeding the warm pool would pin them in the module-global cache and
    a stats delta would double-count work the parent's own counters
    already recorded.  Tokens embed the minting process's identity
    (:func:`stable_worker_token`), which makes the check one comparison
    — and one that stays correct across hosts, where pids can collide.
    """
    return token.partition(":")[0] == _process_identity()


def worker_warm(token: str, value: T) -> T:
    """Return the per-process warm instance for ``token``.

    The first call in a worker process seeds the cache with ``value``
    (typically the task state just unpickled); later calls return the
    cached instance and drop the fresh copy.  Bounded LRU — ancient
    fan-outs age out rather than pinning workspaces forever.
    """
    cached = _WORKER_STATE.get(token)
    if cached is not None:
        _WORKER_STATE.move_to_end(token)
        return cached
    _WORKER_STATE[token] = value
    while len(_WORKER_STATE) > _WORKER_STATE_MAX:
        _WORKER_STATE.popitem(last=False)
    return value


def run_warm_task(
    token: str,
    fresh_value: T,
    task: Callable[[T], R],
    workspace_of: Callable[[T], "object | None"],
    inline_task: Callable[[T], R] | None = None,
    capture_obs: bool = False,
) -> "tuple[R, dict, str | None, dict | None]":
    """Execute one fan-out task under the worker warm-pool protocol.

    The single home of the invariant both the taped corner fan-out and
    the Monte-Carlo fan-out rely on, so it cannot drift between them:

    * **Inline in the parent** (pools short-circuit single-item maps):
      run on ``fresh_value`` directly — the parent's live state is
      already doing and counting the work, so no warm-pool seeding and
      an *empty* stats delta (a non-empty one would double-count).
      ``inline_task`` overrides ``task`` for callers whose worker task
      has worker-only side effects (e.g. epoch resets).
    * **In a forked worker**: park ``fresh_value`` in the warm pool
      (first task per token wins; later unpickled copies are dropped),
      bracket the warmed value's workspace solver stats around the task,
      and return the delta for the parent to merge.

    Returns ``(result, stats delta, worker identity, obs payload)`` —
    the identity (``pid.nonce``, see :func:`stable_worker_token`) is
    fan-out evidence that stays distinct across hosts where bare pids
    can collide; an inline run reports ``None`` instead, so parents
    never count their own work as a worker's.  When the parent asked
    for observability capture (``capture_obs=True`` baked into the
    pickled task), a worker brackets the task in a
    :class:`repro.obs.trace.SpanCapture` plus a metrics baseline and
    ships ``{"spans": [...], "metrics": {...}}`` home; inline runs ship
    ``None`` — the parent's own tracer and registry already saw the
    work.
    """
    if task_in_parent(token):
        return (inline_task or task)(fresh_value), {}, None, None
    value = worker_warm(token, fresh_value)
    workspace = workspace_of(value)
    before = (
        workspace.solver_stats.as_dict() if workspace is not None else None
    )
    obs = None
    if capture_obs:
        metrics = get_metrics()
        metrics_before = metrics.as_dict()
        with SpanCapture("worker.task", "worker", token=token) as cap:
            result = task(value)
        obs = {
            "spans": cap.records,
            "metrics": metrics.delta_since(metrics_before),
        }
    else:
        result = task(value)
    delta = (
        workspace.solver_stats.delta_since(before)
        if workspace is not None
        else {}
    )
    return result, delta, _process_identity(), obs


class CornerExecutor:
    """Base executor: ordered map over independent work items."""

    name = "base"
    #: Whether tasks may carry non-picklable state (tapes, LU objects).
    supports_shared_memory = True

    def map_ordered(
        self, fn: Callable[[T], R], items: Sequence[T] | Iterable[T]
    ) -> list[R]:
        """Apply ``fn`` to every item; results in input order."""
        raise NotImplementedError

    def shutdown(self) -> None:
        """Release worker resources (no-op for the serial backend)."""

    def __enter__(self) -> "CornerExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


class SerialExecutor(CornerExecutor):
    """The default: a plain loop in the calling thread."""

    name = "serial"

    def map_ordered(self, fn, items):
        return [fn(item) for item in items]


def resolve_worker_count(
    requested: int | None, n_items: int, available: int
) -> int:
    """Workers actually worth using for one fan-out.

    An explicit request always wins.  Otherwise ``min(n_items,
    available)``, floored at 1: more workers than items can only idle,
    and more than the machine (or address list) offers can only thrash.
    On a single-core box this resolves an auto ``process`` spec to one
    worker — which pool executors then run inline in the parent, since a
    lone forked worker is pure fork/pickle overhead.
    """
    if requested is not None:
        return int(requested)
    return max(1, min(int(n_items), int(available)))


class _PoolExecutor(CornerExecutor):
    """Shared machinery for ``concurrent.futures``-backed executors."""

    #: Whether an auto-resolved single worker should skip the pool and
    #: run inline in the parent.  True for process pools (one forked
    #: worker is strictly worse than the parent doing the work); False
    #: for threads, which keep their pre-autotune behaviour.
    _inline_single_auto_worker = False

    def __init__(self, max_workers: int | None = None):
        self.max_workers = max_workers
        self._pool: Executor | None = None
        self._pool_workers: int | None = None

    def _make_pool(self, workers: int) -> Executor:
        raise NotImplementedError

    def _available_workers(self) -> int:
        return os.cpu_count() or 1

    def _resolve_workers(self, n_items: int) -> int:
        if self._pool_workers is not None:
            # A live pool's size sticks until shutdown; resizing per map
            # call would churn workers and their warm state.
            return self._pool_workers
        return resolve_worker_count(
            self.max_workers, n_items, self._available_workers()
        )

    def map_ordered(self, fn, items):
        items = list(items)
        if len(items) <= 1:
            return [fn(item) for item in items]
        workers = self._resolve_workers(len(items))
        if (
            workers <= 1
            and self._pool is None
            and self.max_workers is None
            and self._inline_single_auto_worker
        ):
            return [fn(item) for item in items]
        if self._pool is None:
            self._pool_workers = workers
            self._pool = self._make_pool(workers)
        # Executor.map yields results in submission order: the ordered,
        # deterministic reduction the callers rely on.
        with span("executor.map", "executor", backend=self.name,
                  items=len(items), workers=workers):
            return list(
                self._pool.map(
                    fn, items, chunksize=self._chunksize(len(items))
                )
            )

    def _chunksize(self, n_items: int) -> int:
        return 1

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._pool_workers = None


class ThreadExecutor(_PoolExecutor):
    """Thread-pool fan-out (shared memory; SuperLU holds the GIL)."""

    name = "thread"

    def _available_workers(self) -> int:
        # Threads share the parent's memory; beyond a handful they only
        # contend, whatever the item count (pre-autotune default kept).
        return min(8, os.cpu_count() or 1)

    def _resolve_workers(self, n_items: int) -> int:
        if self._pool_workers is not None:
            return self._pool_workers
        # Item-count-independent: a thread pool is cheap to fill and the
        # auto-tuning contract only covers process/remote backends.
        return self.max_workers or self._available_workers()

    def _make_pool(self, workers: int) -> Executor:
        return ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="corner"
        )


def _pool_worker_init() -> None:
    """Process-pool initializer: inherit the parent's logging config.

    The level travels through ``$REPRO_LOG_LEVEL`` (exported by
    ``configure_logging``), so spawned workers match the parent without
    every call site threading a level argument through pickles.
    """
    from repro.utils.logsetup import LOG_LEVEL_ENV, configure_logging

    if os.environ.get(LOG_LEVEL_ENV):
        configure_logging()


class ProcessExecutor(_PoolExecutor):
    """Process-pool fan-out for picklable task payloads.

    Taped corner losses cannot ship whole (tapes and LU objects do not
    pickle); they cross this executor through the forward-replay seam —
    see the module docstring and
    :meth:`repro.core.engine.Boson1Optimizer.loss`.

    Without an explicit worker count the pool auto-tunes to
    ``min(n_items, cpu count)`` at first use, and a single-core
    resolution runs inline in the parent instead of forking.
    """

    name = "process"
    supports_shared_memory = False
    _inline_single_auto_worker = True

    def _make_pool(self, workers: int) -> Executor:
        return ProcessPoolExecutor(
            max_workers=workers, initializer=_pool_worker_init
        )

    def _chunksize(self, n_items: int) -> int:
        # One chunk per worker: the task payload (device, process,
        # pattern) is pickled once per chunk, so each worker unpickles a
        # single simulation workspace and warms it across its chunk
        # instead of starting cold on every item.
        workers = self._pool_workers or self.max_workers or (os.cpu_count() or 1)
        return max(1, -(-n_items // workers))


def map_ordered_with_serial_head(
    pool: CornerExecutor,
    fn: Callable[[T], R],
    items: Sequence[T] | Iterable[T],
    serial_head: bool,
) -> list[R]:
    """Ordered map, optionally evaluating the first item inline first.

    Callers whose solver backend reuses preconditioner anchors (the
    ``krylov`` workspace backends) run the first item in the calling
    thread so the anchor is established deterministically before the
    fan-out.  The head is skipped for executors without shared memory
    (process pools): their workers hold their own re-warmed workspaces,
    so a parent-side anchor would be dead work.
    """
    items = list(items)
    if not serial_head or not items or not pool.supports_shared_memory:
        return list(pool.map_ordered(fn, items))
    return [fn(items[0])] + list(pool.map_ordered(fn, items[1:]))


def _remote_factory(
    address_spec: str,
    max_workers: int | None = None,
    remote_timeout: float | None = None,
    remote_connect_retries: int | None = None,
) -> CornerExecutor:
    """Build a :class:`repro.core.remote.RemoteCornerExecutor`.

    Imported lazily: :mod:`repro.core.remote` subclasses
    :class:`CornerExecutor` from this module, so a top-level import here
    would be a cycle.
    """
    from repro.core.remote import RemoteCornerExecutor

    return RemoteCornerExecutor(
        address_spec,
        timeout=remote_timeout,
        max_workers=max_workers,
        connect_retries=remote_connect_retries,
    )


#: Registered executor backends.  ``remote`` maps to a *factory* (its
#: spec remainder is an address list, not a worker count, and the class
#: lives in :mod:`repro.core.remote` to keep this module socket-free).
EXECUTOR_BACKENDS: dict[str, "type[CornerExecutor] | Callable"] = {
    "serial": SerialExecutor,
    "thread": ThreadExecutor,
    "process": ProcessExecutor,
    "remote": _remote_factory,
}


def make_executor(
    spec: "str | CornerExecutor | None",
    max_workers: int | None = None,
    remote_timeout: float | None = None,
    remote_connect_retries: int | None = None,
) -> CornerExecutor:
    """Build an executor from a backend spec.

    Parameters
    ----------
    spec:
        ``None`` or ``"serial"``, ``"thread"``, ``"process"`` —
        optionally with a worker count suffix (``"thread:4"``) — or
        ``"remote:host:port[,host:port...]"``.  An existing
        :class:`CornerExecutor` passes through unchanged.
    max_workers:
        Worker count; overridden by a ``:n`` suffix in ``spec``.
        ``None`` auto-tunes pooled backends (see
        :func:`resolve_worker_count`); for ``remote`` it caps how many
        of the listed workers a single fan-out uses.
    remote_timeout:
        Dead-worker detection bound in seconds for the ``remote``
        backend (CLI ``--remote-timeout``); ignored by the in-process
        backends.
    remote_connect_retries:
        Connection attempts per worker address for the ``remote``
        backend (CLI ``--remote-connect-retries``); ignored by the
        in-process backends.
    """
    if spec is None:
        return SerialExecutor()
    if isinstance(spec, CornerExecutor):
        return spec
    name, _, rest = str(spec).partition(":")
    if name == "remote":
        if not rest:
            raise ValueError(
                "remote executor spec needs worker addresses: "
                "remote:host:port[,host:port...]"
            )
        return _remote_factory(
            rest,
            max_workers=max_workers,
            remote_timeout=remote_timeout,
            remote_connect_retries=remote_connect_retries,
        )
    if rest:
        try:
            max_workers = int(rest)
        except ValueError:
            raise ValueError(
                f"invalid worker count in executor spec {spec!r}"
            ) from None
        if max_workers < 1:
            raise ValueError(f"executor workers must be >= 1, got {max_workers}")
    try:
        cls = EXECUTOR_BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown executor backend {name!r}; "
            f"have {sorted(EXECUTOR_BACKENDS)}"
        ) from None
    if cls is SerialExecutor:
        return cls()
    return cls(max_workers=max_workers)
