"""``repro serve`` — a restart-safe design-job daemon over the fleet.

The missing piece between "a CLI that runs one optimization" and "a
service that takes traffic": clients submit design jobs over the same
length-prefixed, BLAKE2b-checked frame protocol, handshake and server
lifecycle as ``repro worker`` (:class:`repro.core.remote.FrameServer`
and :func:`~repro.core.remote.client_handshake`), the daemon queues
them on disk,
runs each through :class:`~repro.core.engine.Boson1Optimizer` with
checkpointing forced on, and streams live iteration records back to
``watch`` clients in the :func:`repro.obs.export.iteration_entry`
JSONL shape — the exact records a ``--trace-dir`` run writes, so the
same tooling reads both.

Frame kinds (all version-pinned like ``hello``; skew is a descriptive
``error``, never a hang):

* ``submit`` — device name + :class:`OptimizerConfig` keyword overrides;
  validated eagerly (an invalid config is refused before anything is
  queued), answered with ``submitted`` carrying the job record.
* ``status`` / ``list`` — job record(s) plus daemon gauges (queue depth,
  jobs running, RSS) and the fleet-health gauges harvested from worker
  ``busy`` heartbeats (``remote.worker.HOST:PORT.*``).
* ``watch`` — streams every progress record from the start of the job's
  ``progress.jsonl`` and tails it live (``busy`` keepalives while an
  iteration computes), ending with ``done`` when the job settles.
  Because the stream always replays from the beginning, re-watching
  after a daemon restart yields the complete iteration history.
* ``cancel`` — a queued job is cancelled in place; a running job gets a
  cross-thread soft stop (finish the iteration, checkpoint, settle as
  ``cancelled``).

Restart semantics: every job lives in its own directory (atomic-write
``job.json`` spec/state, ``checkpoints/``, ``progress.jsonl``,
``result.json``), so a SIGKILLed daemon loses nothing — on startup the
job directory is rescanned, and jobs found ``running``/``interrupted``
are re-queued to resume from
:func:`~repro.core.checkpoint.find_latest_checkpoint` (LU-backed jobs
continue bitwise).  SIGTERM drains gracefully: the cross-thread stop
seam (:class:`~repro.core.checkpoint.GracefulShutdown` with an
``external_stop`` event) reaches every running job's loop, each
finishes its iteration, checkpoints, and is marked ``interrupted``.

No authentication or transport encryption yet — exactly like
``repro worker``, the daemon executes submitted configs, so bind it to
trusted networks only.
"""

from __future__ import annotations

import json
import logging
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.core.checkpoint import find_latest_checkpoint
from repro.core.config import OptimizerConfig
from repro.core.remote import (
    PROTOCOL_VERSION,
    FrameServer,
    RemoteProtocolError,
    RemoteWorkerDied,
    client_handshake,
    client_heartbeat_interval,
    hang_up,
    recv_frame,
    refuse,
    send_frame,
)
from repro.obs.export import iteration_entry
from repro.obs.metrics import get_metrics, rss_bytes
from repro.utils.io import atomic_write_json, atomic_write_text, save_result

__all__ = [
    "JOB_STATES",
    "TERMINAL_STATES",
    "ServeError",
    "Job",
    "JobStore",
    "ServeDaemon",
    "ServeClient",
]

log = logging.getLogger(__name__)

#: Every state a job record can carry.  ``interrupted`` is *resumable*
#: (a drained daemon's parting state), not terminal: the next daemon
#: start re-queues it and resumes from the newest checkpoint.
JOB_STATES = (
    "queued",
    "running",
    "completed",
    "failed",
    "cancelled",
    "interrupted",
)

#: States a job never leaves; ``watch`` streams end here.
TERMINAL_STATES = frozenset({"completed", "failed", "cancelled"})

#: Request kinds introduced by the serve protocol.  Each frame carries
#: its own ``version`` field and is refused descriptively on skew, like
#: ``hello`` — a stale client cannot half-speak to a newer daemon.
REQUEST_KINDS = ("submit", "status", "watch", "cancel", "list")


class ServeError(RuntimeError):
    """A serve request was refused (unknown job, invalid config, skew)."""


# --------------------------------------------------------------------- #
# On-disk job records                                                   #
# --------------------------------------------------------------------- #
@dataclass
class Job:
    """One submitted design job and its current state."""

    id: str
    device: str
    config: dict = field(default_factory=dict)
    status: str = "queued"
    error: "str | None" = None
    submitted_unix: "float | None" = None
    started_unix: "float | None" = None
    finished_unix: "float | None" = None
    iterations_done: int = 0

    def to_payload(self) -> dict:
        return {
            "id": self.id,
            "device": self.device,
            "config": dict(self.config),
            "status": self.status,
            "error": self.error,
            "submitted_unix": self.submitted_unix,
            "started_unix": self.started_unix,
            "finished_unix": self.finished_unix,
            "iterations_done": self.iterations_done,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Job":
        return cls(
            id=str(payload["id"]),
            device=str(payload["device"]),
            config=dict(payload.get("config") or {}),
            status=str(payload.get("status", "queued")),
            error=payload.get("error"),
            submitted_unix=payload.get("submitted_unix"),
            started_unix=payload.get("started_unix"),
            finished_unix=payload.get("finished_unix"),
            iterations_done=int(payload.get("iterations_done", 0)),
        )


class JobStore:
    """Directory-per-job persistence with atomic ``job.json`` records.

    Layout under ``root``::

        job-000001/
            job.json            # spec + state (atomic replace + fsync)
            checkpoints/        # CheckpointManager rotation lives here
            progress.jsonl      # iteration_entry records, append + flush
            result.json         # save_result payload once completed

    Every mutation lands via tmp file + fsync + rename, so a SIGKILL at
    any instant leaves the previous complete record, never a torn one —
    the property the daemon's restart rescan relies on.
    """

    def __init__(self, root: "str | Path"):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._jobs: "dict[str, Job]" = {}

    def job_dir(self, job_id: str) -> Path:
        return self.root / job_id

    def spec_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "job.json"

    def checkpoint_dir(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "checkpoints"

    def progress_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "progress.jsonl"

    def result_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "result.json"

    def scan(self) -> "list[Job]":
        """(Re)load every job record on disk, oldest id first.

        Corrupt or unreadable records are skipped with a warning — a
        torn directory must not strand the daemon's whole queue.
        """
        with self._lock:
            for spec in sorted(self.root.glob("job-*/job.json")):
                try:
                    job = Job.from_payload(
                        json.loads(spec.read_text(encoding="utf-8"))
                    )
                except (OSError, ValueError, KeyError) as exc:
                    log.warning("skipping unreadable job record %s: %s",
                                spec, exc)
                    continue
                self._jobs[job.id] = job
            return [self._jobs[k] for k in sorted(self._jobs)]

    def create(self, device: str, config: dict) -> Job:
        """Allocate the next job id and persist a queued record."""
        with self._lock:
            numbers = [0]
            for existing in self._jobs:
                try:
                    numbers.append(int(existing.split("-", 1)[1]))
                except (IndexError, ValueError):
                    pass
            job = Job(
                id=f"job-{max(numbers) + 1:06d}",
                device=device,
                config=dict(config),
                submitted_unix=time.time(),
            )
            self._jobs[job.id] = job
            self.save(job)
            return job

    def get(self, job_id) -> "Job | None":
        with self._lock:
            return self._jobs.get(job_id)

    def all(self) -> "list[Job]":
        with self._lock:
            return [self._jobs[k] for k in sorted(self._jobs)]

    def save(self, job: Job) -> None:
        """Persist the record crash-safely (fsynced atomic replace)."""
        self.job_dir(job.id).mkdir(parents=True, exist_ok=True)
        atomic_write_json(self.spec_path(job.id), job.to_payload())


# --------------------------------------------------------------------- #
# Daemon                                                                #
# --------------------------------------------------------------------- #
class ServeDaemon(FrameServer):
    """The :class:`~repro.core.remote.FrameServer` behind ``repro serve``.

    Adds the version-pinned job requests and ``parallel`` runner threads
    that drain the job queue while :meth:`serve_forever` accepts
    connections.  Construction rescans ``jobs_dir`` so a restarted
    daemon re-queues every job it was running when it died; a graceful
    stop waits for the runners, each parking its job as ``interrupted``.

    ``fleet`` is a list of ``(host, port)`` worker addresses; jobs that
    do not pin their own ``corner_executor`` fan corners out across it,
    and the workers' heartbeat gauges become the daemon's fleet-health
    view (surfaced on ``status``/``list``).
    """

    role = "daemon"

    def __init__(
        self,
        jobs_dir: "str | Path",
        host: str = "127.0.0.1",
        port: int = 0,
        fleet: "list[tuple[str, int]] | None" = None,
        parallel: int = 1,
        protocol_version: int = PROTOCOL_VERSION,
    ):
        if parallel < 1:
            raise ValueError(f"parallel must be >= 1, got {parallel}")
        self.store = JobStore(jobs_dir)
        super().__init__(host, port, protocol_version)
        self.fleet = [(str(h), int(p)) for h, p in (fleet or [])]
        self.parallel = int(parallel)
        self._handlers = {kind: self._pinned for kind in REQUEST_KINDS}
        #: Queued job ids, FIFO; guarded by ``_lock``.
        self._queue: "deque[str]" = deque()
        self._queue_cond = threading.Condition(self._lock)
        #: Progress/state-change signal for ``watch`` streams.
        self._watch_cond = threading.Condition(self._lock)
        #: Per-running-job cross-thread stop events.
        self._stops: "dict[str, threading.Event]" = {}
        #: Running jobs whose stop was a *cancel* (vs a daemon drain).
        self._cancel_requested: "set[str]" = set()
        self._runners: "list[threading.Thread]" = []
        self._recover()

    # -------------------------------------------------------------- #
    # Restart recovery                                                #
    # -------------------------------------------------------------- #
    def _recover(self) -> None:
        """Re-queue on-disk jobs: interrupted work resumes first.

        ``running`` means the previous daemon was SIGKILLed mid-job;
        ``interrupted`` means it drained gracefully.  Both resume from
        the newest valid checkpoint (none found → from scratch), and
        their progress streams are trimmed to the checkpoint boundary
        so re-executed iterations are never double-streamed.
        """
        resumable, queued = [], []
        for job in self.store.scan():
            if job.status in ("running", "interrupted"):
                resumable.append(job)
            elif job.status == "queued":
                queued.append(job)
        for job in resumable + queued:
            if job.status != "queued":
                found = find_latest_checkpoint(
                    self.store.checkpoint_dir(job.id)
                )
                next_iteration = found[1].next_iteration if found else 0
                self._trim_progress(job.id, next_iteration)
                job.iterations_done = next_iteration
                log.info(
                    "recovered %s job %s: will resume from iteration %d",
                    job.status, job.id, next_iteration,
                )
            self._queue.append(job.id)

    def _trim_progress(self, job_id: str, next_iteration: int) -> None:
        """Drop progress records the resumed run will re-execute.

        Keeps records with ``iteration < next_iteration`` (those
        iterations are checkpoint-final); a torn tail line from a
        SIGKILL mid-append is dropped too.  Without this, a resume
        would double-stream the iterations it replays.
        """
        path = self.store.progress_path(job_id)
        if not path.exists():
            return
        kept = []
        for line in path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            iteration = record.get("iteration")
            if isinstance(iteration, int) and iteration < next_iteration:
                kept.append(line)
        atomic_write_text(path, "".join(k + "\n" for k in kept))

    # -------------------------------------------------------------- #
    # Lifecycle                                                       #
    # -------------------------------------------------------------- #
    def serve_forever(self) -> None:
        """Run runners + accept loop until :meth:`shutdown` or a drain.

        After :meth:`request_graceful_shutdown` queued jobs stay queued
        (they restart clean next time) and this method waits for every
        running job to finish its iteration, checkpoint, and settle as
        ``interrupted`` before returning — the state the next daemon
        start resumes from.
        """
        with self._lock:
            if not self._runners:
                self._runners = [
                    threading.Thread(
                        target=self._runner_loop,
                        name=f"serve-runner-{i}",
                        daemon=True,
                    )
                    for i in range(self.parallel)
                ]
                for runner in self._runners:
                    runner.start()
        super().serve_forever()

    def _drain(self) -> None:
        for runner in self._runners:
            runner.join()

    def _wake(self) -> None:
        # Route a stop into every running job's loop via its
        # cross-thread event, and wake idle runners and watch streams.
        with self._lock:
            for stop in self._stops.values():
                stop.set()
            self._queue_cond.notify_all()
            self._watch_cond.notify_all()

    def wait_idle(self, timeout: "float | None" = None) -> bool:
        """Block until nothing is queued or running; True if in time."""
        with self._queue_cond:
            return self._queue_cond.wait_for(
                lambda: not self._queue and not self._stops, timeout=timeout
            )

    # -------------------------------------------------------------- #
    # Gauges (fleet-health view)                                      #
    # -------------------------------------------------------------- #
    def _gauge_snapshot(self) -> dict:
        with self._lock:
            queued = len(self._queue)
            running = len(self._stops)
        return {
            "queue_depth": queued + running,
            "jobs_running": running,
            "rss_bytes": rss_bytes(),
        }

    def _fleet_gauges(self) -> dict:
        """Worker gauges the remote executors piggybacked on heartbeats.

        The remote client publishes each worker's ``busy`` gauges as
        ``remote.worker.HOST:PORT.*`` in the process-global registry;
        this is the scheduler's per-worker health view (queue depth,
        tasks completed, RSS), surfaced to ``status``/``list`` clients.
        """
        gauges = get_metrics().as_dict().get("gauges", {})
        return {
            name: value
            for name, value in gauges.items()
            if name.startswith("remote.worker.")
        }

    # -------------------------------------------------------------- #
    # Job execution                                                   #
    # -------------------------------------------------------------- #
    def _notify(self) -> None:
        with self._lock:
            self._watch_cond.notify_all()
            self._queue_cond.notify_all()

    def _runner_loop(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not (
                    self._draining or self._closed
                ):
                    self._queue_cond.wait(timeout=0.5)
                if self._draining or self._closed:
                    return  # queued jobs stay queued on disk
                job_id = self._queue.popleft()
                job = self.store.get(job_id)
                if job is None:  # pragma: no cover - record vanished
                    continue
                stop = threading.Event()
                self._stops[job.id] = stop
            try:
                self._execute(job, stop)
            except Exception:
                job.status = "failed"
                job.error = traceback.format_exc(limit=20)
                job.finished_unix = time.time()
                self.store.save(job)
                log.exception("job %s failed", job.id)
            finally:
                with self._lock:
                    self._stops.pop(job.id, None)
                    self._cancel_requested.discard(job.id)
                self._notify()

    def _job_config(self, job: Job) -> OptimizerConfig:
        """The job's validated config, daemon knobs forced on.

        ``checkpoint_dir`` always points into the job directory (that
        is what makes a SIGKILLed daemon recoverable) and ``trace_dir``
        is stripped — progress streaming *is* the trace channel here.
        Jobs without an explicit ``corner_executor`` fan out across the
        configured fleet.
        """
        kwargs = dict(job.config)
        kwargs.pop("checkpoint_dir", None)
        kwargs.pop("trace_dir", None)
        if self.fleet and "corner_executor" not in kwargs:
            kwargs["corner_executor"] = "remote:" + ",".join(
                f"{h}:{p}" for h, p in self.fleet
            )
        return OptimizerConfig(
            checkpoint_dir=str(self.store.checkpoint_dir(job.id)), **kwargs
        )

    def _execute(self, job: Job, stop: threading.Event) -> None:
        from repro.core.engine import Boson1Optimizer
        from repro.devices import make_device

        device = make_device(job.device)
        config = self._job_config(job)
        resume = None
        found = find_latest_checkpoint(self.store.checkpoint_dir(job.id))
        if found is not None:
            # find_latest_checkpoint already tolerates rotation debris:
            # an orphan sidecar without its payload is never listed, and
            # a torn payload is skipped with a warning.
            resume_path, resume = found
            log.info("job %s: resuming from %s", job.id, resume_path)
        job.status = "running"
        if job.started_unix is None:
            job.started_unix = time.time()
        self.store.save(job)
        self._notify()

        optimizer = Boson1Optimizer(device, config)
        progress = self.store.progress_path(job.id).open(
            "a", encoding="utf-8"
        )
        try:

            def on_iteration(record):
                entry = iteration_entry(
                    "iteration",
                    record.iteration,
                    extra={
                        "loss": float(record.loss),
                        "fom": float(record.fom),
                        "grad_norm": record.grad_norm,
                        "step_norm": record.step_norm,
                        "job": job.id,
                    },
                    workspace=device.workspace,
                )
                progress.write(json.dumps(entry) + "\n")
                progress.flush()
                job.iterations_done = record.iteration + 1
                self._notify()

            result = optimizer.run(
                callback=on_iteration, resume=resume, stop_event=stop
            )
        finally:
            progress.close()
            optimizer.close()

        with self._lock:
            cancelled = job.id in self._cancel_requested
        if result.interrupted:
            # A stop either came from cancel (terminal) or from a
            # daemon drain (resumable on the next start).
            job.status = "cancelled" if cancelled else "interrupted"
            if cancelled:
                job.finished_unix = time.time()
        else:
            # Write the result before the status flips: watchers poll
            # ``job.status`` on this shared object and treat a terminal
            # state as licence to read result.json.
            save_result(
                {
                    "device": job.device,
                    "method": "BOSON-1",
                    "pattern": result.pattern,
                    "fom_trace": result.fom_trace(),
                    "final_loss": result.final_loss,
                    "seed": config.seed,
                    "iterations": len(result.history),
                },
                self.store.result_path(job.id),
            )
            job.status = "completed"
            job.finished_unix = time.time()
        job.error = None
        self.store.save(job)
        self._notify()
        log.info("job %s settled: %s", job.id, job.status)

    # -------------------------------------------------------------- #
    # Connection handling                                             #
    # -------------------------------------------------------------- #
    def _pinned(self, conn, message, heartbeat) -> bool:
        """Version-pinned like hello: every serve request carries the
        protocol version, so a frame replayed from a stale client is
        refused descriptively, not misparsed."""
        kind = message["kind"]
        if int(message.get("version", -1)) != self.protocol_version:
            return refuse(
                conn,
                f"protocol version mismatch on {kind!r}: daemon speaks "
                f"v{self.protocol_version}, frame carries "
                f"v{message.get('version')!r} — upgrade the older side",
            )
        return getattr(self, f"_handle_{kind}")(conn, message, heartbeat)

    def _job_payload(self, job: Job) -> dict:
        with self._lock:
            payload = job.to_payload()
            payload["cancelling"] = job.id in self._cancel_requested
        return payload

    def _handle_submit(self, conn, message, heartbeat) -> bool:
        from repro.devices import DEVICE_REGISTRY

        device = message.get("device")
        config = message.get("config") or {}
        if device not in DEVICE_REGISTRY:
            return refuse(
                conn,
                f"unknown device {device!r}; expected one of "
                f"{sorted(DEVICE_REGISTRY)}",
            )
        if not isinstance(config, dict):
            return refuse(
                conn,
                "submit config must be a dict of OptimizerConfig "
                f"overrides, got {type(config).__name__}",
            )
        probe = Job(id="probe", device=str(device), config=dict(config))
        try:
            self._job_config(probe)  # validate before anything is queued
        except (TypeError, ValueError) as exc:
            return refuse(conn, f"invalid job config: {exc}")
        with self._lock:
            draining = self._draining or self._closed
            if not draining:
                job = self.store.create(str(device), dict(config))
                self._queue.append(job.id)
                self._queue_cond.notify_all()
        if draining:
            return refuse(conn, "daemon is draining; resubmit after restart")
        send_frame(conn, {"kind": "submitted", "job": self._job_payload(job)})
        return True

    def _handle_status(self, conn, message, heartbeat) -> bool:
        job = self.store.get(message.get("job"))
        if job is None:
            return refuse(conn, f"unknown job {message.get('job')!r}")
        send_frame(
            conn,
            {
                "kind": "job",
                "job": self._job_payload(job),
                "daemon": self._gauge_snapshot(),
                "fleet": self._fleet_gauges(),
            },
        )
        return True

    def _handle_list(self, conn, message, heartbeat) -> bool:
        send_frame(
            conn,
            {
                "kind": "jobs",
                "jobs": [self._job_payload(j) for j in self.store.all()],
                "daemon": self._gauge_snapshot(),
                "fleet": self._fleet_gauges(),
            },
        )
        return True

    def _handle_cancel(self, conn, message, heartbeat) -> bool:
        job = self.store.get(message.get("job"))
        if job is None:
            return refuse(conn, f"unknown job {message.get('job')!r}")
        with self._lock:
            if job.id in self._queue:
                self._queue.remove(job.id)
                job.status = "cancelled"
                job.finished_unix = time.time()
                self.store.save(job)
            elif job.id in self._stops:
                # Running: soft-stop — the loop finishes its iteration,
                # checkpoints, and the runner settles it as cancelled.
                self._cancel_requested.add(job.id)
                self._stops[job.id].set()
            # Terminal jobs: cancel is a no-op, current state returned.
            self._watch_cond.notify_all()
        send_frame(conn, {"kind": "cancelled", "job": self._job_payload(job)})
        return True

    def _handle_watch(self, conn, message, heartbeat) -> bool:
        job = self.store.get(message.get("job"))
        if job is None:
            return refuse(conn, f"unknown job {message.get('job')!r}")
        path = self.store.progress_path(job.id)
        offset = 0
        buffered = ""
        last_frame = time.monotonic()

        def stream_new() -> None:
            nonlocal offset, buffered, last_frame
            if not path.exists():
                return
            size = path.stat().st_size
            if size < offset:
                # The file was trimmed under us (resume rewrote it);
                # replay from the start — records are keyed by
                # iteration, so clients can reconcile.
                offset, buffered = 0, ""
            with path.open("rb") as fh:
                fh.seek(offset)
                chunk = fh.read()
            offset += len(chunk)
            buffered += chunk.decode("utf-8", "replace")
            while "\n" in buffered:
                line, buffered = buffered.split("\n", 1)
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                send_frame(conn, {"kind": "progress", "record": record})
                last_frame = time.monotonic()

        while True:
            stream_new()
            status = job.status
            if status in TERMINAL_STATES:
                # Records written just before the status flip may
                # postdate our last read; drain once more, then close
                # the stream.
                stream_new()
                send_frame(
                    conn, {"kind": "done", "job": self._job_payload(job)}
                )
                return True
            if self._closed:
                return False
            if time.monotonic() - last_frame >= heartbeat:
                # Keepalive while an iteration computes: the client's
                # dead-peer timeout stays armed without killing healthy
                # long solves, and gauges ride along like worker busy
                # frames.
                send_frame(
                    conn,
                    {"kind": "busy", "gauges": self._gauge_snapshot()},
                )
                last_frame = time.monotonic()
            with self._watch_cond:
                self._watch_cond.wait(timeout=min(0.25, heartbeat))


# --------------------------------------------------------------------- #
# Client                                                                #
# --------------------------------------------------------------------- #
class ServeClient:
    """One handshaken connection to a :class:`ServeDaemon`.

    Thin request/response wrapper behind ``repro submit|status|watch|
    cancel``; every request is version-pinned and a daemon ``error``
    frame surfaces as :class:`ServeError`.
    """

    def __init__(
        self,
        address: "tuple[str, int]",
        timeout: float = 30.0,
        protocol_version: int = PROTOCOL_VERSION,
    ):
        self.address = (str(address[0]), int(address[1]))
        self.timeout = float(timeout)
        self.protocol_version = int(protocol_version)
        try:
            self.sock, welcome = client_handshake(
                self.address,
                self.timeout,
                client_heartbeat_interval(self.timeout),
                "daemon",
                self.protocol_version,
            )
        except (RemoteProtocolError, RemoteWorkerDied) as exc:
            raise ServeError(str(exc)) from exc
        #: Latest daemon gauge snapshot (welcome + busy keepalives).
        self.gauges: dict = dict(welcome.get("gauges") or {})

    def close(self) -> None:
        hang_up(self.sock)

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _request(self, message: dict) -> dict:
        message = dict(message, version=self.protocol_version)
        send_frame(self.sock, message)
        reply = recv_frame(self.sock)
        if reply.get("kind") == "error":
            raise ServeError(str(reply.get("message")))
        return reply

    def submit(self, device: str, config: "dict | None" = None) -> dict:
        """Queue a design job; returns the job record."""
        reply = self._request(
            {"kind": "submit", "device": device, "config": config or {}}
        )
        return reply["job"]

    def status(self, job_id: str) -> dict:
        """Job record + daemon and fleet gauges."""
        return self._request({"kind": "status", "job": job_id})

    def list_jobs(self) -> dict:
        """All job records + daemon and fleet gauges."""
        return self._request({"kind": "list"})

    def cancel(self, job_id: str) -> dict:
        """Cancel a queued job in place or soft-stop a running one."""
        reply = self._request({"kind": "cancel", "job": job_id})
        return reply["job"]

    def watch(
        self,
        job_id: str,
        on_record: "Callable[[dict], None] | None" = None,
    ) -> dict:
        """Stream a job's progress records until it settles.

        Replays the full stream from the job's first iteration (so a
        watch opened after a daemon restart still sees everything),
        calls ``on_record`` per JSONL record, and returns the final job
        record.  Daemon ``busy`` keepalives refresh :attr:`gauges`.
        """
        send_frame(
            self.sock,
            {
                "kind": "watch",
                "version": self.protocol_version,
                "job": job_id,
            },
        )
        while True:
            reply = recv_frame(self.sock)
            kind = reply.get("kind")
            if kind == "busy":
                self.gauges = dict(reply.get("gauges") or {})
                continue
            if kind == "progress":
                if on_record is not None:
                    on_record(reply.get("record") or {})
                continue
            if kind == "done":
                return reply["job"]
            if kind == "error":
                raise ServeError(str(reply.get("message")))
            raise ServeError(
                f"unexpected {kind!r} frame in a watch stream"
            )
