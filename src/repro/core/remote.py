"""Multi-node corner fan-out over sockets.

The process fan-out of :mod:`repro.core.executors` already reduced every
unit of work to a pickle-clean payload: a task closure (device + solver
epoch) applied to ``(alpha_bg, rho_fab)`` items, returning a
:class:`~repro.devices.base.ForwardSolveSummary` (or a Monte-Carlo
sample result) plus a solver-stats delta.  This module ships exactly
those payloads over TCP instead of a fork boundary:

* :class:`RemoteWorkerServer` — run on any host via
  ``repro worker --listen host:port``; unpickles task state, executes
  items, and keeps the same per-token warm pool
  (:func:`repro.core.executors.worker_warm`) alive across chunks and
  optimizer iterations that forked workers enjoy.
* :class:`RemoteCornerExecutor` — the client half, selected with
  ``--executor remote:host:port[,host:port...]``.  It registers as an
  executor backend, so the engine's forward-replay seam and the
  Monte-Carlo warm-pool seam route through it unchanged.
* :class:`FrameServer` — the listener, handshake, dispatch loop and
  drain the worker shares with the ``repro serve`` daemon
  (:mod:`repro.core.serve`); :func:`client_handshake` is the one
  client-side handshake both clients use.

Wire protocol
-------------
Every message is a *frame*: an 8-byte big-endian payload length, a
16-byte BLAKE2b digest of the payload, then the pickled payload itself.
The receiver verifies length bounds and the digest before unpickling, so
a truncated or corrupted stream fails loudly instead of poisoning a
trajectory.  On top of the framing:

* **Handshake** — the client opens with ``hello`` (protocol version +
  its heartbeat interval + its dead-worker timeout); the server answers
  ``welcome`` (version + pid) or a descriptive ``error``.  Version skew
  is detected by both sides and reported as an error, never a hang, and
  the server clamps the heartbeat cadence strictly inside the client's
  timeout window (refusing a window too small for any beat to fit).
* **Seeding** — task state (the device-carrying closure) is shipped once
  per *key* per worker as a ``seed`` frame carrying its own BLAKE2b
  digest; the server verifies the digest before unpickling (a mismatch
  is a descriptive error) and caches the closure in a bounded LRU.  The
  engine's per-iteration closures embed the solver epoch, so the device
  ships exactly once per epoch per worker; a worker that lost its seed
  (restart, LRU eviction) answers ``need-seed`` and the client re-sends.
* **Tasks** — ``task`` frames carry only the item (a few design-shaped
  arrays); the server executes the seeded closure on it and replies
  ``result``.  While a task runs the server emits ``busy`` heartbeats at
  the client's requested interval, so the client's socket timeout
  (``--remote-timeout``) bounds *dead-worker detection* without bounding
  task duration.

Failure semantics
-----------------
First contact retries: dialing a worker that refuses or resets the
connection (typically one still binding its listen socket) is retried
with exponential backoff and jitter (``--remote-connect-retries``)
before the worker is written off.  Worker death after that (socket EOF,
refused reconnect, heartbeat silence) is survivable: the dying worker's
queued and in-flight items are resubmitted to surviving workers, and
because every item is a pure function of its payload the final ordered
reduction is unchanged — for LU-backed solver backends, bitwise.  A task
that *raises* on a worker is not resubmitted (it would raise identically
everywhere); the remote traceback surfaces in the parent as
:class:`RemoteTaskError`.  Only when every worker is dead does the
fan-out raise :class:`RemoteFleetDead`, listing each worker's failure —
the engine catches exactly that to checkpoint and degrade to in-process
execution instead of aborting the run.  On the worker side,
SIGTERM/SIGINT (``repro worker``) trigger a graceful drain: the accept
loop closes, in-flight tasks finish and their result frames reach the
wire, then the process exits 0.

No authentication or transport encryption yet: run workers on trusted
networks only (the seeded closures are arbitrary pickles).  See the
ROADMAP's multi-node item for what auth/TLS would take.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
import random
import socket
import struct
import threading
import time
import traceback
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.core.executors import CornerExecutor, resolve_worker_count
from repro.obs.metrics import get_metrics, rss_bytes
from repro.obs.trace import span

__all__ = [
    "PROTOCOL_VERSION",
    "DEFAULT_REMOTE_TIMEOUT",
    "DEFAULT_CONNECT_RETRIES",
    "MIN_REMOTE_TIMEOUT",
    "client_heartbeat_interval",
    "negotiate_heartbeat",
    "RemoteProtocolError",
    "RemoteTaskError",
    "RemoteWorkerDied",
    "RemoteFleetDead",
    "FaultInjection",
    "FrameServer",
    "RemoteWorkerServer",
    "client_handshake",
    "RemoteCornerExecutor",
    "parse_worker_addresses",
    "start_worker_subprocess",
]

#: Bumped whenever the frame layout or message schema changes; both ends
#: refuse a peer speaking another version with a descriptive error.
PROTOCOL_VERSION = 1

#: Dead-worker detection bound (seconds): the longest silence — no
#: result, no ``busy`` heartbeat — the client tolerates before declaring
#: a worker dead and resubmitting its work.  CLI ``--remote-timeout``.
DEFAULT_REMOTE_TIMEOUT = 30.0

#: Floor on the ``busy`` heartbeat cadence: beating faster than this
#: would burn worker CPU on liveness traffic without improving
#: detection latency meaningfully.
_MIN_HEARTBEAT = 0.05

#: Smallest usable dead-worker timeout.  The heartbeat cadence must fit
#: *strictly inside* the timeout window (a beat at or past the deadline
#: cannot prove liveness in time), and the cadence itself is floored at
#: ``_MIN_HEARTBEAT`` — so any timeout at or below twice that floor
#: leaves no room for a beat and is refused descriptively.
MIN_REMOTE_TIMEOUT = 2 * _MIN_HEARTBEAT

#: Connection attempts per worker address at checkout time.  A worker
#: still binding its listen socket (fleet and driver launched together)
#: refuses the first dial; retrying with backoff turns that race into a
#: short wait instead of a lost worker.  CLI ``--remote-connect-retries``.
DEFAULT_CONNECT_RETRIES = 3

#: Exponential-backoff schedule between connect attempts: base doubles
#: per retry, capped, with multiplicative jitter in [0.5, 1.5) so a
#: driver dialing many workers does not retry them in lockstep.
_CONNECT_BACKOFF_BASE = 0.1
_CONNECT_BACKOFF_CAP = 2.0

#: 8-byte payload length + 16-byte BLAKE2b payload digest.
_FRAME_HEADER = struct.Struct(">Q16s")
#: Refuse absurd frames before allocating (a corrupted length field
#: would otherwise ask for petabytes).
_MAX_FRAME_BYTES = 1 << 31
#: Seeded task closures kept per worker process.  Each entry can pin a
#: device plus its (re-warmed) workspace, so the bound is small — old
#: epochs age out naturally.
_MAX_SEEDS = 8


class RemoteProtocolError(RuntimeError):
    """Version skew, digest mismatch, or malformed frames — not retried."""


class RemoteTaskError(RuntimeError):
    """A task raised on the worker; carries the remote traceback."""


class RemoteWorkerDied(RuntimeError):
    """Connection lost or heartbeat silence; work is resubmitted."""


class RemoteFleetDead(RuntimeError):
    """Every remote worker died before the fan-out completed.

    Carries the per-worker failure detail (``worker_failures``) and the
    indices of the items left unfinished (``missing``) so the engine's
    degradation path can log exactly what was lost before falling back
    to an in-process executor.
    """

    def __init__(
        self,
        message: str,
        worker_failures: "Sequence[str]" = (),
        missing: "Sequence[int]" = (),
    ):
        super().__init__(message)
        self.worker_failures = list(worker_failures)
        self.missing = list(missing)


def client_heartbeat_interval(timeout: float) -> float:
    """Busy-beat cadence a client requests for a given dead-peer timeout.

    Four beats per timeout window, floored at ``_MIN_HEARTBEAT`` and
    capped at half the timeout so the cadence always sits strictly
    inside the window: a healthy-but-busy peer proves liveness with
    room to spare even when the floor binds.
    """
    return min(max(_MIN_HEARTBEAT, timeout / 4.0), timeout / 2.0)


def negotiate_heartbeat(
    requested: float, client_timeout: "float | None" = None
) -> float:
    """Server-side clamp of a client's requested heartbeat cadence.

    The cadence is floored at ``_MIN_HEARTBEAT``; when the client also
    announced its dead-peer ``timeout`` (protocol v1 clients that
    predate the field simply omit it), the cadence is additionally
    clamped to half that timeout so a busy server always beats in time.
    A timeout so small that even the floor cadence cannot fit inside it
    raises :class:`RemoteProtocolError` — the handshake is refused
    descriptively instead of accepting a config under which every long
    task would be misdeclared dead.
    """
    heartbeat = max(_MIN_HEARTBEAT, float(requested))
    if client_timeout is None:
        return heartbeat
    timeout = float(client_timeout)
    if heartbeat >= timeout:
        heartbeat = max(_MIN_HEARTBEAT, timeout / 2.0)
    if heartbeat >= timeout:
        raise RemoteProtocolError(
            f"client timeout {timeout:g}s leaves no room for liveness "
            f"heartbeats (cadence floor {_MIN_HEARTBEAT:g}s); raise the "
            f"timeout above {MIN_REMOTE_TIMEOUT:g}s"
        )
    return heartbeat


def _digest(payload: bytes) -> bytes:
    return hashlib.blake2b(payload, digest_size=16).digest()


def seed_key(payload: bytes) -> str:
    """Content key of a seed payload (hex BLAKE2b-128)."""
    return _digest(payload).hex()


# --------------------------------------------------------------------- #
# Framing                                                               #
# --------------------------------------------------------------------- #
def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = io.BytesIO()
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise RemoteWorkerDied("connection closed mid-frame")
        buf.write(chunk)
        remaining -= len(chunk)
    return buf.getvalue()


def send_frame(sock: socket.socket, message: dict) -> None:
    """One length-prefixed, digest-checked frame carrying ``message``."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    total = _FRAME_HEADER.size + len(payload)
    metrics = get_metrics()
    metrics.counter_add("remote.frames_sent")
    metrics.counter_add("remote.bytes_sent", total)
    with span("remote.send_frame", "remote",
              kind=message.get("kind"), bytes=total):
        sock.sendall(
            _FRAME_HEADER.pack(len(payload), _digest(payload)) + payload
        )


def recv_frame(sock: socket.socket) -> dict:
    """Receive one frame; verifies the length bound and payload digest."""
    with span("remote.recv_frame", "remote") as frame_span:
        return _recv_frame(sock, frame_span)


def _recv_frame(sock: socket.socket, frame_span) -> dict:
    header = _recv_exact(sock, _FRAME_HEADER.size)
    length, digest = _FRAME_HEADER.unpack(header)
    if length > _MAX_FRAME_BYTES:
        raise RemoteProtocolError(
            f"frame announces {length} bytes (> {_MAX_FRAME_BYTES} bound); "
            "peer is not speaking the repro worker protocol"
        )
    payload = _recv_exact(sock, length)
    total = _FRAME_HEADER.size + length
    metrics = get_metrics()
    metrics.counter_add("remote.frames_received")
    metrics.counter_add("remote.bytes_received", total)
    frame_span.set(bytes=total)
    if _digest(payload) != digest:
        raise RemoteProtocolError(
            "frame payload digest mismatch: the stream was corrupted in "
            "transit"
        )
    message = pickle.loads(payload)
    if not isinstance(message, dict) or "kind" not in message:
        raise RemoteProtocolError(
            f"malformed frame payload of type {type(message).__name__}; "
            "expected a message dict with a 'kind'"
        )
    return message


def parse_worker_addresses(spec: str) -> "list[tuple[str, int]]":
    """Parse ``host:port[,host:port...]`` into ``[(host, port), ...]``.

    The grammar behind ``--executor remote:...``; raises a descriptive
    :class:`ValueError` on malformed entries so config validation can
    reject bad specs before any socket is opened.
    """
    addresses: list[tuple[str, int]] = []
    for entry in str(spec).split(","):
        entry = entry.strip()
        if not entry:
            continue
        host, sep, port_text = entry.rpartition(":")
        if not sep or not host:
            raise ValueError(
                f"remote worker address {entry!r} is not host:port "
                "(expected e.g. remote:127.0.0.1:7070,10.0.0.2:7070)"
            )
        try:
            port = int(port_text)
        except ValueError:
            raise ValueError(
                f"remote worker address {entry!r} has a non-integer port"
            ) from None
        if not 0 <= port <= 65535:
            raise ValueError(
                f"remote worker address {entry!r} has an out-of-range port"
            )
        addresses.append((host, port))
    if not addresses:
        raise ValueError(
            "remote executor spec names no worker addresses; expected "
            "remote:host:port[,host:port...]"
        )
    return addresses


# --------------------------------------------------------------------- #
# Servers                                                               #
# --------------------------------------------------------------------- #
def close_quietly(sock: socket.socket, shut: bool = False) -> None:
    """Close ``sock``, ignoring an already-dead socket.

    ``shut`` calls ``shutdown(SHUT_RDWR)`` first: closing an fd that
    another thread is blocked in ``accept``/``recv`` on does not wake
    that thread on Linux (and sends no FIN); shutting it down does.
    """
    if shut:
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # never connected / already closed (ENOTCONN, EBADF)
    try:
        sock.close()
    except OSError:
        pass


def refuse(conn: socket.socket, message: str) -> bool:
    """Send a descriptive ``error`` frame; False ends the connection."""
    send_frame(conn, {"kind": "error", "message": message})
    return False


class FrameServer:
    """Listener, accept loop, handshake, dispatch and drain of one server.

    The shared base of :class:`RemoteWorkerServer` and
    :class:`repro.core.serve.ServeDaemon`.  It binds immediately
    (``port=0`` picks a free port, exposed as :attr:`address`);
    :meth:`serve_forever` accepts one handler thread per connection.
    Each connection opens with the handshake — ``hello`` → version check
    → heartbeat negotiation → ``welcome`` carrying :meth:`_gauge_snapshot`
    — and then loops over frames: ``bye`` ends it, ``ping`` answers
    ``pong``, and every other kind goes to its entry in
    :attr:`_handlers` (``handler(conn, message, heartbeat) -> bool``,
    False closing the connection) or is refused as unknown.

    Subclasses supply :attr:`role`, the handler table, the gauges, and
    :meth:`_drain` — what a graceful stop waits for before the
    connections close.

    ``protocol_version`` is a test knob for exercising version-skew
    handling; leave it at the default everywhere else.
    """

    #: The server's name in refusal messages ("worker", "daemon").
    role: str

    def __init__(self, host: str, port: int, protocol_version: int):
        self.protocol_version = int(protocol_version)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(16)
        self.host, self.port = self._listener.getsockname()[:2]
        self._lock = threading.Lock()
        self._connections: "set[socket.socket]" = set()
        self._handlers: "dict[str, Callable[..., bool]]" = {}
        self._closed = False
        self._draining = False

    @property
    def address(self) -> "tuple[str, int]":
        return (self.host, self.port)

    def _gauge_snapshot(self) -> dict:
        """Plain-scalar health gauges shipped on ``welcome``."""
        raise NotImplementedError

    def _drain(self) -> None:
        """Wait for in-flight work once the accept loop has ended."""
        raise NotImplementedError

    def _wake(self) -> None:
        """Interrupt whatever waits on the server; a stop has begun."""

    # ------------------------------------------------------------------ #
    def serve_forever(self) -> None:
        """Accept connections until :meth:`shutdown` or a graceful stop.

        After :meth:`request_graceful_shutdown` the accept loop ends,
        :meth:`_drain` waits for the subclass's in-flight work, and only
        then do the connections close and this method return.
        """
        try:
            while not self._closed:
                try:
                    conn, _peer = self._listener.accept()
                except OSError:
                    break  # listener closed by shutdown()/drain
                threading.Thread(
                    target=self._handle, args=(conn,), daemon=True
                ).start()
        finally:
            self._drain()
            self.shutdown()

    def serve_in_thread(self) -> threading.Thread:
        """Run the accept loop in a daemon thread (in-process tests)."""
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

    def request_graceful_shutdown(self) -> None:
        """Begin a graceful stop; safe to call from a signal handler.

        Sets the drain flag, wakes the subclass's waiters and closes the
        listener (unblocking the accept loop); :meth:`serve_forever`
        then drains before closing connections and returning, so peers
        see a clean EOF only after their last replies.
        """
        self._draining = True
        self._wake()
        close_quietly(self._listener, shut=True)

    def shutdown(self) -> None:
        """Stop at once: close the listener and every connection."""
        self._closed = self._draining = True
        self._wake()
        close_quietly(self._listener, shut=True)
        with self._lock:
            connections = list(self._connections)
            self._connections.clear()
        for conn in connections:
            close_quietly(conn, shut=True)

    # ------------------------------------------------------------------ #
    def _handle(self, conn: socket.socket) -> None:
        with self._lock:
            self._connections.add(conn)
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            # Connections legitimately idle for long stretches (pooled
            # across optimizer iterations, watch streams between
            # iterations), so a recv timeout would kill healthy peers.
            # TCP keepalive instead: a client host that vanishes without
            # FIN/RST (power loss, network partition) is reaped by the
            # kernel in ~2 minutes rather than pinning a handler thread
            # and fd for the kernel default of ~2 hours.
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
            for opt, value in (
                ("TCP_KEEPIDLE", 60),
                ("TCP_KEEPINTVL", 10),
                ("TCP_KEEPCNT", 6),
            ):
                if hasattr(socket, opt):
                    conn.setsockopt(
                        socket.IPPROTO_TCP, getattr(socket, opt), value
                    )
            heartbeat = self._handshake(conn)
            while not self._closed:
                if not self._dispatch(conn, recv_frame(conn), heartbeat):
                    break
        except (RemoteWorkerDied, OSError):
            pass  # client went away; nothing to answer
        except RemoteProtocolError as exc:
            try:
                refuse(conn, str(exc))
            except OSError:
                pass
        finally:
            with self._lock:
                self._connections.discard(conn)
            close_quietly(conn)

    def _handshake(self, conn: socket.socket) -> float:
        """hello → version → heartbeat → welcome; the agreed heartbeat.

        A refusal raises :class:`RemoteProtocolError`, which
        :meth:`_handle` turns into the descriptive ``error`` frame.
        """
        hello = recv_frame(conn)
        if hello.get("kind") != "hello":
            raise RemoteProtocolError(
                f"expected a hello frame, got {hello.get('kind')!r}; is "
                "the peer a repro client?"
            )
        if int(hello.get("version", -1)) != self.protocol_version:
            raise RemoteProtocolError(
                f"protocol version mismatch: {self.role} speaks "
                f"v{self.protocol_version}, client sent "
                f"v{hello.get('version')!r} — upgrade the older side (both "
                "ends must run the same repro version)"
            )
        heartbeat = negotiate_heartbeat(
            hello.get("heartbeat", 1.0), hello.get("timeout")
        )
        send_frame(
            conn,
            {
                "kind": "welcome",
                "version": self.protocol_version,
                "pid": os.getpid(),
                "gauges": self._gauge_snapshot(),
            },
        )
        return heartbeat

    def _dispatch(
        self, conn: socket.socket, message: dict, heartbeat: float
    ) -> bool:
        """Handle one client frame; False ends the connection loop."""
        kind = message.get("kind")
        if kind == "bye":
            return False
        if kind == "ping":
            send_frame(conn, {"kind": "pong"})
            return True
        handler = self._handlers.get(kind)
        if handler is None:
            return refuse(conn, f"unknown message kind {kind!r}")
        return handler(conn, message, heartbeat)


@dataclass
class FaultInjection:
    """Deterministic failure knobs for the fault-injection test harness.

    ``fail_after_tasks=N`` lets the first ``N`` task frames execute
    normally, then kills the server — listener and every open connection
    closed abruptly, no reply — when task ``N + 1`` arrives.  That is
    the reproducible stand-in for "the worker host died mid-iteration":
    the client sees EOF exactly between two well-defined tasks, so tests
    can assert the resubmission path deterministically.
    """

    fail_after_tasks: int | None = None


class RemoteWorkerServer(FrameServer):
    """One worker host's server: the :class:`FrameServer` plus task state.

    Adds the ``seed`` and ``task`` frames.  All connections share one
    bounded seed cache, and task closures run with the same worker
    warm-pool protocol as forked process-pool workers — a device seeded
    in epoch 1 stays warm for every later epoch's tasks.  A graceful
    stop drains in-flight tasks: every started task finishes and its
    result frame reaches the wire before the connections close.
    """

    role = "worker"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        fault: FaultInjection | None = None,
        protocol_version: int = PROTOCOL_VERSION,
    ):
        super().__init__(host, port, protocol_version)
        self.fault = fault
        self._handlers = {"seed": self._handle_seed, "task": self._handle_task}
        self._seeds: "OrderedDict[str, Callable]" = OrderedDict()
        self._tasks_seen = 0
        self._tasks_done = 0
        self._in_flight = 0
        self._drained = threading.Condition(self._lock)

    def _gauge_snapshot(self) -> dict:
        """Worker health gauges shipped on welcome and busy heartbeats.

        Small plain-scalar dict (it rides every heartbeat frame):
        current queue depth (tasks executing or awaiting reply),
        lifetime tasks completed, and resident set size.  The client
        surfaces these per worker in the parent's metrics registry.
        """
        with self._lock:
            queue_depth = self._in_flight
            tasks_completed = self._tasks_done
        return {
            "queue_depth": queue_depth,
            "tasks_completed": tasks_completed,
            "rss_bytes": rss_bytes(),
        }

    def _drain(self) -> None:
        if self._draining and not self._closed:
            self.wait_drained()

    def wait_drained(self, timeout: float | None = None) -> bool:
        """Block until no task is executing; True if drained in time."""
        with self._drained:
            return self._drained.wait_for(
                lambda: self._in_flight == 0, timeout=timeout
            )

    def _fault_triggered(self) -> bool:
        fault = self.fault
        if fault is None or fault.fail_after_tasks is None:
            return False
        with self._lock:
            self._tasks_seen += 1
            return self._tasks_seen > fault.fail_after_tasks

    # ------------------------------------------------------------------ #
    def _handle_seed(self, conn: socket.socket, message: dict, _hb) -> bool:
        payload = message.get("payload")
        key = message.get("key")
        if not isinstance(payload, bytes) or not isinstance(key, str):
            return refuse(conn, "malformed seed frame")
        actual = seed_key(payload)
        if actual != key:
            # The per-frame digest already rules out transit corruption,
            # so a key mismatch means client and worker disagree about
            # *which* task state this is — refuse it loudly.
            return refuse(
                conn,
                f"task-state digest mismatch: client announced device "
                f"digest {key[:12]}… but the payload hashes to "
                f"{actual[:12]}… — refusing to run a different task state "
                "than the client intended",
            )
        try:
            fn = pickle.loads(payload)
        except Exception as exc:
            return refuse(
                conn,
                f"could not unpickle task state: {exc!r} (worker and "
                "client must run compatible repro versions)",
            )
        with self._lock:
            self._seeds[key] = fn
            self._seeds.move_to_end(key)
            while len(self._seeds) > _MAX_SEEDS:
                self._seeds.popitem(last=False)
        send_frame(conn, {"kind": "seeded", "key": key})
        return True

    def _handle_task(
        self, conn: socket.socket, message: dict, heartbeat: float
    ) -> bool:
        if self._fault_triggered():
            self.shutdown()  # drop everything abruptly, reply to nothing
            return False
        key = message.get("key")
        with self._lock:
            fn = self._seeds.get(key)
            if fn is not None:
                self._seeds.move_to_end(key)
        if fn is None:
            # Worker restarted or the seed aged out of the LRU: ask the
            # client to re-ship the task state instead of failing.
            send_frame(conn, {"kind": "need-seed", "key": key})
            return True
        item = message.get("item")
        box: dict = {}

        def run() -> None:
            try:
                box["value"] = fn(item)
            except BaseException:
                box["error"] = traceback.format_exc()

        # Drain accounting brackets the whole execute-and-reply span:
        # the graceful-shutdown wait releases only after the result
        # frame has hit the wire, so a decommissioned worker never
        # swallows a finished solve.
        with self._drained:
            self._in_flight += 1
        try:
            worker = threading.Thread(target=run, daemon=True)
            worker.start()
            while True:
                worker.join(heartbeat)
                if not worker.is_alive():
                    break
                # Liveness while the solve runs: the client resets its
                # death timer on any frame, so long tasks survive short
                # timeouts.  Heartbeats double as health telemetry: each
                # carries the worker's gauge snapshot (additive key —
                # old clients simply ignore it, no version bump needed).
                send_frame(
                    conn, {"kind": "busy", "gauges": self._gauge_snapshot()}
                )
            if "error" in box:
                send_frame(
                    conn,
                    {"kind": "result", "ok": False, "error": box["error"]},
                )
                return True
            try:
                send_frame(
                    conn,
                    {"kind": "result", "ok": True, "value": box["value"]},
                )
            except OSError:
                raise  # the socket itself failed; the client handles death
            except Exception as exc:
                # An unpicklable result is a *task* defect, not a dead
                # worker: send_frame pickles before writing, so nothing
                # hit the wire yet and a clean error-result frame can
                # follow — the client raises RemoteTaskError once instead
                # of "resubmitting" the same failure around the whole
                # fleet.
                send_frame(
                    conn,
                    {
                        "kind": "result",
                        "ok": False,
                        "error": (
                            f"task result could not be serialized for the "
                            f"reply: {exc!r}"
                        ),
                    },
                )
            return True
        finally:
            with self._drained:
                self._in_flight -= 1
                self._tasks_done += 1
                self._drained.notify_all()


def start_worker_subprocess(
    host: str = "127.0.0.1",
    port: int = 0,
    fault: FaultInjection | None = None,
):
    """Fork a :class:`RemoteWorkerServer` into its own process.

    Binds in the parent first — so the chosen port is known without a
    race — then forks; the child inherits the listening socket and runs
    the accept loop.  Returns ``(process, (host, port))``.  Tests use
    this for true process isolation (worker warm pools, pids, stats
    deltas all behave exactly as they would on a remote host), and
    ``process.terminate()`` is the blunt-instrument counterpart of the
    deterministic :class:`FaultInjection` knob.
    """
    import multiprocessing as mp

    server = RemoteWorkerServer(host, port, fault=fault)
    ctx = mp.get_context("fork")
    process = ctx.Process(target=server.serve_forever, daemon=True)
    process.start()
    # The child owns its inherited copy; drop the parent's so a killed
    # worker's port actually closes.
    server._listener.close()
    return process, server.address


# --------------------------------------------------------------------- #
# Clients                                                               #
# --------------------------------------------------------------------- #
def client_handshake(
    address: "tuple[str, int]",
    timeout: float,
    heartbeat: float,
    role: str,
    version: int = PROTOCOL_VERSION,
) -> "tuple[socket.socket, dict]":
    """Dial a :class:`FrameServer` and run the handshake; ``(sock, welcome)``.

    Sends ``hello`` with the requested heartbeat and the dead-peer
    ``timeout`` (so the server clamps the heartbeat strictly inside it,
    or refuses a window no beat can fit) and validates the ``welcome``.
    Raises :class:`OSError` when the ``role`` peer cannot be reached or
    stays silent for ``timeout``, :class:`RemoteWorkerDied` when it
    hangs up, and :class:`RemoteProtocolError` when it refuses or
    answers out of protocol.  Any failure closes the socket — a failed
    handshake hands nothing back that could ever close it.
    """
    host, port = address
    sock = socket.create_connection(address, timeout=timeout)
    try:
        sock.settimeout(timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        send_frame(
            sock,
            {
                "kind": "hello",
                "version": version,
                "heartbeat": heartbeat,
                "timeout": timeout,
            },
        )
        welcome = recv_frame(sock)
        if welcome["kind"] == "error":
            raise RemoteProtocolError(
                f"{role} {host}:{port} refused the handshake: "
                f"{welcome.get('message')}"
            )
        if welcome["kind"] != "welcome":
            raise RemoteProtocolError(
                f"{role} {host}:{port} answered the handshake with "
                f"{welcome['kind']!r}, not welcome"
            )
        if int(welcome.get("version", -1)) != version:
            raise RemoteProtocolError(
                f"protocol version mismatch: this client speaks v{version}, "
                f"{role} {host}:{port} answered "
                f"v{welcome.get('version')!r} — upgrade the older side"
            )
    except BaseException:
        close_quietly(sock)
        raise
    return sock, welcome


def hang_up(sock: socket.socket) -> None:
    """Client-side close: a best-effort ``bye``, then close."""
    try:
        send_frame(sock, {"kind": "bye"})
    except OSError:
        pass
    close_quietly(sock)


class _WorkerConnection:
    """One persistent, handshaken connection to a worker server."""

    def __init__(
        self, address: "tuple[str, int]", timeout: float, heartbeat: float
    ):
        self.address = address
        host, port = address
        try:
            self.sock, welcome = client_handshake(
                address, timeout, heartbeat, "worker"
            )
        except socket.timeout as exc:
            raise RemoteWorkerDied(
                f"worker {host}:{port} did not answer within {timeout:g}s"
            ) from exc
        except OSError as exc:
            raise RemoteWorkerDied(
                f"could not connect to worker {host}:{port}: {exc}"
            ) from exc
        #: Seed keys this worker has acknowledged.
        self.seeded: "set[str]" = set()
        self.pid = int(welcome.get("pid", -1))
        #: Latest worker gauge snapshot (queue depth, tasks completed,
        #: RSS), refreshed by welcome and every busy heartbeat.
        self.gauges: dict = dict(welcome.get("gauges") or {})

    def _recv(self) -> dict:
        return recv_frame(self.sock)

    def _ensure_seeded(self, key: str, fn_bytes: bytes) -> None:
        if key in self.seeded:
            return
        send_frame(
            self.sock, {"kind": "seed", "key": key, "payload": fn_bytes}
        )
        reply = self._recv()
        if reply["kind"] == "error":
            raise RemoteProtocolError(
                f"worker {self.address[0]}:{self.address[1]} rejected the "
                f"task state: {reply.get('message')}"
            )
        if reply["kind"] != "seeded":
            raise RemoteProtocolError(
                f"expected a seeded ack, got {reply['kind']!r}"
            )
        self.seeded.add(key)

    def run_task(self, key: str, fn_bytes: bytes, item) -> object:
        """Execute one item remotely; busy heartbeats keep it alive."""
        host, port = self.address
        for _attempt in range(2):
            self._ensure_seeded(key, fn_bytes)
            send_frame(self.sock, {"kind": "task", "key": key, "item": item})
            while True:
                try:
                    reply = self._recv()
                except socket.timeout as exc:
                    raise RemoteWorkerDied(
                        f"worker {host}:{port} went silent (no result or "
                        "heartbeat within the remote timeout)"
                    ) from exc
                kind = reply["kind"]
                if kind == "busy":
                    gauges = reply.get("gauges")
                    if gauges:
                        self.gauges = dict(gauges)
                    continue
                if kind == "need-seed":
                    # Worker lost the seed (restart / LRU); re-ship once.
                    self.seeded.discard(key)
                    break
                if kind == "error":
                    raise RemoteProtocolError(
                        f"worker {host}:{port} reported: "
                        f"{reply.get('message')}"
                    )
                if kind == "result":
                    if reply.get("ok"):
                        return reply.get("value")
                    raise RemoteTaskError(
                        f"task raised on worker {host}:{port}:\n"
                        f"{reply.get('error')}"
                    )
                raise RemoteProtocolError(
                    f"unexpected frame kind {kind!r} while awaiting a result"
                )
        raise RemoteProtocolError(
            f"worker {host}:{port} keeps demanding a seed it was just sent"
        )

    def close(self) -> None:
        hang_up(self.sock)


class _MapState:
    """Shared bookkeeping of one ordered map: queues, results, failures.

    Items are pre-assigned round-robin to worker slots; an idle worker
    steals from the back of the longest remaining queue, and a dead
    worker's queue (plus its in-flight item) stays stealable — that is
    the transparent-resubmission path.  ``results`` is index-addressed,
    so the reduction order never depends on which worker ran what.
    """

    _UNSET = object()

    def __init__(self, n_items: int, n_slots: int):
        self.cond = threading.Condition()
        self.queues = [
            deque(range(slot, n_items, n_slots)) for slot in range(n_slots)
        ]
        self.results = [self._UNSET] * n_items
        self.remaining = n_items
        self.in_flight = 0
        self.fatal: BaseException | None = None
        self.worker_failures: "list[str]" = []

    def next_index(self, slot: int) -> "tuple[int, bool] | None":
        """The next item index for ``slot``, or ``None`` when done.

        Returns ``(index, stolen)`` — ``stolen`` marks a work-steal
        from another slot's queue, surfaced on the task span so steal
        patterns show up in traces.
        """
        with self.cond:
            while True:
                if self.fatal is not None or self.remaining == 0:
                    return None
                if self.queues[slot]:
                    self.in_flight += 1
                    return self.queues[slot].popleft(), False
                donor = max(self.queues, key=len)
                if donor:
                    self.in_flight += 1
                    return donor.pop(), True
                if self.in_flight == 0:
                    # Unfinished items but nothing queued or running:
                    # every holder died.  map_ordered reports it.
                    return None
                # Items are in flight elsewhere; one may yet be
                # resubmitted here if its worker dies.  The timeout is a
                # safety net against a lost notify, not a poll loop.
                self.cond.wait(timeout=0.5)

    def set_result(self, index: int, value) -> None:
        with self.cond:
            if self.results[index] is self._UNSET:
                self.remaining -= 1
            self.results[index] = value
            self.in_flight -= 1
            self.cond.notify_all()

    def requeue(self, slot: int, index: int) -> None:
        with self.cond:
            self.queues[slot].append(index)
            self.in_flight -= 1
            self.cond.notify_all()

    def record_worker_failure(self, message: str) -> None:
        with self.cond:
            self.worker_failures.append(message)
            self.cond.notify_all()

    def set_fatal(self, exc: BaseException) -> None:
        with self.cond:
            if self.fatal is None:
                self.fatal = exc
            self.cond.notify_all()

    def missing(self) -> "list[int]":
        return [
            i for i, r in enumerate(self.results) if r is self._UNSET
        ]


class RemoteCornerExecutor(CornerExecutor):
    """Ordered fan-out to remote worker servers over TCP.

    Registered as the ``remote`` executor backend
    (``remote:host:port[,host:port...]``).  Like the process executor it
    advertises ``supports_shared_memory = False``, so the engine routes
    taped corner losses through the forward-replay seam and Monte-Carlo
    evaluation through the warm-pool seam — this class only has to move
    the already pickle-clean payloads and keep the ordered-reduction
    contract.

    Per map call the task closure is pickled once and shipped to each
    participating worker under its content digest (once per epoch per
    worker, because the engine's closures embed the epoch); items are
    round-robined across workers with work stealing on idle, and a dead
    worker's items are resubmitted to survivors.  Connections persist
    across map calls, so worker-side warm pools survive whole
    optimizations; :meth:`shutdown` closes them and the next map call
    reconnects lazily (mirroring the pool executors).
    """

    name = "remote"
    supports_shared_memory = False

    def __init__(
        self,
        addresses: "Sequence[tuple[str, int]] | str",
        timeout: float | None = None,
        max_workers: int | None = None,
        connect_retries: int | None = None,
    ):
        if isinstance(addresses, str):
            addresses = parse_worker_addresses(addresses)
        # Order-preserving dedup: connections are pooled per address, so
        # a repeated entry would hand one socket to two slot threads and
        # interleave their frames.  Per-host concurrency is expressed by
        # running several `repro worker` processes (distinct ports) on
        # that host, not by repeating one address.
        self.addresses = list(
            dict.fromkeys((str(h), int(p)) for h, p in addresses)
        )
        if not self.addresses:
            raise ValueError("remote executor needs at least one address")
        self.timeout = (
            DEFAULT_REMOTE_TIMEOUT if timeout is None else float(timeout)
        )
        if self.timeout <= MIN_REMOTE_TIMEOUT:
            # A timeout at or below twice the heartbeat floor leaves no
            # cadence that beats strictly inside the window: a healthy
            # busy worker could never prove liveness in time and would
            # be misdeclared dead on every long task.
            raise ValueError(
                f"remote timeout must exceed {MIN_REMOTE_TIMEOUT:g}s so a "
                f"busy worker's heartbeat can land inside it, got "
                f"{self.timeout}"
            )
        self.max_workers = max_workers
        self.connect_retries = (
            DEFAULT_CONNECT_RETRIES
            if connect_retries is None
            else int(connect_retries)
        )
        if self.connect_retries < 1:
            raise ValueError(
                f"connect_retries must be >= 1, got {self.connect_retries}"
            )
        #: Remote worker pids observed answering handshakes (fan-out
        #: evidence for tests and the benchmark).
        self.observed_pids: "set[int]" = set()
        self._lock = threading.Lock()
        self._connections: "dict[tuple[str, int], _WorkerConnection]" = {}

    @property
    def heartbeat_interval(self) -> float:
        """Server-side ``busy`` cadence, strictly below the timeout."""
        return client_heartbeat_interval(self.timeout)

    # ------------------------------------------------------------------ #
    def _checkout(self, address: "tuple[str, int]") -> _WorkerConnection:
        with self._lock:
            conn = self._connections.get(address)
        if conn is not None:
            return conn
        conn = self._connect_with_retry(address)
        with self._lock:
            self._connections[address] = conn
        self.observed_pids.add(conn.pid)
        return conn

    def _connect_with_retry(
        self, address: "tuple[str, int]"
    ) -> _WorkerConnection:
        """Dial a worker, retrying transient failures with backoff.

        Only :class:`RemoteWorkerDied` (refused/reset/silent — typically
        a worker still binding its socket) is retried; protocol errors
        (version skew, digest refusal) are systemic and surface
        immediately.  Backoff doubles per attempt with jitter so a
        driver dialing a whole fleet staggers its retries.
        """
        host, port = address
        last_exc: RemoteWorkerDied | None = None
        for attempt in range(self.connect_retries):
            if attempt:
                delay = min(
                    _CONNECT_BACKOFF_CAP,
                    _CONNECT_BACKOFF_BASE * (2 ** (attempt - 1)),
                )
                time.sleep(delay * (0.5 + random.random()))
            try:
                return _WorkerConnection(
                    address, self.timeout, self.heartbeat_interval
                )
            except RemoteWorkerDied as exc:
                last_exc = exc
        raise RemoteWorkerDied(
            f"worker {host}:{port} unreachable after "
            f"{self.connect_retries} connection attempts "
            f"(exponential backoff exhausted): {last_exc}"
        ) from last_exc

    def _discard(self, address: "tuple[str, int]") -> None:
        with self._lock:
            conn = self._connections.pop(address, None)
        if conn is not None:
            close_quietly(conn.sock)

    def map_ordered(
        self, fn: Callable, items: "Sequence | Iterable"
    ) -> list:
        items = list(items)
        if len(items) <= 1:
            # Match the pool executors: single-item fan-outs run inline
            # in the parent (run_warm_task detects this and returns an
            # empty stats delta).
            return [fn(item) for item in items]
        try:
            fn_bytes = pickle.dumps(fn, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise ValueError(
                f"remote executor task state is not picklable: {exc!r} — "
                "only the forward-replay / warm-pool seams' pickle-clean "
                "closures can cross a socket"
            ) from exc
        key = seed_key(fn_bytes)
        # An explicit max_workers is a *cap*, never a promise of more
        # sockets than the spec names — and never more than the items.
        n_workers = min(
            resolve_worker_count(
                self.max_workers, len(items), len(self.addresses)
            ),
            len(self.addresses),
            len(items),
        )
        state = _MapState(len(items), n_workers)
        threads = []
        with span("remote.map", "remote", items=len(items),
                  workers=n_workers) as map_span:
            for slot in range(n_workers):
                thread = threading.Thread(
                    target=self._worker_loop,
                    args=(
                        slot, self.addresses[slot], key, fn_bytes, items,
                        state, map_span.span_id,
                    ),
                    daemon=True,
                )
                thread.start()
                threads.append(thread)
            for thread in threads:
                thread.join()
        if state.fatal is not None:
            raise state.fatal
        missing = state.missing()
        if missing:
            failures = "; ".join(state.worker_failures) or "no failure detail"
            raise RemoteFleetDead(
                f"all remote workers died before items {missing} completed "
                f"(addresses {self.addresses}); worker failures: {failures}",
                worker_failures=state.worker_failures,
                missing=missing,
            )
        return list(state.results)

    def _publish_gauges(
        self, address: "tuple[str, int]", conn: _WorkerConnection
    ) -> None:
        """Expose a worker's latest gauge snapshot in the parent registry."""
        if not conn.gauges:
            return
        metrics = get_metrics()
        prefix = f"remote.worker.{address[0]}:{address[1]}."
        for name, value in conn.gauges.items():
            if isinstance(value, (int, float)):
                metrics.gauge_set(prefix + name, value)

    def _worker_loop(
        self,
        slot: int,
        address: "tuple[str, int]",
        key: str,
        fn_bytes: bytes,
        items: list,
        state: _MapState,
        map_span_id: "int | None" = None,
    ) -> None:
        host, port = address
        try:
            conn = self._checkout(address)
        except (RemoteWorkerDied, OSError) as exc:
            # This worker never joined (refused, reset, or silent); its
            # pre-assigned queue stays stealable by the survivors.
            state.record_worker_failure(
                f"worker {host}:{port} unavailable: {exc}"
            )
            return
        except RemoteProtocolError as exc:
            # Version skew / digest refusal is systemic, not a lone dead
            # host: fail the whole map with the descriptive message
            # instead of silently shrinking the fleet.
            state.set_fatal(exc)
            return
        self._publish_gauges(address, conn)
        while True:
            wait_t0 = time.perf_counter()
            claim = state.next_index(slot)
            if claim is None:
                return
            index, stolen = claim
            wait_s = time.perf_counter() - wait_t0
            try:
                # Each slot runs in its own thread with an empty span
                # stack, so the task span names the dispatching map span
                # as its parent explicitly — the worker's shipped span
                # tree is later adopted under engine/eval dispatch spans
                # by the caller, while this span records the client-side
                # view (queue wait, steals, wire round-trip).
                with span(
                    "remote.task", "remote", parent=map_span_id,
                    worker=f"{host}:{port}", index=index, stolen=stolen,
                    queue_wait_s=round(wait_s, 6),
                ):
                    result = conn.run_task(key, fn_bytes, items[index])
                self._publish_gauges(address, conn)
            except RemoteTaskError as exc:
                # The task itself raised; it would raise identically on
                # any worker, so resubmission would only mask the bug.
                state.requeue(slot, index)
                state.set_fatal(exc)
                return
            except RemoteProtocolError as exc:
                state.requeue(slot, index)
                state.set_fatal(exc)
                return
            except (RemoteWorkerDied, OSError) as exc:
                # Dead worker: resubmit its in-flight item (and leave its
                # queue) to the survivors, drop the connection so the
                # next map call reconnects from scratch.
                self._discard(address)
                state.requeue(slot, index)
                state.record_worker_failure(
                    f"worker {host}:{port} died mid-run: {exc}"
                )
                return
            except BaseException as exc:
                # Anything else (unpicklable result, client-side bug):
                # fail the map loudly rather than leaving in-flight
                # bookkeeping dangling for the survivors to wait on.
                state.requeue(slot, index)
                state.set_fatal(exc)
                return
            state.set_result(index, result)

    def shutdown(self) -> None:
        with self._lock:
            connections = list(self._connections.values())
            self._connections.clear()
        for conn in connections:
            conn.close()
