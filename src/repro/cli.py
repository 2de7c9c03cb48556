"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``design``    — run the BOSON-1 optimizer on a benchmark device.
``evaluate``  — Monte-Carlo post-fab evaluation of a saved design.
``baseline``  — run one named prior-art method end-to-end.
``worker``    — serve this host's cores to remote corner fan-outs.
``serve``     — run the design-job daemon (jobs queued on disk).
``submit``    — submit a design job to a running daemon.
``status``    — show one job's state, or list every job.
``watch``     — stream a job's progress until it finishes.
``cancel``    — cancel a queued or running job.
``trace``     — inspect trace files written by ``--trace-dir`` runs.
``info``      — print device/benchmark inventory.

Every command accepts ``--help``.  Results are saved as JSON (patterns
included) so they can be re-evaluated or rendered later.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro import __version__
from repro.baselines import BASELINE_REGISTRY, run_baseline
from repro.core import Boson1Optimizer, OptimizerConfig
from repro.core.remote import DEFAULT_CONNECT_RETRIES, DEFAULT_REMOTE_TIMEOUT
from repro.core.sampling import SAMPLING_STRATEGIES
from repro.devices import DEVICE_REGISTRY, make_device
from repro.eval import evaluate_ideal, evaluate_post_fab
from repro.fab.process import FabricationProcess
from repro.fdfd.linalg import SolverConfig
from repro.utils.io import load_result, save_result
from repro.utils.logsetup import LOG_LEVELS, configure_logging
from repro.utils.render import ascii_pattern

__all__ = ["main", "build_parser"]


_CHOOSING_HELP = """\
choosing an executor / solver
-----------------------------
executors (corner / sample fan-out):
  serial       default; lowest overhead, fully deterministic.
  thread[:n]   shared-memory threads; bit-identical to serial for
               LU-backed solvers (direct/batched), solver precision for
               preconditioned ones (fallback anchors arrive in
               scheduling order).  SuperLU holds the GIL, so threads
               overlap only the NumPy/FFT work around the solves, and
               each in-flight corner keeps its own factorization live
               (thread:2 roughly doubles peak memory).
  process[:n]  forked workers; `design` ships pickle-clean forward-solve
               payloads and reassembles gradients in the parent, so
               results match serial to solver precision.  Best when
               cores are plentiful and corner counts are large.
  remote:ADDRS the same payloads shipped over TCP to worker hosts
               (ADDRS = host:port[,host:port...]); see "scaling out".
without an explicit :n, process and remote auto-tune to
min(corner count, available workers); on a 1-core box an auto process
spec runs inline, making `--executor process` safe everywhere.
solvers (every FDFD solve):
  direct       one SuperLU per corner; the bitwise reference.
  batched      direct + matrix-RHS sweeps; multi-direction devices
               batch forward and adjoint systems (bitwise on
               single-direction devices).
  krylov       nominal-corner LU recycled across an iteration's corners
               via preconditioned BiCGStab/GMRES; accurate to the
               solver tolerance.
determinism contract: direct/batched are bitwise stable across
executors; krylov agrees with them to the solver tolerance —
trajectories match to ~1e-8, not bit-for-bit.
rule of thumb: `--solver direct` at the default grid (dl=0.05), where
one LU per corner is cheapest; `--solver krylov` on finer grids
(dl<=0.025), where recycling the nominal LU beats refactorizing every
corner.  add `--executor process:n` on multi-core machines.

robust scenario families (broadband x thermal x fab)
----------------------------------------------------
axes: `repro design bending --wavelengths 1.53,1.55,1.57
--temperatures 290,310` crosses every sampled fabrication corner with
each operating wavelength and temperature (comma-separated floats;
temperatures compose with a corner's own thermal excursion as offsets
around the 300 K nominal).  scenarios are grouped by omega: each group
shares its Laplacian, and the process/remote fan-out ships one device
clone per omega group, its digest sent once per epoch per worker,
exactly like the single-device case.
aggregation: `--aggregate mean` (weighted expectation, the default) |
`worst` (tempered soft-max over the family — a differentiable worst
case whose gradient is FD-exact) | `cvar:ALPHA` (expected loss of the
worst ALPHA-tail, e.g. cvar:0.5; tail membership from detached losses,
applied as constant Rockafellar weights).
determinism: with no axes set nothing changes — single-wavelength
mean-aggregate runs stay bitwise identical to pre-scenario builds for
LU-backed backends (direct/batched) on serial/thread executors, and a
checkpoint written before the scenario axes existed refuses to resume
with a descriptive digest error (the config digest covers the axes).
with axes set, omega grouping never changes results: LU-backed
backends stay bitwise across executors and worker counts; krylov
backends agree to solver tolerance per omega group.
evaluation: `repro evaluate ... --wavelengths 1.5,1.6` re-evaluates
each Monte-Carlo fabrication draw at every wavelength (the same draws
per stratum — a paired comparison) and reports per-wavelength
statistics.  the `demux` device routes two channels to separate drop
ports and is meant to be designed under `--wavelengths` — each omega
clone targets its own drop port.

scaling out (multi-node fan-out)
--------------------------------
start one worker per host (any machine with this package installed):
    repro worker --listen 0.0.0.0:7070
then point a design or evaluation at the fleet:
    repro design bending --executor remote:hostA:7070,hostB:7070
protocol: length-prefixed, digest-checked frames; the handshake pins
the protocol version and each task-state seed ships under its own
device digest, so version skew or payload mismatch is a descriptive
error, never a hang.  task state (device + solver epoch) is shipped
once per epoch per worker; items are round-robined with work stealing,
and workers keep warm solver caches across iterations.
determinism: ordered reduction makes results independent of worker
count and scheduling — bitwise equal to serial for LU-backed solvers
(direct/batched), solver precision for krylov backends (each worker
anchors its own preconditioner).
failures: a worker that dies mid-run (connection loss, or silence
longer than --remote-timeout; busy workers emit heartbeats) has its
items resubmitted to survivors with an identical reduced result; a
task that *raises* is not resubmitted — the remote traceback surfaces
locally.  the run fails only when every worker is gone.
security: no auth/TLS yet — workers execute pickled task state, so
bind them to trusted networks only (e.g. over an SSH tunnel or VPN).

resuming and surviving crashes
------------------------------
checkpoints: `repro design ... --checkpoint-dir DIR` writes a
crash-safe checkpoint every N iterations (--checkpoint-every, default
1) plus a final one at run end.  each file lands via tmp file + fsync +
atomic rename (a kill -9 leaves the previous complete checkpoint, never
a torn one), is self-validating (magic, format version, payload
digest), carries a JSON metadata sidecar, and only the newest K survive
rotation (--checkpoint-keep, default 3).
resume: `repro design ... --resume auto --checkpoint-dir DIR` continues
from the newest *valid* checkpoint (corrupt files are skipped with a
warning); `--resume PATH` loads one file directly, and continued
checkpoints then default into that file's directory.  a checkpoint
records theta, the Adam moments and step count, the RNG stream, sampler
state, the relaxation-schedule position and the full iteration history,
so a resumed run with an LU-backed solver (direct/batched) reproduces
the uninterrupted trajectory bit-for-bit; krylov backends agree to
solver precision.  mismatches are refused loudly: truncated or
corrupted files, checkpoints from another format version, and any
difference in a trajectory-shaping setting (sampling, seed, solver,
relaxation, device, ...).  executor/worker/timeout/checkpoint knobs and
the iteration horizon may differ freely — a resume can extend a run or
move it to different hardware.
graceful shutdown: with checkpointing enabled, SIGINT/SIGTERM let the
current iteration finish, write a final checkpoint, and exit cleanly
(a second signal aborts immediately).  `repro worker` handles
SIGTERM/SIGINT by draining: in-flight tasks finish and their results
reach the wire, then the accept loop closes and the process exits 0 —
clients see a clean EOF and resubmit to surviving workers.
degradation: if *every* remote worker dies mid-run, the driver writes a
checkpoint (when enabled), logs each worker's failure, and finishes the
run on the in-process serial executor instead of aborting; connect-time
races (a worker still binding its socket) are retried with exponential
backoff (--remote-connect-retries).

observing a run
---------------
tracing: `repro design ... --trace-dir DIR` (also on `evaluate`) spans
every hot layer — engine iterations, loss, dispatch, factorizations,
krylov sweeps, remote frames, checkpoint writes — at
near-zero overhead (a disabled span is one thread-local read).  DIR
receives trace.jsonl (one record per iteration: spans + a metrics
snapshot folding solver counters and cache hit rates) and summary.txt
(per-phase wall-time breakdown); add `--trace-format jsonl,chrome` for
trace_chrome.json, loadable in chrome://tracing or https://ui.perfetto.dev.
spans cross process boundaries: process and remote workers bracket each
task in a span capture and ship the span tree + metric deltas home with
the result payload, where they are re-parented under the dispatching
span — one connected trace per run, worker pids and all.
metrics: `--metrics-every N` logs a counters/gauges snapshot every N
iterations at info level (see --log-level).  remote workers piggyback
queue depth, completed-task counts and RSS on their heartbeat frames;
the parent publishes them as `remote.worker.HOST:PORT.*` gauges.
summaries: `repro trace summarize DIR/trace.jsonl` (or the chrome file)
prints calls / total / self / mean wall time per phase, widest first.
logging: `repro --log-level debug <command>` configures logging once
for every subcommand; worker subprocesses inherit the level through
their spawn environment (REPRO_LOG_LEVEL).

running a service
-----------------
daemon: `repro serve --listen HOST:PORT --jobs-dir DIR` accepts design
jobs over the same framed protocol the workers speak.  submissions are
queued on disk under DIR (one directory per job: spec, checkpoints,
progress stream, result), run through the optimizer with checkpointing
forced on, and fanned out across `--fleet hostA:7070,hostB:7070`
workers when configured (jobs may pin their own --executor instead).
submitting: `repro submit DEVICE --connect HOST:PORT [--iterations N
--sampling S --seed K --solver B ...]` — the same trajectory-shaping
flags as `repro design`; the config is validated before the job is
queued, so a bad submission is refused immediately.  then:
    repro status [JOB] --connect HOST:PORT   # one job, or all + gauges
    repro watch JOB --connect HOST:PORT      # live iteration stream
    repro cancel JOB --connect HOST:PORT     # queued: dropped in place;
                                             # running: checkpoint+stop
watch replays the job's full progress stream from iteration 0 (the
records are the same JSONL shape --trace-dir writes), then tails it
live with heartbeat keepalives while iterations compute.
restart semantics: every job mutation lands via atomic rename, so a
daemon killed -9 mid-job loses nothing — on restart it rescans DIR,
re-queues interrupted work, and resumes each job from its newest
checkpoint (LU-backed solvers continue bitwise).  SIGTERM drains
gracefully: running jobs finish their iteration, checkpoint, and park
as 'interrupted' for the next start; queued jobs stay queued.
fleet health: status/list replies carry daemon gauges (queue depth,
jobs running, RSS) plus per-worker gauges harvested from heartbeat
frames (`remote.worker.HOST:PORT.*`).
security: like `repro worker`, no auth/TLS yet — the daemon executes
submitted configs, so bind it to trusted networks only (e.g. over an
SSH tunnel or VPN).
"""


def _add_observability_args(p: argparse.ArgumentParser) -> None:
    """Tracing/metrics flags shared by ``design`` and ``evaluate``."""
    p.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help=(
            "write structured traces into DIR: trace.jsonl (per-"
            "iteration spans + metrics snapshots) and summary.txt "
            "(per-phase wall-time breakdown); see 'observing a run' "
            "below"
        ),
    )
    p.add_argument(
        "--trace-format",
        default="jsonl",
        metavar="FMT[,FMT]",
        help=(
            "trace export formats (comma-separated): jsonl | chrome "
            "(chrome adds trace_chrome.json for chrome://tracing / "
            "Perfetto; default %(default)s)"
        ),
    )
    p.add_argument(
        "--metrics-every",
        type=int,
        default=0,
        metavar="N",
        help=(
            "log a counters/gauges snapshot every N iterations at info "
            "level (0 disables; default %(default)s)"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BOSON-1 reproduction: robust photonic inverse design",
        epilog=_CHOOSING_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.add_argument(
        "--log-level",
        choices=LOG_LEVELS,
        default=None,
        help=(
            "logging level for every subcommand (default: "
            "$REPRO_LOG_LEVEL or warning); worker subprocesses inherit "
            "it through their spawn environment"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser("design", help="run the BOSON-1 optimizer")
    p_design.add_argument("device", choices=sorted(DEVICE_REGISTRY))
    p_design.add_argument("--iterations", type=int, default=30)
    p_design.add_argument(
        "--sampling",
        choices=sorted(SAMPLING_STRATEGIES),
        default="axial+worst",
    )
    p_design.add_argument(
        "--wavelengths",
        default=None,
        metavar="UM[,UM...]",
        help=(
            "operating-wavelength axis of the scenario family "
            "(comma-separated um, e.g. 1.53,1.55,1.57); every sampled "
            "fab corner is crossed with each wavelength and grouped by "
            "omega (default: the device's centre wavelength only; see "
            "'robust scenario families' below)"
        ),
    )
    p_design.add_argument(
        "--temperatures",
        default=None,
        metavar="K[,K...]",
        help=(
            "operating-temperature axis of the scenario family "
            "(comma-separated kelvin, e.g. 290,310), composed with each "
            "fab corner's own thermal excursion as offsets around 300 K "
            "(default: corner temperatures unchanged)"
        ),
    )
    p_design.add_argument(
        "--aggregate",
        default="mean",
        metavar="MODE",
        help=(
            "scenario-loss reduction: mean (weighted expectation) | "
            "worst (tempered soft-max worst case) | cvar:ALPHA "
            "(expected loss of the worst ALPHA-tail, e.g. cvar:0.5; "
            "default %(default)s)"
        ),
    )
    p_design.add_argument("--relax-epochs", type=int, default=None)
    p_design.add_argument("--seed", type=int, default=0)
    p_design.add_argument("--output", default=None, help="result JSON path")
    p_design.add_argument("--quiet", action="store_true")
    p_design.add_argument(
        "--executor",
        default="serial",
        help=(
            "corner fan-out backend: serial | thread[:n] | process[:n] | "
            "remote:host:port[,host:port...] (process forks workers, "
            "remote ships to `repro worker` hosts; both replay only the "
            "forward solves and the parent assembles the taped "
            "gradients, matching serial to solver precision)"
        ),
    )
    p_design.add_argument(
        "--remote-timeout",
        type=float,
        default=DEFAULT_REMOTE_TIMEOUT,
        metavar="SECONDS",
        help=(
            "remote executor only: declare a worker dead after this many "
            "seconds of silence (busy workers heartbeat, so long solves "
            "survive short timeouts) and resubmit its work to survivors "
            "(default %(default)s)"
        ),
    )
    p_design.add_argument(
        "--remote-connect-retries",
        type=int,
        default=DEFAULT_CONNECT_RETRIES,
        metavar="N",
        help=(
            "remote executor only: connection attempts per worker "
            "address, with exponential backoff + jitter between tries — "
            "a worker still binding its socket becomes a short wait, not "
            "a lost worker (default %(default)s)"
        ),
    )
    p_design.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help=(
            "write crash-safe checkpoints into DIR (atomic rename + "
            "fsync, rotated); also arms graceful SIGINT/SIGTERM shutdown "
            "and fleet-loss checkpointing (see 'resuming and surviving "
            "crashes' below)"
        ),
    )
    p_design.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        metavar="N",
        help="iterations between checkpoints (default %(default)s)",
    )
    p_design.add_argument(
        "--checkpoint-keep",
        type=int,
        default=3,
        metavar="K",
        help="rotated checkpoints kept on disk (default %(default)s)",
    )
    p_design.add_argument(
        "--resume",
        default=None,
        metavar="PATH|auto",
        help=(
            "continue from a checkpoint: 'auto' picks the newest valid "
            "one under --checkpoint-dir, a path loads that file (and "
            "further checkpoints default into its directory); the "
            "checkpoint must match this run's config/device digest"
        ),
    )
    p_design.add_argument(
        "--solver",
        default="direct",
        metavar="BACKEND",
        help=(
            "linear-solver backend: direct (one LU per corner), batched "
            "(direct + multi-RHS triangular sweeps), krylov "
            "(BiCGStab preconditioned by the nominal corner's LU, "
            "recycled across the iteration's fabrication corners; a "
            "non-converging solve falls back to a direct factorization "
            "automatically); krylov:gmres selects GMRES.  direct is "
            "fastest at the default grid, krylov on finer ones "
            "(see 'choosing an executor / solver' below)"
        ),
    )
    _add_observability_args(p_design)

    p_eval = sub.add_parser("evaluate", help="post-fab Monte-Carlo eval")
    p_eval.add_argument("result", help="JSON produced by `design`/`baseline`")
    p_eval.add_argument("--samples", type=int, default=20)
    p_eval.add_argument("--seed", type=int, default=1234)
    p_eval.add_argument(
        "--executor",
        default="serial",
        help=(
            "sample fan-out backend: serial | thread[:n] | process[:n] | "
            "remote:host:port[,host:port...]"
        ),
    )
    p_eval.add_argument(
        "--remote-timeout",
        type=float,
        default=DEFAULT_REMOTE_TIMEOUT,
        metavar="SECONDS",
        help=(
            "remote executor only: dead-worker detection bound in "
            "seconds (default %(default)s)"
        ),
    )
    p_eval.add_argument(
        "--remote-connect-retries",
        type=int,
        default=DEFAULT_CONNECT_RETRIES,
        metavar="N",
        help=(
            "remote executor only: connection attempts per worker "
            "address with exponential backoff (default %(default)s)"
        ),
    )
    p_eval.add_argument(
        "--solver",
        default="direct",
        metavar="BACKEND",
        help=(
            "linear-solver backend for the evaluation solves: direct | "
            "batched | krylov[:gmres] (see `design --help`; krylov falls "
            "back to direct factorization on non-convergence)"
        ),
    )
    p_eval.add_argument(
        "--wavelengths",
        default=None,
        metavar="UM[,UM...]",
        help=(
            "re-evaluate every Monte-Carlo draw at each of these "
            "wavelengths (comma-separated um) and report per-wavelength "
            "statistics (default: the device's centre wavelength only)"
        ),
    )
    _add_observability_args(p_eval)

    p_worker = sub.add_parser(
        "worker",
        help="serve this host to remote corner fan-outs",
        description=(
            "Run a remote fan-out worker: design and evaluation runs on "
            "other machines reach it via --executor "
            "remote:host:port[,...].  The worker keeps solver caches "
            "warm across iterations and serves until interrupted.  No "
            "auth/TLS yet: bind to trusted networks only."
        ),
    )
    p_worker.add_argument(
        "--listen",
        default="127.0.0.1:0",
        metavar="HOST:PORT",
        help=(
            "bind address (default %(default)s; port 0 picks a free "
            "port, printed on startup)"
        ),
    )

    p_serve = sub.add_parser(
        "serve",
        help="run the design-job daemon",
        description=(
            "Run the design-job daemon: clients submit jobs with `repro "
            "submit`, the daemon queues them on disk, runs each with "
            "checkpointing forced on (a killed daemon restarts and "
            "resumes), and streams progress to `repro watch`.  See "
            "'running a service' in `repro --help`.  No auth/TLS yet: "
            "bind to trusted networks only."
        ),
    )
    p_serve.add_argument(
        "--listen",
        default="127.0.0.1:0",
        metavar="HOST:PORT",
        help=(
            "bind address (default %(default)s; port 0 picks a free "
            "port, printed on startup)"
        ),
    )
    p_serve.add_argument(
        "--jobs-dir",
        required=True,
        metavar="DIR",
        help=(
            "persistent job-queue directory: one subdirectory per job "
            "(spec, checkpoints, progress stream, result); rescanned on "
            "startup so a restarted daemon resumes interrupted work"
        ),
    )
    p_serve.add_argument(
        "--fleet",
        default=None,
        metavar="ADDRS",
        help=(
            "remote worker fleet (host:port[,host:port...]) jobs fan "
            "corners out across unless they pin their own --executor; "
            "worker heartbeat gauges become the daemon's fleet-health "
            "view (default: in-process serial execution)"
        ),
    )
    p_serve.add_argument(
        "--parallel",
        type=int,
        default=1,
        metavar="N",
        help="jobs run concurrently (default %(default)s)",
    )

    def _add_connect_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--connect",
            required=True,
            metavar="HOST:PORT",
            help="address of a running `repro serve` daemon",
        )
        p.add_argument(
            "--timeout",
            type=float,
            default=60.0,
            metavar="SECONDS",
            help=(
                "declare the daemon dead after this much silence "
                "(busy daemons heartbeat; default %(default)s)"
            ),
        )

    p_submit = sub.add_parser(
        "submit",
        help="queue a design job on a `repro serve` daemon",
        description=(
            "Queue a design job: the same trajectory-shaping flags as "
            "`repro design`, validated by the daemon before anything is "
            "queued.  Prints the job id for status/watch/cancel."
        ),
    )
    p_submit.add_argument("device", choices=sorted(DEVICE_REGISTRY))
    _add_connect_arg(p_submit)
    p_submit.add_argument("--iterations", type=int, default=30)
    p_submit.add_argument(
        "--sampling",
        choices=sorted(SAMPLING_STRATEGIES),
        default="axial+worst",
    )
    p_submit.add_argument("--relax-epochs", type=int, default=None)
    p_submit.add_argument("--seed", type=int, default=0)
    p_submit.add_argument(
        "--wavelengths", default=None, metavar="UM[,UM...]",
        help="scenario wavelength axis, as for `repro design`",
    )
    p_submit.add_argument(
        "--temperatures", default=None, metavar="K[,K...]",
        help="scenario temperature axis, as for `repro design`",
    )
    p_submit.add_argument(
        "--aggregate", default="mean", metavar="MODE",
        help="scenario-loss reduction (mean | worst | cvar:ALPHA)",
    )
    p_submit.add_argument(
        "--solver", default="direct", metavar="BACKEND",
        help="linear-solver backend, as for `repro design`",
    )
    p_submit.add_argument(
        "--executor", default=None, metavar="SPEC",
        help=(
            "pin this job's corner fan-out backend (serial | thread[:n] "
            "| process[:n] | remote:...); default: the daemon's --fleet, "
            "or serial"
        ),
    )
    p_submit.add_argument(
        "--watch", action="store_true",
        help="stay connected and stream the job like `repro watch`",
    )

    p_status = sub.add_parser(
        "status",
        help="job state + daemon/fleet gauges from a daemon",
    )
    p_status.add_argument(
        "job", nargs="?", default=None,
        help="job id (omit to list every job)",
    )
    _add_connect_arg(p_status)

    p_watch = sub.add_parser(
        "watch",
        help="stream a job's iteration records until it settles",
        description=(
            "Stream a job's progress records (iteration, loss, fom) from "
            "iteration 0 and tail live until the job settles.  Exits 0 "
            "iff the job completed."
        ),
    )
    p_watch.add_argument("job", help="job id from `repro submit`")
    _add_connect_arg(p_watch)

    p_cancel = sub.add_parser(
        "cancel",
        help="cancel a queued job or soft-stop a running one",
    )
    p_cancel.add_argument("job", help="job id from `repro submit`")
    _add_connect_arg(p_cancel)

    p_trace = sub.add_parser(
        "trace",
        help="inspect trace files written by --trace-dir runs",
        description=(
            "Post-process the trace files a `--trace-dir` run leaves "
            "behind (trace.jsonl or trace_chrome.json)."
        ),
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_trace_sum = trace_sub.add_parser(
        "summarize",
        help="per-phase wall-time breakdown of a trace file",
    )
    p_trace_sum.add_argument(
        "file",
        help="trace.jsonl or trace_chrome.json from a --trace-dir run",
    )

    p_base = sub.add_parser("baseline", help="run a named prior-art method")
    p_base.add_argument("device", choices=sorted(DEVICE_REGISTRY))
    p_base.add_argument("method", choices=sorted(BASELINE_REGISTRY))
    p_base.add_argument("--iterations", type=int, default=30)
    p_base.add_argument("--seed", type=int, default=0)
    p_base.add_argument("--output", default=None)

    sub.add_parser("info", help="list devices, methods and strategies")
    return parser


def _parse_axis(spec: str | None) -> tuple[float, ...] | None:
    """Comma-separated floats -> tuple (``None``/empty stays ``None``)."""
    if spec is None:
        return None
    values = tuple(float(tok) for tok in spec.split(",") if tok.strip())
    return values or None


def _cmd_design(args) -> int:
    from repro.core.checkpoint import CheckpointError, resolve_resume

    device = make_device(args.device)
    relax = (
        args.relax_epochs
        if args.relax_epochs is not None
        else max(4, args.iterations // 3)
    )
    checkpoint_dir = args.checkpoint_dir
    resume_ckpt = None
    if args.resume is not None:
        try:
            resume_path, resume_ckpt = resolve_resume(
                args.resume, checkpoint_dir
            )
        except CheckpointError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if checkpoint_dir is None:
            # Resuming an explicit file without --checkpoint-dir keeps
            # checkpointing where the resumed run left its files.
            checkpoint_dir = str(resume_path.parent)
        print(
            f"resuming from {resume_path} "
            f"(next iteration {resume_ckpt.next_iteration})"
        )
    try:
        wavelengths_um = _parse_axis(args.wavelengths)
        temperatures_k = _parse_axis(args.temperatures)
    except ValueError as exc:
        print(f"error: bad axis value: {exc}", file=sys.stderr)
        return 2
    try:
        config = OptimizerConfig(
            iterations=args.iterations,
            sampling=args.sampling,
            relax_epochs=relax,
            seed=args.seed,
            wavelengths_um=wavelengths_um,
            temperatures_k=temperatures_k,
            aggregate=args.aggregate,
            corner_executor=args.executor,
            solver=args.solver,
            remote_timeout=args.remote_timeout,
            remote_connect_retries=args.remote_connect_retries,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            checkpoint_keep=args.checkpoint_keep,
            trace_dir=args.trace_dir,
            trace_format=args.trace_format,
            metrics_every=args.metrics_every,
        )
    except ValueError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return 2
    optimizer = Boson1Optimizer(device, config)

    def log(record):
        print(
            f"iter {record.iteration:3d}  loss {record.loss:+.4f}  "
            f"fom {record.fom:.4f}  p {record.p:.2f}"
        )

    try:
        result = optimizer.run(
            callback=None if args.quiet else log, resume=resume_ckpt
        )
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if result.interrupted:
        print(
            "\ninterrupted by signal; final checkpoint written.  resume "
            f"with: repro design {args.device} --resume auto "
            f"--checkpoint-dir {checkpoint_dir}"
        )
    print("\nfinal design:")
    print(ascii_pattern(result.pattern, max_width=48))
    payload = {
        "device": args.device,
        "method": "BOSON-1",
        "pattern": result.pattern,
        "fom_trace": result.fom_trace(),
        "final_loss": result.final_loss,
        "seed": args.seed,
        "iterations": args.iterations,
    }
    output = args.output or f"boson1_{args.device}_seed{args.seed}.json"
    path = save_result(payload, output)
    print(f"\nsaved to {path}")
    if args.trace_dir is not None:
        print(f"trace written to {args.trace_dir}")
    return 0


def _cmd_evaluate(args) -> int:
    try:
        solver = SolverConfig.coerce(args.solver)
    except ValueError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return 2
    payload = load_result(args.result)
    device = make_device(payload["device"])
    if args.solver != "direct":
        from repro.fdfd.workspace import SimulationWorkspace

        device.configure_simulation_cache(
            True, SimulationWorkspace(solver_config=solver)
        )
    process = FabricationProcess(
        device.design_shape,
        device.dl,
        context=device.litho_context(12),
        pad=12,
    )
    pattern = np.asarray(payload["pattern"], dtype=np.float64)
    session = None
    if args.trace_dir is not None:
        from repro.obs import TraceSession

        formats = tuple(
            tok.strip() for tok in args.trace_format.split(",") if tok.strip()
        )
        session = TraceSession(args.trace_dir, formats or ("jsonl",))
    try:
        try:
            wavelengths_um = _parse_axis(args.wavelengths)
        except ValueError as exc:
            print(f"error: bad axis value: {exc}", file=sys.stderr)
            return 2
        pre, _ = evaluate_ideal(device, pattern)
        report = evaluate_post_fab(
            device, process, pattern, n_samples=args.samples, seed=args.seed,
            executor=args.executor,
            remote_timeout=args.remote_timeout,
            remote_connect_retries=args.remote_connect_retries,
            wavelengths_um=wavelengths_um,
        )
        if session is not None:
            session.record(
                "evaluate",
                extra={
                    "mean_fom": report.mean_fom,
                    "samples": report.n_samples,
                },
                workspace=device.workspace,
            )
        if args.metrics_every:
            import logging

            from repro.obs.metrics import get_metrics

            snap = get_metrics().snapshot(device.workspace)
            logging.getLogger("repro.eval").info(
                "metrics: counters=%s gauges=%s",
                snap["counters"], snap["gauges"],
            )
    finally:
        if session is not None:
            session.close()
            print(f"trace written to {args.trace_dir}")
    better = "lower" if device.fom_lower_is_better else "higher"
    print(f"device          : {payload['device']} ({better} FoM is better)")
    print(f"method          : {payload.get('method', '?')}")
    print(f"pre-fab FoM     : {pre:.4g}")
    print(
        f"post-fab FoM    : {report.mean_fom:.4g} +- {report.std_fom:.4g} "
        f"({report.n_samples} samples)"
    )
    print(f"worst sample    : {report.worst_fom:.4g}")
    strata = report.stratified_foms()
    if len(strata) > 1 or None not in strata:
        worst = np.max if device.fom_lower_is_better else np.min
        for lam, foms in strata.items():
            print(
                f"  lam={lam:g}um  : {np.mean(foms):.4g} +- "
                f"{np.std(foms):.4g}  worst {worst(foms):.4g}"
            )
    return 0


def _cmd_baseline(args) -> int:
    device = make_device(args.device)
    process = FabricationProcess(
        device.design_shape,
        device.dl,
        context=device.litho_context(12),
        pad=12,
    )
    result = run_baseline(
        args.method, device, process, iterations=args.iterations,
        seed=args.seed,
    )
    print(ascii_pattern(result.mask, max_width=48))
    payload = {
        "device": args.device,
        "method": args.method,
        "pattern": result.mask,
        "design_pattern": result.design_pattern,
        "seed": args.seed,
        "iterations": args.iterations,
    }
    output = (
        args.output
        or f"{args.method.lower()}_{args.device}_seed{args.seed}.json"
    )
    path = save_result(payload, output)
    print(f"saved to {path}")
    return 0


def _cmd_worker(args) -> int:
    import os
    import signal

    from repro.core.remote import (
        PROTOCOL_VERSION,
        RemoteWorkerServer,
        parse_worker_addresses,
    )

    try:
        addresses = parse_worker_addresses(args.listen)
        if len(addresses) != 1:
            raise ValueError(
                f"--listen takes exactly one address, got {len(addresses)}"
            )
    except ValueError as exc:
        print(
            f"error: --listen expects HOST:PORT, got {args.listen!r} ({exc})",
            file=sys.stderr,
        )
        return 2
    host, port = addresses[0]
    server = RemoteWorkerServer(host, port)

    def _graceful(signum, _frame):
        # Drain instead of dying: stop accepting, let in-flight tasks
        # finish and their result frames hit the wire, then exit 0.
        # serve_forever does the waiting; this handler only flips the
        # flag and unblocks accept(), so it is safe at signal time.
        print(
            f"repro worker pid {os.getpid()}: received "
            f"{signal.Signals(signum).name}, draining in-flight tasks "
            "before exit",
            file=sys.stderr,
            flush=True,
        )
        server.request_graceful_shutdown()

    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, _graceful)
    # The parseable startup line doubles as the port announcement for
    # --listen host:0 (tests and scripts scrape it).
    print(
        f"repro worker listening on {server.host}:{server.port} "
        f"(protocol v{PROTOCOL_VERSION}, pid {os.getpid()})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
    print(
        f"repro worker pid {os.getpid()}: drained, exiting cleanly",
        flush=True,
    )
    return 0


def _cmd_serve(args) -> int:
    import os
    import signal

    from repro.core.remote import PROTOCOL_VERSION, parse_worker_addresses
    from repro.core.serve import ServeDaemon

    try:
        addresses = parse_worker_addresses(args.listen)
        if len(addresses) != 1:
            raise ValueError(
                f"--listen takes exactly one address, got {len(addresses)}"
            )
    except ValueError as exc:
        print(
            f"error: --listen expects HOST:PORT, got {args.listen!r} ({exc})",
            file=sys.stderr,
        )
        return 2
    fleet = None
    if args.fleet is not None:
        try:
            fleet = parse_worker_addresses(args.fleet)
        except ValueError as exc:
            print(f"error: bad --fleet: {exc}", file=sys.stderr)
            return 2
    host, port = addresses[0]
    try:
        daemon = ServeDaemon(
            args.jobs_dir, host, port, fleet=fleet, parallel=args.parallel
        )
    except (OSError, ValueError) as exc:
        print(f"error: cannot start daemon: {exc}", file=sys.stderr)
        return 2

    def _graceful(signum, _frame):
        # Drain instead of dying: stop accepting, soft-stop running
        # jobs so each finishes its iteration and checkpoints, park
        # them as 'interrupted' for the next start, then exit 0.
        print(
            f"repro serve pid {os.getpid()}: received "
            f"{signal.Signals(signum).name}, checkpointing running jobs "
            "before exit",
            file=sys.stderr,
            flush=True,
        )
        daemon.request_graceful_shutdown()

    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, _graceful)
    # The parseable startup line doubles as the port announcement for
    # --listen host:0 (tests and scripts scrape it).
    print(
        f"repro serve listening on {daemon.host}:{daemon.port} "
        f"(protocol v{PROTOCOL_VERSION}, pid {os.getpid()}, "
        f"jobs {args.jobs_dir})",
        flush=True,
    )
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        daemon.shutdown()
    print(
        f"repro serve pid {os.getpid()}: drained, exiting cleanly",
        flush=True,
    )
    return 0


def _serve_client(args):
    """Connect to the daemon named by ``--connect`` (or exit 2)."""
    from repro.core.remote import parse_worker_addresses
    from repro.core.serve import ServeClient, ServeError

    try:
        addresses = parse_worker_addresses(args.connect)
        if len(addresses) != 1:
            raise ValueError(
                f"--connect takes exactly one address, got {len(addresses)}"
            )
    except ValueError as exc:
        print(
            f"error: --connect expects HOST:PORT, got "
            f"{args.connect!r} ({exc})",
            file=sys.stderr,
        )
        return None
    try:
        return ServeClient(addresses[0], timeout=args.timeout)
    except (OSError, ServeError) as exc:
        print(
            f"error: cannot reach daemon at {args.connect}: {exc}",
            file=sys.stderr,
        )
        return None


def _print_job_line(job: dict) -> None:
    extra = ""
    if job.get("cancelling"):
        extra = "  (cancelling)"
    elif job.get("error"):
        first = str(job["error"]).strip().splitlines()[-1]
        extra = f"  ({first})"
    print(
        f"{job['id']}  {job['status']:<11}  device {job['device']}"
        f"  iterations {job['iterations_done']}{extra}"
    )


def _watch_stream(client, job_id: str) -> int:
    """Stream one job to stdout; exit 0 iff it completed."""
    from repro.core.serve import ServeError

    def on_record(record):
        loss = record.get("loss")
        fom = record.get("fom")
        print(
            f"iter {record.get('iteration', '?'):>3}  "
            f"loss {loss:+.4f}  fom {fom:.4f}"
            if isinstance(loss, float) and isinstance(fom, float)
            else f"iter {record.get('iteration', '?')}  {record}"
        )

    try:
        final = client.watch(job_id, on_record=on_record)
    except (OSError, ServeError) as exc:
        print(f"error: watch failed: {exc}", file=sys.stderr)
        return 1
    print(f"\n{final['id']} settled: {final['status']}")
    if final.get("error"):
        print(final["error"], file=sys.stderr)
    return 0 if final["status"] == "completed" else 1


def _cmd_submit(args) -> int:
    from repro.core.serve import ServeError

    try:
        wavelengths_um = _parse_axis(args.wavelengths)
        temperatures_k = _parse_axis(args.temperatures)
    except ValueError as exc:
        print(f"error: bad axis value: {exc}", file=sys.stderr)
        return 2
    config = {
        "iterations": args.iterations,
        "sampling": args.sampling,
        "relax_epochs": (
            args.relax_epochs
            if args.relax_epochs is not None
            else max(4, args.iterations // 3)
        ),
        "seed": args.seed,
        "wavelengths_um": wavelengths_um,
        "temperatures_k": temperatures_k,
        "aggregate": args.aggregate,
        "solver": args.solver,
    }
    if args.executor is not None:
        config["corner_executor"] = args.executor
    client = _serve_client(args)
    if client is None:
        return 2
    with client:
        try:
            job = client.submit(args.device, config)
        except (OSError, ServeError) as exc:
            print(f"error: submit refused: {exc}", file=sys.stderr)
            return 2
        print(
            f"submitted {job['id']} ({job['device']}, "
            f"{config['iterations']} iterations)"
        )
        if args.watch:
            return _watch_stream(client, job["id"])
    return 0


def _cmd_status(args) -> int:
    from repro.core.serve import ServeError

    client = _serve_client(args)
    if client is None:
        return 2
    with client:
        try:
            if args.job is None:
                reply = client.list_jobs()
                jobs = reply["jobs"]
            else:
                reply = client.status(args.job)
                jobs = [reply["job"]]
        except (OSError, ServeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    for job in jobs:
        _print_job_line(job)
    if not jobs:
        print("no jobs")
    daemon = reply.get("daemon") or {}
    print(
        f"\ndaemon: queue depth {daemon.get('queue_depth')}, "
        f"running {daemon.get('jobs_running')}, "
        f"rss {daemon.get('rss_bytes', 0) / 1e6:.0f} MB"
    )
    fleet = reply.get("fleet") or {}
    if fleet:
        print("fleet gauges:")
        for name in sorted(fleet):
            print(f"  {name} = {fleet[name]}")
    return 0


def _cmd_watch(args) -> int:
    client = _serve_client(args)
    if client is None:
        return 2
    with client:
        return _watch_stream(client, args.job)


def _cmd_cancel(args) -> int:
    from repro.core.serve import ServeError

    client = _serve_client(args)
    if client is None:
        return 2
    with client:
        try:
            job = client.cancel(args.job)
        except (OSError, ServeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if job.get("cancelling"):
        print(
            f"{job['id']}: stop requested; the running iteration will "
            "finish and checkpoint before the job settles as cancelled"
        )
    else:
        print(f"{job['id']}: {job['status']}")
    return 0


def _cmd_trace(args) -> int:
    from repro.obs.export import (
        format_summary,
        load_trace_records,
        summarize_records,
    )

    try:
        records = load_trace_records(args.file)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read trace {args.file!r}: {exc}",
              file=sys.stderr)
        return 2
    if not records:
        print(f"no spans in {args.file}")
        return 0
    print(format_summary(summarize_records(records)))
    return 0


def _cmd_info(_args) -> int:
    print("devices   :", ", ".join(sorted(DEVICE_REGISTRY)))
    print("methods   :", ", ".join(sorted(BASELINE_REGISTRY)))
    print("sampling  :", ", ".join(sorted(SAMPLING_STRATEGIES)))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # One logging setup for every subcommand; configure_logging exports
    # the resolved level to REPRO_LOG_LEVEL so worker subprocesses
    # (process pools, `repro worker` spawns) inherit it.
    configure_logging(args.log_level)
    handlers = {
        "design": _cmd_design,
        "evaluate": _cmd_evaluate,
        "baseline": _cmd_baseline,
        "worker": _cmd_worker,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "status": _cmd_status,
        "watch": _cmd_watch,
        "cancel": _cmd_cancel,
        "trace": _cmd_trace,
        "info": _cmd_info,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
