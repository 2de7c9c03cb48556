"""One unit of one workload, in a fresh interpreter.

Started by ``run.py`` (never imported), with the BLAS pool pinned and
``src`` on ``PYTHONPATH``.  Everything up to the ``ready`` timestamp is
set-up: interpreter start, imports, device, fabrication chain and the
optimizer or daemon.  The unit then runs, checks its outputs, and prints
one JSON line: timings, CPU time and peak RSS of itself and its child
processes, operations attempted and failed, the outputs it checked, and
with ``--trace 1`` the per-layer metrics of ``layers.py`` (the raw
span records go to ``.perfbench_run/trace-<workload>.jsonl``).

    python3 perfbench/unit.py --workload design-lu --seed 0 --trace 0 \\
        [--reference perfbench/reference.json | --reference none]
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time
from pathlib import Path

DEFAULT_REFERENCE = Path(__file__).resolve().parent / "reference.json"


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Highest peak RSS of this process or any reaped child, in MB."""
    kib = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return kib / 1024.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--reference", default=str(DEFAULT_REFERENCE),
        help="reference outputs to check against, or 'none' to record",
    )
    args = parser.parse_args()

    import layers
    import workloads
    from repro.obs import enable_tracing, get_metrics

    reference = None
    if args.reference != "none":
        reference = json.loads(Path(args.reference).read_text())
    if args.trace:
        layers.install()
    work = workloads.make(args.workload, args.seed, reference)
    work.setup()

    ready = time.monotonic()
    cpu_start = cpu_seconds()
    tracer = enable_tracing() if args.trace else None
    try:
        out = work.run()
        wall = time.monotonic() - ready
        cpu = cpu_seconds() - cpu_start
    finally:
        work.close()

    unit = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb(),
        "iter_s": out["iter_s"],
        "latency_s": out["latency_s"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "failures": out["failures"],
        "observed": out["observed"],
    }
    if tracer is not None:
        records = tracer.drain()
        # The raw spans, so the per-layer numbers can be recomputed
        # (layers.span_times) or inspected; the last traced unit wins.
        workloads.RUN_DIR.mkdir(exist_ok=True)
        trace_path = workloads.RUN_DIR / f"trace-{args.workload}.jsonl"
        trace_path.write_text("".join(json.dumps(r) + "\n" for r in records))
        per_layer = layers.layer_metrics(
            records,
            get_metrics().as_dict()["counters"],
            work.workspace().stats()["solver"],
        )
        serve = out.get("serve")
        if serve is not None:
            per_layer.update({
                "core.serve.submit_rtt_s": _median(serve["submit_rtt_s"]),
                "core.serve.queue_wait_s": _median(serve["queue_wait_s"]),
                "core.serve.overhead_s": _median(serve["overhead_s"]),
                "core.serve.progress_records": serve["progress_records"],
            })
        unit["per_layer"] = per_layer
    print(json.dumps(unit))


if __name__ == "__main__":
    main()
