"""One timed pass of one workload, in a fresh interpreter.

run.py starts this script once per pass, from the repository root with
``src`` on PYTHONPATH, so that pslet's caches start cold in every pass:

    python3 perfbench/worker.py --workload NAME --seed N [--trace SPANS.jsonl]
    python3 perfbench/worker.py --setup-only

It prints one JSON line: the set-up time, the pass time, the latency of each
public call, the peak RSS, the output check and, when traced, the per-layer
metrics (the spans themselves go to SPANS.jsonl).  Every time is given twice:
as measured (``*_raw_s``) and scaled to the reference speed of speed.py, with
the machine's speed sampled while the set-up or the pass ran.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import platform
import resource
import sys
import time

import speed

# a call's speed is averaged over the samples within this many seconds of it
LATENCY_PAD_S = 0.1


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", metavar="SPANS", help="record spans and write them here")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # no numpy before the set-up is timed: importing it is part of set-up
    with speed.SpeedProbe(speed.python_kernel, speed.PYTHON_REF_S, speed.SETUP_INTERVAL_S) as probe:
        t0 = time.perf_counter()
        import pslet
        from pslet import tables

        for table_id in tables.TABLE_IDS:
            tables.load_golden(table_id)
        t1 = time.perf_counter()
    out = {
        "setup_s": probe.scaled(t0, t1),
        "setup_raw_s": t1 - t0,
        "pslet": pslet.__file__,
        "env": environment(),
    }
    if args.setup_only:
        print(json.dumps(out))
        return 0

    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.prepare(args.seed)
    tracer = spans.Tracer() if args.trace else None
    probe = speed.SpeedProbe(speed.numpy_kernel(), speed.NUMPY_REF_S, speed.PASS_INTERVAL_S)
    calls: list[tuple[float, float]] = []
    if tracer is None:
        spans.assert_untraced()
    else:
        tracer.install()
    try:
        with probe, tracer.root("bench.pass") if tracer else contextlib.nullcontext():
            t1 = time.perf_counter()
            outputs = wl.run(inputs, calls)
            t2 = time.perf_counter()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        with tracer.root("bench.check") if tracer else contextlib.nullcontext():
            check = wl.check(inputs, outputs)
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall_s = probe.scaled(t1, t2)
    if tracer is None:
        spans.assert_untraced()
    else:
        out["layers"] = spans.layer_metrics(tracer.spans, wl.hit, wall_s / (t2 - t1))
        tracer.write(args.trace)
    out.update(
        wall_s=wall_s,
        wall_raw_s=t2 - t1,
        probe_share=probe.kernel_share(t1, t2),
        latencies_s=[probe.scaled(a, b, LATENCY_PAD_S) for a, b in calls],
        latencies_raw_s=[b - a for a, b in calls],
        peak_rss_mb=peak_rss_mb,
        check=dataclasses.asdict(check),
        inputs=wl.describe(inputs),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
