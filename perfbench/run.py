"""pslet benchmark: golden tables, figure 7 field scan and distinct single solves.

Run from the repository root:

    python3 perfbench/run.py --workload golden_tables --seed 1 --seconds 30 --trace 0

With --trace 0 the run measures set-up seven times in fresh processes, then
runs timed passes, each in a fresh process, for about --seconds, and prints
the end-to-end metrics.  With --trace 1 it runs one untraced and one traced
pass and prints the per-layer metrics.  Times in the metrics are scaled to
the reference speed of speed.py; the raw wall times are printed beside them
and recorded.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Everything the run measured,
with its environment, also goes to .bench_out/<workload>-seed<n>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORKLOADS = ("golden_tables", "field_scan", "distinct_states")
SETUP_PROBES = 7
DEADLINE_S = 170.0  # a run must end within 180 s


class BenchError(RuntimeError):
    pass


class Runner:
    """Starts worker processes from the checkout root, one at a time."""

    def __init__(self, root: Path):
        self.root = root
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        self.env["OPENBLAS_NUM_THREADS"] = "1"
        self.env["OMP_NUM_THREADS"] = "1"

    def __call__(self, *args: str) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before the next worker could start")
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), *args],
                cwd=self.root,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired as err:
            raise BenchError(f"worker {' '.join(args)} ran past the deadline") from err
        if proc.returncode != 0:
            raise BenchError(f"worker {' '.join(args)} failed:\n{proc.stderr[-4000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        expected = self.root / "src" / "pslet" / "__init__.py"
        if Path(result["pslet"]).resolve() != expected.resolve():
            raise BenchError(f"worker imported pslet from {result['pslet']}, not {expected}")
        result["process_s"] = time.monotonic() - t0
        return result


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def percentile(values: list[float], q: int) -> float:
    """q-th percentile, interpolated as statistics.quantiles(method='inclusive')."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def accuracy(passes: list[dict]) -> dict:
    checks = [p["check"] for p in passes]
    attempted = sum(c["attempted"] for c in checks)
    return {
        "max_error_ry": max(c["max_error_ry"] for c in checks),
        "failed_share": sum(c["failed"] for c in checks) / attempted,
        "unconverged_share": sum(c["unconverged"] for c in checks) / sum(c["rows"] for c in checks),
    }


def end_to_end(probes: list[dict], passes: list[dict], raw: bool = False) -> dict:
    """The end-to-end metrics; with raw set, from the unscaled times."""
    suffix = "_raw_s" if raw else "_s"
    latencies_ms = [1e3 * s for p in passes for s in p["latencies" + suffix]]
    return {
        "setup_s": statistics.median(r["setup" + suffix] for r in probes + passes),
        "wall_s": statistics.median(p["wall" + suffix] for p in passes),
        "state_latency_p50_ms": percentile(latencies_ms, 50),
        "state_latency_p90_ms": percentile(latencies_ms, 90),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "pslet" / "__init__.py").is_file():
        print(f"error: no pslet sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    # BENCHMARK.json declares the metrics of each mode and their units
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run = Runner(root)
    pass_args = ("--workload", args.workload, "--seed", str(args.seed))
    try:
        if args.trace:
            probes: list[dict] = []
            base = run(*pass_args)
            traced = run(*pass_args, "--trace", str(out_dir / f"{stem}.spans.jsonl"))
            passes = [base, traced]
            metrics = dict(traced["layers"])
            metrics["trace.overhead_share"] = traced["wall_s"] / base["wall_s"] - 1.0
            metrics["state_latency.samples"] = len(traced["latencies_s"])
            metrics.update(accuracy([traced]))
            raw_metrics = {"wall_s": base["wall_raw_s"], "traced_wall_s": traced["wall_raw_s"]}
        else:
            probes = [run("--setup-only") for _ in range(SETUP_PROBES)]
            passes, start = [], time.monotonic()
            while True:
                passes.append(run(*pass_args))
                elapsed = time.monotonic() - start
                last = passes[-1]["process_s"]
                if elapsed + last > args.seconds or run.deadline - time.monotonic() < 2 * last:
                    break
            metrics = end_to_end(probes, passes)
            raw_metrics = end_to_end(probes, passes, raw=True)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} missing or unexpected",
              file=sys.stderr)
        return 1
    if args.workload == "distinct_states" and args.trace:
        # the draw never repeats a radial key, so no solve may be redundant
        if metrics["quantum_dot.redundant_solve_share"] != 0.0:
            print("error: distinct_states repeated a radial problem", file=sys.stderr)
            return 1
    attempted = sum(p["check"]["attempted"] for p in passes)
    failed = sum(p["check"]["failed"] for p in passes)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commit": git_commit(root),
        "env": passes[0]["env"],
        "inputs": passes[0]["inputs"],
        "passes": len(passes),
        "setup_probes": len(probes),
        "latency_samples": sum(len(p["latencies_s"]) for p in passes),
        "accuracy": accuracy(passes),
        "check_notes": [n for p in passes for n in p["check"]["notes"]][:20],
        "metrics": metrics,
        "raw_metrics": raw_metrics,
        "probe_share": max(p["probe_share"] for p in passes),
        "workers": passes + probes,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(summary, indent=1) + "\n")

    env = summary["env"]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(passes)} passes, "
          f"{len(probes)} set-up probes, {summary['latency_samples']} latency samples")
    print(f"  commit {summary['commit']}; nproc {env['nproc']}, python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, blas {env['blas']}, "
          f"OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']} OMP_NUM_THREADS={env['OMP_NUM_THREADS']}")
    print(f"  inputs {json.dumps(summary['inputs'])}")
    for name, value in summary["accuracy"].items():
        print(f"  check {name:<34} {value:.4g}")
    print(f"  check failed rows {failed} of {attempted}")
    for note in summary["check_notes"]:
        print(f"    {note}")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:.6g} {units[name]}")
    print(f"  raw, unscaled: {', '.join(f'{n} {v:.6g}' for n, v in raw_metrics.items())}; "
          f"speed samples took at most {summary['probe_share']:.2%} of a pass")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
