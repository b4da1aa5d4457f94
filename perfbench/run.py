"""Benchmark for kgraphs: classification, equality queries and CLI start-up.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of classify_finite, classify_sources, classify_lazy, queries,
or ``all`` for the four in turn.  Each workload runs in a fresh worker
process; the last line printed is one JSON object with the keys correct,
attempted, failed and metrics.  With ``--trace 0`` the metrics are the
end-to-end ones, in reference seconds (see refclock.py); with ``--trace 1``
they are the per-layer ones from a traced run.  Run it from the root of a
kgraphs checkout: the package is imported from ``src/``.  Details of each
run, raw seconds included, go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from worker import child_env

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("classify_finite", "classify_sources", "classify_lazy", "queries")
SETUP_PROBES = 2          # set-ups measured besides the measured run's own
DEADLINE_S = 170          # a run ends within this, probes included
HASH_SEED = 0             # fixed string hashing; check_calls.py varies it


def worker(args, deadline: float, extra=(), hash_seed=HASH_SEED):
    """Run worker.py; returns (its READY record, its final JSON or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", ROOT, *extra]
    env = child_env(ROOT, {"PYTHONHASHSEED": str(hash_seed)})
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env) as proc:
        try:
            out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise SystemExit(f"{args.workload}: run exceeded {DEADLINE_S} s")
    if proc.returncode != 0:
        raise SystemExit(f"{args.workload}: worker exited with {proc.returncode}")
    lines = out.strip().splitlines()
    ready = [json.loads(line[6:]) for line in lines if line.startswith("READY ")]
    final = json.loads(lines[-1]) if lines and not lines[-1].startswith("READY ") else None
    return ready[0], final


def run_workload(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(worker(args, deadline, ["--setup-only"])[0])
    ready, result = worker(args, deadline)
    setups.append(ready)
    if not args.trace:
        result["metrics"]["setup_s"] = {
            "value": statistics.median(s["setup_s"] for s in setups), "unit": "s"}
        result["raw"]["setup_s"] = statistics.median(s["setup_cpu_raw_s"] for s in setups)
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    path = os.path.join(ROOT, ".perfbench",
                        f"result-{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    for f in result["failures"]:
        print(f"{'known fault' if f['known'] else 'FAILED'}: {f['op']}: {f['why']}",
              file=sys.stderr)
    if "trace_overhead" in result:
        print(f"{args.workload}: tracing overhead {result['trace_overhead']:.2f}x "
              "(reference time of a traced round over an untraced one)")
    return {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "kgraphs", "__init__.py")):
        print(f"no kgraphs sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.workload != "all":
        out = run_workload(args)
    else:
        parts = {}
        for name in WORKLOADS:
            parts[name] = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
            print(json.dumps(parts[name]))
        out = {"correct": all(r["correct"] for r in parts.values()),
               "attempted": sum(r["attempted"] for r in parts.values()),
               "failed": sum(r["failed"] for r in parts.values()),
               "metrics": {f"{name}/{key}": value for name, r in parts.items()
                           for key, value in r["metrics"].items()}}
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
