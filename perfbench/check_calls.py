"""Check that every per-layer ``.calls`` count repeats exactly.

    python3 perfbench/check_calls.py [--workload NAME ...] [--seed N]

Runs the traced run of each workload twice with the same workload seed but
different PYTHONHASHSEED values, and reports every count that differs.
Exits 1 when one does.
"""

from __future__ import annotations

import argparse
import sys
import time

import run

HASH_SEEDS = (1, 2718281)


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", nargs="*", default=list(run.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    bad = 0
    for name in args.workload:
        runs = []
        for hash_seed in HASH_SEEDS:
            wargs = argparse.Namespace(workload=name, seed=args.seed, seconds=1, trace=1)
            _, result = run.worker(wargs, time.monotonic() + run.DEADLINE_S, hash_seed=hash_seed)
            runs.append({k: v["value"] for k, v in result["metrics"].items()
                         if k.endswith(".calls")})
        diff = {k: (runs[0][k], runs[1][k]) for k in runs[0] if runs[0][k] != runs[1][k]}
        bad += len(diff)
        print(f"{name}: {len(runs[0])} counts, "
              + (f"differing under hash seeds {HASH_SEEDS}: {diff}" if diff else "all identical"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
