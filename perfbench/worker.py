"""One workload run in a fresh, single-threaded process.

Started by ``run.py``; prints a ``READY`` line once set-up is done and, unless
``--setup-only`` is given, one JSON line with the run's results at the end.
The reference clock starts before anything measured is imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import clirun
from refclock import RefClock, Timed

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_ROUNDS = 2      # a run starts rounds until --seconds pass, and makes at least this many


def percentile(values, pct: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def child_env(root: str, extra=None) -> dict:
    """The environment of every child: kgraphs from ``root/src``, and one
    thread for the numeric libraries."""
    env = dict(os.environ)
    env.update(PYTHONPATH=os.path.join(root, "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.update(extra or {})
    return env


def cli_run(root: str, args, env=None, python_flags=()):
    """One kgraphs CLI run through clirun.py: (exit code, stdout, stderr
    without the timing line, the timing record)."""
    cmd = [sys.executable, *python_flags, os.path.join(HERE, "clirun.py"), *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=root,
                          env=child_env(root, env))
    head, _, tail = proc.stderr.rpartition("\n" + clirun.MARKER)
    line, _, rest = tail.partition("\n")
    return proc.returncode, proc.stdout, head + rest, json.loads(line)


class Runner:
    def __init__(self, clock: RefClock, root: str, workload):
        self.clock = clock
        self.root = root
        self.wl = workload
        first = {}      # an operation's key: where it first appears in the round
        self.keys = [first.setdefault(id(op), i) for i, op in enumerate(workload.ops)]
        self.attempted = 0
        self.failures = []      # {"op", "why", "known"}

    def _fail(self, op: str, why: str, known: str = "") -> None:
        self.failures.append({"op": op, "why": why, "known": known})

    def cli(self, op):
        """Run one CLI command in a fresh process; (reference seconds, CPU
        seconds), or None when it failed."""
        self.attempted += 1
        try:
            rc, out, err, timing = cli_run(self.root, op.args, op.env)
        except (subprocess.TimeoutExpired, ValueError) as exc:
            self._fail(op.name, f"no timing: {exc!r}", op.fault)
            return None
        why = []
        if not 0 <= rc <= 5:
            why.append(f"exit {rc} outside 0-5")
        if "Traceback" in err:
            why.append("traceback: " + err.strip().splitlines()[-1])
        why += op.expect(rc, out)
        if why:
            self._fail(op.name, "; ".join(why), op.fault)
            return None
        return timing["ref"], timing["cpu"]

    def round(self, replay) -> dict:
        """One pass over the workload's operations, each followed by its
        checks and by the replay of every yes/no verdict it returned; then
        the CLI runs.  Nothing an operation returned outlives its turn, so
        each operation starts on the same heap whatever ran before it."""
        ops = []
        decided = 0
        replay_ref = replay_cpu = 0.0
        gc.collect()
        for i, op in enumerate(self.wl.ops):
            self.attempted += 1
            op.prepare()
            try:
                with Timed() as t:
                    result = op.run()
                why = op.check(result)
                verdicts = [(g, tri) for g, tri in op.verdicts(result) if tri.value != "unknown"]
            except Exception:  # an operation or check that raises has failed
                self._fail(op.name, traceback.format_exc(limit=3))
                op.release()
                continue
            ops.append({"i": self.keys[i], "name": op.name, "ref": self.clock.ref(t.t0, t.t1, t.cpu),
                        "cpu": t.cpu})
            decided += len(verdicts)
            with Timed() as r:
                replays = [replay(g, tri) for g, tri in verdicts]
            replay_ref += self.clock.ref(r.t0, r.t1, r.cpu)
            replay_cpu += r.cpu
            for (g, tri), good in zip(verdicts, replays):
                if not good:
                    kind = tri.certificate.kind if tri.certificate else None
                    why.append(f"{tri.value} verdict with certificate {kind} does not replay")
            if why:
                self._fail(op.name, "; ".join(why))
            del result, verdicts
            op.release()
        with self.clock.paused():
            cli = [c for c in (self.cli(op) for op in self.wl.cli) if c is not None]
        return {"ops": ops, "wall": sum(o["ref"] for o in ops),
                "cpu_raw": sum(o["cpu"] for o in ops),
                "replay": replay_ref, "replay_cpu": replay_cpu,
                "decided": decided, "cli": cli}


TAIL_PCT = 90       # with at least TAIL_MIN_OPS operations, 10 % of them lie beyond
TAIL_MIN_OPS = 100


def per_op(rounds, key: str):
    """Each operation's median over all its timings in the run."""
    times = {}
    for r in rounds:
        for o in r["ops"]:
            times.setdefault(o["i"], []).append(o[key])
    return [statistics.median(v) for v in times.values()]


def tail(values) -> float:
    """The highest percentile with at least ten operations beyond it: the
    90th with 100 operations or more, otherwise the slowest operation."""
    return percentile(values, TAIL_PCT) if len(values) >= TAIL_MIN_OPS else max(values)


def timed_metrics(rounds) -> dict:
    ops = per_op(rounds, "ref")
    cli = [c[0] for r in rounds for c in r["cli"]]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "wall_s": (statistics.median(r["wall"] for r in rounds), "s"),
        "op_s.p50": (statistics.median(ops), "s"),
        "op_s.tail": (tail(ops), "s"),
        "replay_s": (statistics.median(r["replay"] for r in rounds), "s"),
        "decided": (statistics.median(r["decided"] for r in rounds), "count"),
        "peak_rss_mb": (rss, "MB"),
        "cli_cold_s": (statistics.median(cli) if cli else None, "s"),
    }


def raw_figures(rounds) -> dict:
    """The time metrics in raw CPU seconds, for reference only, and every
    operation's times."""
    ops = [o for r in rounds for o in r["ops"]]
    cpus = per_op(rounds, "cpu")
    cli = [c for r in rounds for c in r["cli"]]
    return {"rounds": len(rounds), "ops": len(cpus), "cli_runs": len(cli),
            "wall_s": statistics.median(r["cpu_raw"] for r in rounds),
            "op_s.p50": statistics.median(cpus), "op_s.tail": tail(cpus),
            "replay_s": statistics.median(r["replay_cpu"] for r in rounds),
            "cli_cold_s": statistics.median(c[1] for c in cli) if cli else None,
            "per_op": [[o["i"], o["name"], o["ref"], o["cpu"]] for o in ops]}


def cli_import_probes(root: str, runs: int = 3):
    """cli.import_s: a fresh `import kgraphs.cli`, timed inside the child on
    its own reference clock.  cli.import_deps_s: the numpy and sympy share of
    a cold `eq` run that loads both, read from -X importtime."""
    imports, deps = [], []
    for _ in range(runs):
        out = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), "--probe-import"],
                             capture_output=True, text=True, timeout=120, cwd=root,
                             env=child_env(root), check=True).stdout
        imports.append(float(out.strip().splitlines()[-1]))
        _, _, err, timing = cli_run(root, ["eq", "cycle4", "u(0,0)", "z(0,0)"],
                                    python_flags=("-X", "importtime"))
        micros = 0
        for line in err.splitlines():
            if line.startswith("import time:") and line.count("|") == 2:
                _, cumulative, name = line.split("|")
                if name.strip() in ("numpy", "sympy"):
                    micros += int(cumulative)
        deps.append(micros * 1e-6 * timing["factor"])
    return statistics.median(imports), statistics.median(deps)


def main(argv=None) -> int:
    clock = RefClock().start()
    try:
        return run(clock, argv)
    finally:
        clock.stop()


def run(clock: RefClock, argv) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--root", default=".")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--probe-import", action="store_true")
    args = p.parse_args(argv)
    root = os.path.abspath(args.root)

    if args.probe_import:
        with Timed() as t:
            import kgraphs.cli  # noqa: F401
        clock.ensure_samples()
        print(clock.ref(t.t0, t.t1, t.cpu))
        return 0

    outdir = os.path.join(root, ".perfbench")
    os.makedirs(outdir, exist_ok=True)
    import workloads
    from kgraphs import families, kp_report, t_equal, TElement
    wl = workloads.build(args.workload, args.seed, outdir)
    # warm-up on objects no timed operation uses: imports sympy lazily
    kp_report(families.one_vertex_3x2(), workloads.BOUNDS)
    t_equal(families.cycle_pullback(), TElement.gen("u", (0, 0)), TElement.gen("z", (0, 0)))
    if wl.warm:
        for op in wl.ops:
            op.prepare()
            op.run()
    # What set-up made (modules, inputs) goes to the permanent generation:
    # a full collection otherwise scans some 60k import-time objects (about
    # 40 ms) inside whichever timed operation happens to trigger it.
    gc.collect()
    gc.freeze()
    cpu, now = time.process_time(), time.perf_counter()
    clock.ensure_samples()
    setup = clock.ref(0.0, now, cpu)
    print("READY " + json.dumps({"setup_s": setup, "setup_cpu_raw_s": cpu}), flush=True)
    if args.setup_only:
        return 0

    import kgraphs.tri as tri_mod

    def replay(graph, tri) -> bool:
        """tri.replay looked up per call, so the traced run sees it; a
        replay that raises rejects the verdict."""
        try:
            return tri_mod.replay(graph, tri)
        except Exception:  # a crashing replay is a rejected certificate
            traceback.print_exc()
            return False

    runner = Runner(clock, root, wl)
    result = {}
    if args.trace:
        import tracing
        runner.round(replay)    # first round of the process, outside the comparison
        plain = runner.round(replay)
        tracer = tracing.Tracer()
        tracer.install()
        traced = runner.round(replay)
        layers = tracer.layer_metrics(clock)
        layers["cli.import_s"], layers["cli.import_deps_s"] = cli_import_probes(root)
        metrics = {name: (layers.get(name, 0), unit) for name, unit in tracing.METRICS}
        result["trace_overhead"] = traced["wall"] / plain["wall"]
        result["raw"] = raw_figures([plain])
        with open(os.path.join(outdir, f"spans-{args.workload}-{args.seed}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    else:
        rounds = []
        start = time.perf_counter()
        while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
            rounds.append(runner.round(replay))
        metrics = timed_metrics(rounds)
        result["raw"] = raw_figures(rounds)
    unexpected = [f for f in runner.failures if not f["known"]]
    result.update(correct=not unexpected, attempted=runner.attempted,
                  failed=len(runner.failures), failures=runner.failures,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
