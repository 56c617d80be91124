"""End-to-end and per-layer benchmark of the qrsums command line.

    python3 bench/run.py --workload verify-exact --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --workload all --seed 1

Each pass calls ``qrsums.cli.main`` in-process with one generated command
and stdout captured; every pass's output is checked (see workloads.py) and
its SHA-256 compared with the first pass of the same command.  Passes repeat
until ``--seconds`` have elapsed.  End-to-end timings are the fast decile
over the run's passes (see ``fast``); per-layer figures are medians.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, prints the per-layer metrics and writes the
spans to ``.bench_trace/``.  ``--workload all`` runs each workload in its own
process.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from statistics import median, quantiles

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_trace"
WORKLOADS = tuple(workloads.PLANS)
MIN_PASSES = 3
WARMUP_S = 1.0  # untimed passes before an end-to-end run's first timed one
PROBE_SHARE = 0.15  # share of an end-to-end run spent in set-up probes


def import_cli():
    """qrsums.cli from this checkout's sources, never from site-packages."""
    if not (SRC / "qrsums" / "__init__.py").is_file():
        raise SystemExit(f"bench: no qrsums sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from qrsums import cli

    if Path(cli.__file__).resolve().parent != SRC / "qrsums":
        raise SystemExit(f"bench: imported qrsums from {cli.__file__}, not {SRC}")
    return cli


@dataclass
class Pass:
    wall: float
    cpu: float  # self plus children
    children_cpu: float
    out: str


def _cpu(who: int) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


class Runner:
    """Runs and checks passes; counts operations attempted and failed."""

    def __init__(self, cli, plan: workloads.Plan) -> None:
        self.cli = cli
        self.plan = plan
        self.attempted = 0
        self.digests: dict[int, str] = {}
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def run(self, index: int, argv: list[str], tracer: spans.Tracer | None = None) -> Pass:
        main = self.cli.main
        if tracer is not None:
            tracer.begin_pass()
            main = tracer.span("main", "cli", main)
        gc.collect()
        buf = io.StringIO()
        s0, c0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            try:
                rc = main(argv)
            except Exception:  # a crashing command is a failed operation
                traceback.print_exc()
                rc = None
        wall = time.perf_counter() - t0
        s1, c1 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
        out = buf.getvalue()
        results = [("exit_0", rc == 0)] + self.plan.check(index, out)
        digest = hashlib.sha256(out.encode()).hexdigest()
        if index in self.digests:
            results.append(("digest_repeats", digest == self.digests[index]))
        else:
            self.digests[index] = digest
        for name, ok in results:
            self.attempted += 1
            if not ok:
                self.failures.append(f"{' '.join(argv)}: {name}")
        return Pass(wall, (s1 - s0) + (c1 - c0), c1 - c0, out)


def setup_probe(workload: str, seed: int) -> None:
    """What a workload process does before its first pass."""
    import_cli()
    workloads.make_plan(workload, seed)


def setup_seconds(workload: str, seed: int) -> float:
    """Wall time of one fresh process doing a workload's set-up."""
    argv = [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def fast(values: list[float], better: str = "lower") -> float:
    """The 10th percentile of a run's samples (the 90th when higher is better).

    On a shared host the same pass takes either its own time or, while a
    neighbour holds the core, 1.3 to 1.6 times that, in phases lasting from
    seconds to minutes.  A run's median follows the share of slowed passes
    and so jumps between runs; the fast decile stays with the unslowed time,
    which any change to the program still moves in full.
    """
    deciles = quantiles(values, n=10)
    return deciles[0] if better == "lower" else deciles[-1]


def _describe(name: str, values: list[float], unit: str, samples: str = "passes",
              better: str = "lower") -> str:
    return (
        f"{name:<14} fast decile {fast(values, better):.6g} {unit}  median {median(values):.6g}"
        f"  min {min(values):.6g}  max {max(values):.6g}  ({len(values)} {samples})"
    )


def end_to_end(runner: Runner, workload: str, seed: int, seconds: float) -> dict[str, float]:
    plan = runner.plan
    warm_until = time.perf_counter() + WARMUP_S
    while True:  # warm-up, checked but not timed
        runner.run(0, plan.commands[0])
        if time.perf_counter() >= warm_until:
            break
    # pool workers' peak, read before the first set-up probe (also a child) runs
    worker_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    order, walls, cpus = [], [], []  # outputs are not kept: they would count in peak RSS
    # set-up probes are interleaved with the passes, so both sample the same
    # stretch of time, and take about PROBE_SHARE of it
    setup = []
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline or len(walls) < MIN_PASSES:
        i = len(walls) % len(plan.commands)
        p = runner.run(i, plan.commands[i])
        order.append(i)
        walls.append(p.wall)
        cpus.append(p.cpu)
        if sum(setup) <= PROBE_SHARE * (time.perf_counter() - start):
            setup.append(setup_seconds(workload, seed))
    rates = [len(plan.bands[i]) / wall for i, wall in zip(order, walls)]
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_mb = (self_kb + plan.jobs * worker_kb) / 1024
    print(_describe("wall_s", walls, "s"))
    print(_describe("cpu_s", cpus, "s"))
    print(_describe("primes_per_s", rates, "1/s", better="higher"))
    if workload == "gauss":
        sums = [sum(p - 1 for p in plan.bands[i]) / wall for i, wall in zip(order, walls)]
        print(_describe("sums_per_s", sums, "1/s", better="higher"))
    print(_describe("setup_s", setup, "s", "fresh processes"))
    return {
        "setup_s": fast(setup),
        "wall_s": fast(walls),
        "primes_per_s": fast(rates, "higher"),
        "cpu_s": fast(cpus),
        "peak_rss_mb": peak_mb,
    }


def per_layer(runner: Runner, workload: str, seed: int, seconds: float) -> dict[str, float]:
    plan = runner.plan
    tracer = spans.Tracer()
    serial = plan.serial_commands
    runner.run(0, plan.commands[0])  # warm-up
    walls, busy = [], []  # untraced passes of the workload's own commands
    base = []  # untraced walls of the traced commands
    traced_walls, per_pass = [], []

    def traced(i: int, argv: list[str]) -> None:
        with tracer.installed():
            p = runner.run(i, argv, tracer)
        traced_walls.append(p.wall)
        m = spans.pass_metrics(tracer.passes[-1], plan.bands[i])
        m["cli.bytes_out"] = len(p.out.encode())
        fields = workloads.parse_fields(p.out) if workload.startswith("verify") else {}
        m["verify.checks_run"] = int(fields.get("checks_run", 0))
        m["verify.failures"] = int(fields.get("failures", 0))
        m["scan.rows"] = p.out.count("\n") - 1 if workload == "scan" else 0
        per_pass.append(m)

    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(per_pass) < MIN_PASSES:
        i = len(per_pass) % len(plan.commands)
        twin = serial[i] if serial else plan.commands[i]
        if serial:  # the pool pass first, so it precedes either serial pass equally often
            p = runner.run(i, plan.commands[i])
            walls.append(p.wall)
            busy.append(p.children_cpu / (plan.jobs * p.wall))
        # alternate which side goes first, so neither gains from the order
        traced_first = len(per_pass) % 2 == 1
        if traced_first:
            traced(i, twin)
        base.append(runner.run(i, twin).wall)
        if not serial:
            walls.append(base[-1])
        if not traced_first:
            traced(i, twin)
    metrics = spans.median_metrics(per_pass)
    metrics["cli.ns_per_byte"] = metrics["cli.self_s"] * 1e9 / metrics["cli.bytes_out"]
    traced_wall = median(traced_walls)
    metrics["trace.overhead_ratio"] = traced_wall / median(base) - 1
    metrics["scan.jobs"] = plan.jobs
    metrics["scan.serial_s"] = traced_wall if serial else 0.0
    metrics["scan.parallel_eff"] = traced_wall / (plan.jobs * median(walls)) if serial else 0.0
    metrics["scan.worker_busy_ratio"] = median(busy) if busy else 0.0
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{workload}-seed{seed}.jsonl"
    tracer.write(path)
    print(f"spans          {sum(map(len, tracer.passes))} written to {path.relative_to(ROOT)}")
    print(f"passes         {len(per_pass)} traced, {len(base) + (len(walls) if serial else 0)} untraced")
    return metrics




def declared_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    cli = import_cli()
    units = declared_units(trace)
    plan = workloads.make_plan(workload, seed)
    print(f"workload       {workload}  seed {seed}  trace {int(trace)}")
    for argv in plan.commands + plan.serial_commands:
        print(f"command        qrsums {' '.join(argv)}")
    runner = Runner(cli, plan)
    measure = per_layer if trace else end_to_end
    metrics = measure(runner, workload, seed, seconds)
    if metrics.keys() != units.keys():
        raise SystemExit(f"bench: measured {sorted(metrics)}, BENCHMARK.json declares {sorted(units)}")
    for i, argv in enumerate(plan.commands):
        print(f"sha256         {runner.digests[i]}  qrsums {' '.join(argv)}")
    for line in runner.failures[:20]:
        print(f"FAILED         {line}")
    print(f"fail_ratio     {runner.failed / runner.attempted:.6g}"
          f"  ({runner.failed} of {runner.attempted} operations)")
    for name, value in sorted(metrics.items()):
        print(f"  {name:<26} {value:.6g} {units[name]}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so setup and memory are its own."""
    import_cli()
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(argv, check=True, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
