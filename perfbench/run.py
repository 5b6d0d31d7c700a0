"""commlat benchmark: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload congruences --seed 1 --seconds 45 --trace 0

The checkout's ``src/`` (the directory above this one) is put on the module
path, and on PYTHONPATH for child processes.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer ones
from a separate traced pass.  Diagnostics go to standard error.  Everything
runs in this process; child processes run one at a time.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 2          # extra set-ups in child processes, for the median
STARTUP_PROBES = 5        # `import commlat.cli` children for cli.startup_ms


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="sets the number of rounds, from each workload's "
                        "round time at the seed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def timed_setup(workload, seed, rounds):
    """Import commlat and build the workload's inputs; returns (seconds,
    package, inputs, working directory)."""
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT)
    start = time.perf_counter()
    pkg = workloads.import_commlat()
    inputs = workload.setup(pkg, seed, rounds, workdir)
    return time.perf_counter() - start, pkg, inputs, workdir


def probe_setup(args):
    """Set-up seconds of this workload in a fresh child interpreter."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--setup-probe"],
        capture_output=True, text=True, check=True)
    return float(done.stdout.split()[-1])


def probe_startup_ms():
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import commlat.cli"], check=True)
    return (time.perf_counter() - start) * 1e3


def percentile(sorted_values, q):
    """Nearest rank: the smallest value with a share q at or below it."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def max_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def clear_caches():
    for cache in spans.package_caches():
        cache.cache_clear()


def source_lines():
    return sum(len(path.read_bytes().splitlines())
               for path in sorted(SRC.rglob("*.py")))


class Run:
    """Runs operations and their checks, counting and timing them.

    An operation that raises is failed, and so is one marked as a known
    fault whose output fails its check; any other output that fails a check
    is wrong.  Only the operation itself is timed, and only operations that
    did not fail count in the timings."""

    def __init__(self, workload, pkg, in_process, tracer=None):
        self.workload = workload
        self.pkg = pkg
        self.in_process = in_process
        self.tracer = tracer
        self.durations = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.child_rss_kb = 0

    def rounds(self, items, after_round=None):
        for row in items:
            for item in row:
                self.one(item)
            if after_round:
                after_round()

    def one(self, item):
        self.attempted += 1
        if self.tracer:
            self.tracer.begin_operation()
        start = time.perf_counter()
        try:
            output = self.workload.run(self.pkg, item, self.in_process)
            self.durations.append(time.perf_counter() - start)
        except Exception as exc:
            self.failed += 1
            log(f"operation {self.attempted} failed: {exc!r}")
            return
        finally:
            if self.tracer:
                self.tracer.op = None
        self.child_rss_kb = max(self.child_rss_kb, getattr(output, "rss_kb", 0))
        try:
            self.workload.check(item, output)
        except Exception as exc:        # CheckFailed, or a malformed output
            if item.known_fault:
                self.failed += 1
                self.durations.pop()
            else:
                self.wrong += 1
                log(f"operation {self.attempted} is wrong: {exc!r}")

    def rate(self):
        """Operations per second of operation time."""
        return len(self.durations) / sum(self.durations)

    def peak_rss_mb(self):
        """Of the largest child that ran an operation, or else of this
        process."""
        return self.child_rss_kb / 1024 if self.child_rss_kb else max_rss_mb()


def end_to_end(workload, args, rounds):
    seconds, pkg, inputs, workdir = timed_setup(workload, args.seed, rounds)
    setups = [seconds] + [probe_setup(args) for _ in range(SETUP_PROBES)]
    run = Run(workload, pkg, in_process=False)
    growth = []
    try:
        workload.oracles(pkg, inputs)
        clear_caches()
        run.rounds(inputs.items, after_round=lambda: growth.append(
            (round(run.peak_rss_mb(), 1), spans.cache_entries())))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    log(f"{workload.name}: {rounds} rounds, {run.attempted} operations; "
        f"set-up seconds {setups}; (peak_rss_mb, cache.entries) after each "
        f"round: {growth}")
    durations = sorted(run.durations)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (run.rate(), "ops/s"),
        "op_p50_ms": (statistics.median(durations) * 1e3, "ms"),
        "op_p90_ms": (percentile(durations, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (run.peak_rss_mb(), "MB"),
    }
    return [run], metrics


def per_layer(workload, args, rounds):
    """An untraced first round as the reference, then, with the caches
    cleared, the set-up and every round again under the tracer."""
    _, pkg, inputs, workdir = timed_setup(workload, args.seed, rounds)
    tracer = spans.Tracer()
    reference = Run(workload, pkg, in_process=True)
    first = Run(workload, pkg, in_process=True, tracer=tracer)
    rest = Run(workload, pkg, in_process=True, tracer=tracer)
    entries = []
    try:
        workload.oracles(pkg, inputs)
        clear_caches()
        reference.rounds(inputs.items[:1])
        clear_caches()
        tracer.install()
        tracer.op = -1
        traced = workload.setup(pkg, args.seed, rounds, workdir)
        tracer.op = None
        first.rounds(traced.items[:1],
                     after_round=lambda: entries.append(spans.cache_entries()))
        rest.rounds(traced.items[1:],
                    after_round=lambda: entries.append(spans.cache_entries()))
        layer = tracer.summary()
    finally:
        tracer.op = None
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    overhead = first.rate() / reference.rate()
    layer.update({
        "cache.entries": entries[-1],
        "cli.startup_ms": statistics.median(
            probe_startup_ms() for _ in range(STARTUP_PROBES)),
        "src.lines": source_lines(),
        "trace.overhead": overhead,
    })
    path = OUT / f"trace-{workload.name}-{args.seed}.jsonl.gz"
    tracer.write(path, {"workload": workload.name, "seed": args.seed,
                        "rounds": rounds, "cache_entries_per_round": entries,
                        "overhead": overhead})
    log(f"{workload.name}: traced {rounds} rounds; tracing overhead "
        f"(traced / untraced ops_per_s on round 1) = {overhead:.3f}; "
        f"cache.entries after each round: {entries}; "
        f"absent: {tracer.absent or 'none'}; spans in {path}")
    metrics = {name: (layer[name], unit)
               for name, unit, _ in spans.per_layer_metrics()}
    return [reference, first, rest], metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "commlat" / "__init__.py").is_file():
        log(f"no commlat sources under {SRC}")
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]
    rounds = workload.rounds(args.seconds)

    if args.setup_probe:
        seconds, _, _, workdir = timed_setup(workload, args.seed, rounds)
        shutil.rmtree(workdir, ignore_errors=True)
        print(repr(seconds))
        return 0

    measure = per_layer if args.trace else end_to_end
    runs, metrics = measure(workload, args, rounds)
    print(json.dumps({
        "correct": not any(r.wrong for r in runs),
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
