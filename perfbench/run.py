"""Benchmark for enrq: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py): verify-all, field-growth, lattice-search,
quick-suites.  Everything runs in one process at a time.  A pass runs
every operation of the workload once, checking each result against the
seed commit's value; passes repeat until --seconds have gone by (at
least one pass).

--trace 0 prints the end-to-end metrics:
  wall_s       median seconds per pass, each pass's wall time divided
               by the host's slowdown during it (see below)
  setup_s      median wall time of a fresh interpreter that imports
               enrq.cli, over SETUP_TRIES tries
  peak_rss_mb  peak RSS of this process when its first pass ends, which
               is that of a fresh process that runs one pass
The pass count, the raw median pass and, from eleven passes on, the
highest percentile with ten passes beyond it are printed before the
result.

Why not a raw median: on a shared 2-vCPU VM, other tenants' work slowed
the interpreter by up to 2x, in bursts of 0.1 to 1 s and in stretches of
tens of seconds, and raw medians spread by 10-25% between runs.  So a
timer signal runs a fixed reference kernel every SAMPLE_PERIOD_S during
the passes (about 1% of the time), and the mean kernel time during a pass
over REFERENCE_KERNEL_S is the host's slowdown in that pass.  wall_s is
in seconds at the host speed where the kernel takes REFERENCE_KERNEL_S.
Set-up time is mostly process start and file loading, which the kernel
does not track, so it is reported raw.

--trace 1 measures untraced passes for --seconds, then traced passes for
--seconds, and prints the per-layer metrics of tracing.py averaged per
traced pass (raw times), plus trace.wall_s (mean raw traced pass),
trace.outside_s (the part of it in no traced function, so that it and
the self times add up to trace.wall_s) and trace.overhead_s (traced
minus untraced wall_s).  The kernel samples run inside whatever span is
open, adding about 1% to self times.  The spans go to
perfbench/out/spans-<workload>.*.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A failed operation is listed
before it and counts in `failed`; fail_ratio = failed / attempted.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import checkout
import tracing
import workloads

SETUP_TRIES = 11
SAMPLE_PERIOD_S = 0.05
REFERENCE_KERNEL_S = 0.0005


def _reference_kernel():
    """Fixed pure-Python work (tuples, dict updates, small-int arithmetic),
    about 0.5 ms.  Never change it: wall_s is relative to it."""
    seen = {}
    x = (1, 2, 3, 4, 5, 6, 7)
    for i in range(300):
        x = tuple((a * 7 + b + i) % 13 for a, b in zip(x, x[1:] + x[:1]))
        seen[x] = seen.get(x, 0) + 1
    return len(seen)


class HostSpeed:
    """Samples the interpreter's speed while the workload runs.

    While active, a timer signal every SAMPLE_PERIOD_S runs the reference
    kernel in the main thread, between the workload's bytecodes, and
    records how long it took.  The mean of the samples taken during a
    pass over REFERENCE_KERNEL_S is the host's slowdown in that pass.
    """

    def __init__(self):
        self.samples = []

    def sample(self, *signal_args):
        start = time.perf_counter()
        _reference_kernel()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def slowdown_since(self, first):
        """Slowdown over the samples from index `first` on (one is taken if there are none)."""
        if len(self.samples) == first:
            self.sample()
        return statistics.fmean(self.samples[first:]) / REFERENCE_KERNEL_S


def setup_times():
    """Wall times of fresh interpreters that import enrq.cli, one at a time."""
    times = []
    for _ in range(SETUP_TRIES):
        start = time.perf_counter()
        # no timeout: with one, the wait polls at up to 50 ms intervals
        subprocess.run([sys.executable, "-c", "import enrq.cli"], cwd=checkout.ROOT, check=True,
                       env=dict(os.environ, PYTHONPATH=str(checkout.SRC)))
        times.append(time.perf_counter() - start)
    return times


@dataclass
class Passes:
    """Timings of the passes of one measurement."""

    walls: list = field(default_factory=list)  # seconds per pass
    slowdowns: list = field(default_factory=list)  # host slowdown during each pass
    first_pass_rss_mb: float = 0.0

    def normalized(self):
        """Seconds per pass at reference host speed."""
        return [w / s for w, s in zip(self.walls, self.slowdowns)]

    def wall_s(self):
        return statistics.median(self.normalized())


def measure(operations, expected, rng, seconds, tally, tracer=None):
    """Time passes until `seconds` have gone by (at least one pass)."""
    passes = Passes()
    start = time.perf_counter()
    with HostSpeed() as host:
        while not passes.walls or time.perf_counter() - start < seconds:
            if tracer is not None:
                tracer.pass_id = len(passes.walls)
            first = len(host.samples)
            t0 = time.perf_counter()
            workloads.run_pass(operations, expected, rng, tally)
            passes.walls.append(time.perf_counter() - t0)
            passes.slowdowns.append(host.slowdown_since(first))
            if len(passes.walls) == 1:
                passes.first_pass_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    return passes


def describe(label, passes):
    """Median, pass count and the highest percentile with ten passes beyond it."""
    normalized = sorted(passes.normalized())
    n = len(normalized)
    line = (f"{label}: median {passes.wall_s():.4f} s over {n} passes (raw {statistics.median(passes.walls):.4f} s,"
            f" host slowdown {statistics.median(passes.slowdowns):.3f})")
    if n > 10:
        line += f", p{100 * (n - 10) / n:.0f} {normalized[n - 11]:.4f} s"
    else:
        line += ", too few passes for a tail percentile"
    print(line)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    checkout.require_src()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    operations = workloads.WORKLOADS[args.workload]()
    expected = workloads.load_expected()
    rng = random.Random(args.seed)
    tally = workloads.Tally()

    if args.trace:
        try:
            tracer = tracing.Tracer()
        except LookupError as exc:
            sys.exit(f"perfbench: {exc}")
        untraced = measure(operations, expected, rng, args.seconds, tally)
        with tracer:
            traced = measure(operations, expected, rng, args.seconds, tally, tracer)
        describe("untraced", untraced)
        describe("traced", traced)
        n = len(traced.walls)
        metrics = tracer.metrics(n)
        wall = statistics.fmean(traced.walls)
        metrics["trace.wall_s"] = (wall, "s")
        metrics["trace.outside_s"] = (wall - sum(tracer.self_s) / n, "s")
        metrics["trace.overhead_s"] = (traced.wall_s() - untraced.wall_s(), "s")
        checkout.OUT.mkdir(exist_ok=True)
        tracer.write_spans(checkout.OUT / f"spans-{args.workload}")
    else:
        setup = statistics.median(setup_times())
        print(f"setup_s: {SETUP_TRIES} tries, median {setup:.4f} s")
        passes = measure(operations, expected, rng, args.seconds, tally)
        describe("wall_s", passes)
        metrics = {
            "wall_s": (passes.wall_s(), "s"),
            "setup_s": (setup, "s"),
            "peak_rss_mb": (passes.first_pass_rss_mb, "MiB"),
        }

    for failure in tally.failures:
        print(f"FAILED {failure}")
    print(f"fail_ratio {tally.failed / tally.attempted} ({tally.failed} of {tally.attempted} operations)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
