"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload online --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation:
the workload is set up several times (``setup_s`` is the median) and
then driven in whole passes over its operations until ``--seconds``
have passed; each cycle counts with its median over the passes.  Every
time is brought to a nominal host with the reference kernel of
``reference.py``, timed between the cycles; the times as measured are
printed alongside.
``--trace 1`` makes that same untraced run, then sets up once more and
replays ``TRACED_PASSES`` passes with every layer wrapped (see
``layers.py``), checks that every answer matches the untraced run, and
reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the provenance record.  See ``README.md`` for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Fewest set-ups per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Fewest seconds of set-ups per untraced run: a cheap set-up is
#: repeated until its samples add up to this.
SETUP_TOTAL_S = 1.0
#: Seconds of set-ups made after each pass, at least one set-up.
SETUP_BATCH_S = 0.25
#: Fewest passes of an untraced run: each cycle's median time is taken
#: over at least this many repetitions.
MIN_PASSES = 3
#: Passes of the traced run.
TRACED_PASSES = 2


def _percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args: argparse.Namespace) -> Dict[str, object]:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "small": args.small,
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
    }


class Gauge:
    """Times the reference kernel between pieces of work (see
    ``reference.py``)."""

    def __init__(self, reference) -> None:
        self.reference = reference
        gc.collect()
        self.last = reference.measure()
        self.samples = [self.last]

    def around(self) -> Tuple[float, float]:
        """The kernel's times just before and just after the work done
        since the previous call."""
        gc.collect()
        now = self.reference.measure()
        self.samples.append(now)
        before, self.last = self.last, now
        return before, now

    def probe(self) -> float:
        """One more time of the kernel, taken inside a cycle."""
        now = self.reference.measure()
        self.samples.append(now)
        return now

    def scale(self, before: float, after: float) -> float:
        """The factor that brings work timed between two kernel times to
        the nominal host: ``NOMINAL_S`` over their geometric mean."""
        return self.reference.NOMINAL_S / math.sqrt(before * after)


def timed_setup(workload, seed: int, gauge: Gauge) -> Tuple[object, float, float]:
    """The workload's inputs, the wall time it took to make them, and
    that time on the nominal host."""
    gc.collect()
    start = perf_counter()
    inputs = workload.setup(seed)
    wall = perf_counter() - start
    return inputs, wall, wall * gauge.scale(*gauge.around())


class Passes:
    """What a run of whole passes measured.

    A pass runs each of the workload's distinct cycles once, in a fixed
    order, so every cycle is repeated once per pass.  A cycle's wall and
    each of its operation latencies are brought to the nominal host by
    the reference kernel timed around the cycle, and count with their
    median over the repetitions: the host's speed wanders by tens of
    percent over seconds, and a median over repetitions of the same work
    is steadier than one over a stream of different work or than the
    fastest repetition.
    """

    def __init__(self, n_ops: int) -> None:
        self.first: List = [None] * n_ops  # each cycle's first repetition
        self.walls: List[List[float]] = [[] for _ in range(n_ops)]  # nominal
        self.raw_walls: List[List[float]] = [[] for _ in range(n_ops)]
        self.latencies: List[List[List[float]]] = [[] for _ in range(n_ops)]  # nominal
        self.raw_latencies: List[List[List[float]]] = [[] for _ in range(n_ops)]
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.wall_s = 0.0  # timed wall of every cycle, checks included

    def record(self, k: int, cycle, scales: List[float]) -> None:
        """Keep cycle *k*'s times, each segment's multiplied by its entry
        of *scales* to bring it to the nominal host; a repetition whose
        answer differs from the first fails all of its operations."""
        first = self.first[k]
        if first is None:
            self.first[k] = cycle
        else:
            cycle.payload = None
            if cycle.answer != first.answer or (
                len(cycle.latencies_ms) != len(first.latencies_ms)
            ):
                self.failed += cycle.attempted
                return
        segments = cycle.segments or [(cycle.wall_s, len(cycle.latencies_ms))]
        self.walls[k].append(sum(wall * f for (wall, _), f in zip(segments, scales)))
        self.raw_walls[k].append(cycle.wall_s)
        latencies, first_op = [], 0
        for (_, n_ops), f in zip(segments, scales):
            latencies += [ms * f for ms in cycle.latencies_ms[first_op:first_op + n_ops]]
            first_op += n_ops
        self.latencies[k].append(latencies)
        self.raw_latencies[k].append(cycle.latencies_ms)

    def median_walls(self, raw: bool = False) -> List[float]:
        return [statistics.median(walls) for walls in (self.raw_walls if raw else self.walls)]

    def median_latencies(self, raw: bool = False) -> List[float]:
        """Each operation's median latency over its cycle's repetitions."""
        return [
            statistics.median(samples)
            for reps in (self.raw_latencies if raw else self.latencies)
            for samples in zip(*reps)
        ]


def drive(workload, inputs, seconds: float, gauge: Gauge,
          n_passes: Optional[int] = None, tracer=None, resetup=None) -> Passes:
    """Run passes until *seconds* pass, or exactly *n_passes* passes.

    A timed run stops at the first cycle boundary after *seconds*, once
    at least ``MIN_PASSES`` whole passes ran, so every cycle has
    repetitions to take the median of.  Checks run after each cycle,
    outside its timed operations and with the tracer paused; the
    reference kernel runs after the checks.  Both count towards
    *seconds*.  ``resetup()``, if given, is called after each pass until
    it returns false; its time does not count towards *seconds*.
    """
    run = Passes(workload.ops_per_pass)
    # Probing inside cycles would add the kernel to the traced spans.
    workload.probe = gauge.probe if tracer is None else None
    while n_passes is None or run.passes < n_passes:
        for k in range(workload.ops_per_pass):
            if n_passes is None and run.passes >= MIN_PASSES and run.wall_s >= seconds:
                return run
            gc.collect()
            start = perf_counter()
            cycle = workload.cycle(inputs, k)
            with tracer.paused() if tracer is not None else nullcontext():
                run.failed += workload.check(inputs, cycle)
                before, after = gauge.around()
            run.wall_s += perf_counter() - start
            run.attempted += cycle.attempted
            kernel = [before, *cycle.probes, after]
            run.record(k, cycle, [gauge.scale(a, b) for a, b in zip(kernel, kernel[1:])])
        run.passes += 1
        if resetup is not None and not resetup():
            resetup = None
    return run


def end_to_end(setups: List[float], run: Passes,
               raw: bool = False) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics, on the nominal host unless *raw*."""
    units = sum(c.units for c in run.first)
    latencies = run.median_latencies(raw)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "ops_per_s": (units / sum(run.median_walls(raw)), "1/s"),
        "op_ms_p50": (_percentile(latencies, 0.50), "ms"),
        "op_ms_p90": (_percentile(latencies, 0.90), "ms"),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("online", "advise", "validate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure whole cycles until this many seconds pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="smallest inputs and one set-up (the benchmark's own test)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a full "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import workloads
    import layers
    import reference

    workload = workloads.WORKLOADS[args.workload](small=args.small)
    gauge = Gauge(reference)
    # Set-up samples are spread over the run (one before the loop, a
    # batch after each pass) so their median spans the host's slow
    # phases as well as its fast ones.
    inputs, first, first_nominal = timed_setup(workload, args.seed, gauge)
    setups, raw_setups = [first_nominal], [first]

    def resetup() -> bool:
        """One batch of set-ups if more are wanted; whether still more are."""
        def wanted() -> bool:
            return len(raw_setups) < SETUP_SAMPLES or sum(raw_setups) < SETUP_TOTAL_S

        batch = 0.0
        while wanted() and batch < SETUP_BATCH_S:
            _, wall, nominal = timed_setup(workload, args.seed, gauge)
            raw_setups.append(wall)
            setups.append(nominal)
            batch += wall
        return wanted()

    run = drive(workload, inputs, args.seconds, gauge,
                resetup=None if args.small else resetup)
    while not args.small and resetup():
        pass
    quality = workload.quality(run.first)
    for cycle in run.first:
        cycle.payload = None
    del inputs
    attempted, failed = run.attempted, run.failed

    if args.trace:
        # Traced passes, each cycle compared with its untraced answer.
        tracer = layers.LayerTracer(layers.targets(workloads))
        with tracer.installed():
            traced_inputs, setup_wall, _ = timed_setup(workload, args.seed, gauge)
            traced = drive(workload, traced_inputs, args.seconds, gauge,
                           n_passes=TRACED_PASSES, tracer=tracer)
        attempted += traced.attempted
        failed += traced.failed
        # The traced run must not change any answer.
        failed += sum(
            t.attempted for t, u in zip(traced.first, run.first) if t.answer != u.answer
        )
        loop_wall = sum(sum(walls) for walls in traced.raw_walls)
        overhead = loop_wall - TRACED_PASSES * sum(run.median_walls(raw=True))
        metrics = layers.layer_metrics(tracer, setup_wall, loop_wall, overhead)
        raw = {}
    else:
        metrics = end_to_end(setups, run)
        raw = end_to_end(raw_setups, run, raw=True)

    print(f"{args.workload}: seed {args.seed}, {run.passes} whole passes of "
          f"{workload.ops_per_pass} operations, "
          f"{attempted} operations attempted, {failed} failed")
    print(f"  reference kernel: median {1e3 * statistics.median(gauge.samples):.4g} ms "
          f"over {len(gauge.samples)} runs, nominal {1e3 * reference.NOMINAL_S:.4g} ms")
    for name, (value, unit) in quality.items():
        print(f"  answer {name} = {value:.6g} {unit}")
    for name, (value, unit) in metrics.items():
        line = f"  {name} = {value:.6g} {unit}"
        if name in raw and raw[name] != (value, unit):
            line += f" (as measured: {raw[name][0]:.6g})"
        print(line)
    print(json.dumps({"provenance": provenance(args)}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
