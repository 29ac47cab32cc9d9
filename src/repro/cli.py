"""Command-line interface: ``pandia <subcommand>``.

Subcommands mirror the library's workflow:

* ``machines`` — list the machine catalog.
* ``workloads`` — list the workload catalog.
* ``describe-machine X5-2`` — run the stress applications and print the
  measured machine description.
* ``describe-workload X5-2 MD`` — run the six profiling runs and print
  the workload description.
* ``predict X5-2 MD --threads 16`` — predict performance for a
  placement (spread or packed shape at a given thread count).
* ``optimize X5-2 MD`` — search the canonical placements for the
  predicted-best and right-sized placements (``--strategy surrogate
  --surrogate-model m.json`` ranks the space with a learned pre-filter
  and exact-verifies only the top candidates).
* ``surrogate train --out m.json`` — fit the placement surrogate from
  catalog machines × workloads.
* ``experiment fig1 --scale quick`` — reproduce a paper artifact.
* ``profile trace.jsonl --svg flame.svg`` — hot paths, folded stacks
  and a flamegraph from a span log.
* ``dashboard X2-4 MD --out dash.html`` — run a short traced session
  and render the self-contained HTML ops dashboard.
* ``bench check`` / ``bench record`` — the benchmark-regression
  sentinel over the committed ``BENCH_*.json``.
* ``lint src/repro`` — statically check the codebase's determinism,
  golden-purity, pool-safety and observability contracts against the
  committed baseline (see ``docs/lint.md``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro import obs
from repro.analysis.tables import format_table
from repro.core.machine_desc import generate_machine_description
from repro.core.optimizer import best_placement, rightsize
from repro.core.placement import Placement
from repro.core.predictor import PandiaPredictor
from repro.core.sweep import packed_placement, spread_placement
from repro.core.workload_desc import WorkloadDescriptionGenerator
from repro.errors import ReproError
from repro.hardware import machines
from repro.sim.noise import NoiseModel
from repro.workloads import catalog


def _noise(args: argparse.Namespace) -> NoiseModel:
    return NoiseModel(sigma=args.noise)


def add_trace_flags(parser: argparse.ArgumentParser) -> None:
    """The shared ``--trace`` / ``--trace-out`` / ``--metrics`` options."""
    parser.add_argument(
        "--trace", action="store_true",
        help="collect repro.obs spans and metrics for this run",
    )
    parser.add_argument(
        "--trace-out", metavar="FILE",
        help="write the collected spans to FILE (implies --trace; "
             ".jsonl writes a span log, anything else a Chrome trace)",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="print the metrics summary at the end (implies --trace)",
    )


def setup_tracing(args: argparse.Namespace) -> bool:
    """Enable :mod:`repro.obs` if any tracing flag was given."""
    wanted = bool(
        getattr(args, "trace", False)
        or getattr(args, "trace_out", None)
        or getattr(args, "metrics", False)
    )
    if wanted:
        obs.enable()
    return wanted


def finish_tracing(args: argparse.Namespace, extra_metrics=None) -> None:
    """Write the requested trace file and/or metrics summary."""
    if not obs.enabled():
        return
    if extra_metrics is not None:
        obs.metrics().merge(extra_metrics)
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        from repro.obs.export import write_chrome_trace, write_spans_jsonl

        spans = obs.tracer().spans()
        if str(trace_out).endswith(".jsonl"):
            write_spans_jsonl(trace_out, spans)
        else:
            write_chrome_trace(trace_out, spans)
        print(f"wrote {len(spans)} spans to {trace_out}")
    if getattr(args, "metrics", False):
        print(obs.metrics().summary())


def _descriptions(args: argparse.Namespace):
    machine = machines.get(args.machine)
    noise = _noise(args)
    md = generate_machine_description(machine, noise=noise)
    generator = WorkloadDescriptionGenerator(machine, md, noise=noise)
    wd = generator.generate(catalog.get(args.workload))
    return machine, md, wd


def cmd_machines(_args: argparse.Namespace) -> int:
    rows = []
    for name in machines.names():
        spec = machines.get(name)
        topo = spec.topology
        rows.append(
            [
                name,
                topo.n_sockets,
                topo.cores_per_socket,
                topo.n_hw_threads,
                spec.description,
            ]
        )
    print(format_table(["machine", "sockets", "cores/socket", "hw threads", "description"], rows))
    return 0


def cmd_workloads(_args: argparse.Namespace) -> int:
    rows = [
        [w.name, w.description]
        for w in catalog.evaluation_set() + catalog.SPECIALS
    ]
    print(format_table(["workload", "description"], rows))
    return 0


def cmd_describe_machine(args: argparse.Namespace) -> int:
    machine = machines.get(args.machine)
    md = generate_machine_description(machine, noise=_noise(args))
    print(md.summary())
    return 0


def cmd_describe_workload(args: argparse.Namespace) -> int:
    _, _, wd = _descriptions(args)
    print(wd.summary())
    print(f"  profiling cost: {wd.profiling_cost_s:.1f} s of runs")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    machine, md, wd = _descriptions(args)
    topo = machine.topology
    if args.threads < 1 or args.threads > topo.n_hw_threads:
        raise ReproError(
            f"thread count must be 1..{topo.n_hw_threads} for {machine.name}"
        )
    builder = packed_placement if args.packed else spread_placement
    placement = builder(topo, args.threads)
    prediction = PandiaPredictor(md).predict(wd, placement)
    print(placement)
    print(f"predicted speedup over one thread: {prediction.speedup:.2f}")
    print(f"predicted time: {prediction.predicted_time_s:.3f} s (t1 = {wd.t1:.3f} s)")
    print(f"worst thread slowdown: {max(prediction.slowdowns):.2f}")
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    from repro.search import (
        ExhaustiveStrategy,
        GreedyHillClimbStrategy,
        SearchEngine,
        SurrogateStrategy,
        SweepStrategy,
    )

    setup_tracing(args)
    machine, md, wd = _descriptions(args)
    predictor = PandiaPredictor(md)
    if args.strategy == "sweep":
        strategy = SweepStrategy()
    elif args.strategy == "greedy":
        strategy = GreedyHillClimbStrategy()
    elif args.strategy == "surrogate":
        if not args.surrogate_model:
            raise ReproError(
                f"--strategy surrogate for {args.machine} {args.workload} "
                "needs --surrogate-model (train one with: pandia surrogate train)"
            )
        strategy = SurrogateStrategy(
            model_path=args.surrogate_model,
            sample=args.max_placements,
            seed=0,
        )
    else:
        strategy = ExhaustiveStrategy(sample=args.max_placements, seed=0)
    store = None
    if args.store:
        from repro.io import PredictionStore

        store = PredictionStore(args.store)
    with SearchEngine(predictor, store=store) as engine:
        result = engine.search(wd, strategy)
        placements = [r.placement for r in result.ranked]  # all cache hits below
        best, best_pred = result.best_placement, result.best_prediction
        small, small_pred = rightsize(
            predictor, wd, placements, tolerance=args.tolerance, engine=engine
        )
        print(f"best predicted: {best}")
        print(f"  speedup {best_pred.speedup:.2f}, time {best_pred.predicted_time_s:.3f} s")
        print(f"right-sized (within {args.tolerance:.0%}): {small}")
        print(f"  speedup {small_pred.speedup:.2f}, time {small_pred.predicted_time_s:.3f} s")
        fallback = getattr(strategy, "fallback_reason", None)
        if fallback:
            print(f"surrogate fell back to exact search: {fallback}")
        if args.stats:
            print(engine.stats.summary())
        # Fold the engine's search.* counters into the global registry so
        # --metrics reports search activity alongside predictor telemetry.
        finish_tracing(args, extra_metrics=engine.stats.metrics)
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments.run_all import main as run_all_main

    forwarded = list(args.ids) + ["--scale", args.scale]
    if args.html:
        forwarded += ["--html", args.html]
    if args.trace:
        forwarded += ["--trace"]
    if args.trace_out:
        forwarded += ["--trace-out", args.trace_out]
    if args.metrics:
        forwarded += ["--metrics"]
    return run_all_main(forwarded)


def cmd_coschedule(args: argparse.Namespace) -> int:
    """Predict two or more workloads co-running, split across sockets."""
    from repro.core.coscheduling import CoSchedulePredictor, CoScheduledWorkload
    from repro.core.placement import Placement

    machine = machines.get(args.machine)
    noise = _noise(args)
    md = generate_machine_description(machine, noise=noise)
    generator = WorkloadDescriptionGenerator(machine, md, noise=noise)
    topo = machine.topology
    if len(args.workloads) > topo.n_sockets:
        raise ReproError(
            f"coschedule splits by socket: at most {topo.n_sockets} workloads "
            f"on {machine.name}"
        )
    jobs = []
    for i, name in enumerate(args.workloads):
        description = generator.generate(catalog.get(name))
        tids = tuple(
            topo.core(c).hw_thread_ids[0] for c in topo.socket(i).core_ids
        )
        jobs.append(CoScheduledWorkload(description, Placement(topo, tids)))
    joint = CoSchedulePredictor(md).predict(jobs)
    rows = [
        [o.workload_name, f"socket {i}", o.speedup, o.predicted_time_s]
        for i, o in enumerate(joint.outcomes)
    ]
    print(format_table(["workload", "placement", "speedup", "predicted time (s)"], rows))
    utilisation = {
        k: joint.resource_loads[k] / joint.resource_capacities[k]
        for k in joint.resource_loads
    }
    worst = max(utilisation, key=utilisation.get)
    print(f"predicted bottleneck: {worst} at {utilisation[worst]:.0%} of capacity")
    return 0


def cmd_rack(args: argparse.Namespace) -> int:
    """Schedule a batch of workloads onto N identical machines."""
    from repro.rack import Rack, RackMachine, RackScheduler, validate_schedule

    machine = machines.get(args.machine)
    noise = _noise(args)
    md = generate_machine_description(machine, noise=noise)
    rack = Rack(
        machines=tuple(
            RackMachine(f"node-{i}", machine, md) for i in range(args.nodes)
        )
    )
    generator = WorkloadDescriptionGenerator(machine, md, noise=noise)
    descriptions = [generator.generate(catalog.get(n)) for n in args.workloads]
    schedule = RackScheduler(rack).schedule(descriptions)
    print(schedule.summary())
    if args.validate:
        specs = {n: catalog.get(n) for n in args.workloads}
        validation = validate_schedule(schedule, specs, noise=noise)
        print(
            f"measured makespan: {validation.measured_makespan_s:.2f}s "
            f"({validation.makespan_error_percent:.1f}% prediction error)"
        )
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """Explain the prediction for one placement."""
    from repro.analysis.explain import explain
    from repro.core.predictor import PandiaPredictor

    machine, md, wd = _descriptions(args)
    topo = machine.topology
    builder = packed_placement if args.packed else spread_placement
    placement = builder(topo, args.threads)
    prediction = PandiaPredictor(md).predict(wd, placement, keep_trace=True)
    print(explain(prediction))
    return 0


def cmd_timeline(args: argparse.Namespace) -> int:
    """Queued execution of a workload batch on an N-node rack."""
    from repro.rack import Rack, RackMachine, TimelineScheduler, WorkloadRequest

    machine = machines.get(args.machine)
    noise = _noise(args)
    md = generate_machine_description(machine, noise=noise)
    rack = Rack(
        machines=tuple(
            RackMachine(f"node-{i}", machine, md) for i in range(args.nodes)
        )
    )
    generator = WorkloadDescriptionGenerator(machine, md, noise=noise)
    requests = []
    for i, name in enumerate(args.workloads):
        description = generator.generate(catalog.get(name))
        requests.append(
            WorkloadRequest(description, arrival_s=i * args.stagger)
        )
    timeline = TimelineScheduler(rack).run(requests)
    print(timeline.gantt())
    print(
        f"makespan {timeline.makespan_s:.2f}s, "
        f"mean queueing delay {timeline.mean_queueing_delay_s:.2f}s"
    )
    return 0


def cmd_online(args: argparse.Namespace) -> int:
    """Event-driven arrival stream on an N-node rack."""
    import json as json_module

    from repro.online import (
        OnlineScheduler,
        diurnal_trace,
        policy_names,
        poisson_trace,
    )
    from repro.rack import Rack, RackMachine

    setup_tracing(args)
    machine = machines.get(args.machine)
    noise = _noise(args)
    md = generate_machine_description(machine, noise=noise)
    rack = Rack(
        machines=tuple(
            RackMachine(f"node-{i}", machine, md) for i in range(args.nodes)
        )
    )
    generator = WorkloadDescriptionGenerator(machine, md, noise=noise)
    pool = [generator.generate(catalog.get(n)) for n in args.workloads]
    if args.pattern == "diurnal":
        trace = diurnal_trace(
            pool, n_jobs=args.jobs, mean_rate_per_s=args.rate,
            period_s=args.period, seed=args.seed,
        )
    else:
        trace = poisson_trace(
            pool, n_jobs=args.jobs, rate_per_s=args.rate, seed=args.seed
        )
    if args.policy not in policy_names():
        raise ReproError(
            f"unknown policy {args.policy!r}; known: {', '.join(policy_names())}"
        )
    store = None
    if args.store:
        from repro.io import PredictionStore

        store = PredictionStore(args.store)
    scheduler = OnlineScheduler(
        rack, policy=args.policy, migrate=args.migrate,
        hysteresis=args.hysteresis, store=store,
        surrogate=args.surrogate_model,
    )
    recorder = None
    if args.dashboard_out:
        from repro.obs.metrics import Metrics
        from repro.obs.timeseries import TimeSeriesRecorder

        recorder = TimeSeriesRecorder(Metrics(), interval_s=args.sample_window)
    result = scheduler.run(trace, recorder=recorder)
    print(result.summary())
    print(result.stats.summary())
    if args.dashboard_out:
        from repro.obs.dashboard import write_dashboard

        write_dashboard(
            args.dashboard_out,
            title=f"Pandia online session — {args.machine} x{args.nodes}",
            metrics=result.stats.metrics,
            recorder=recorder,
            spans=obs.tracer().spans() if obs.enabled() else None,
            note=(
                f"{args.jobs} jobs, {args.pattern} arrivals at "
                f"{args.rate}/s, policy {args.policy}, seed {args.seed}"
            ),
        )
        print(f"wrote dashboard to {args.dashboard_out}")
    if args.json:
        record = {
            "machine": args.machine,
            "nodes": args.nodes,
            "pattern": args.pattern,
            "policy": args.policy,
            "seed": args.seed,
            "n_jobs": args.jobs,
            "rate_per_s": args.rate,
            "mean_slowdown": result.mean_slowdown,
            "p95_slowdown": result.p95_slowdown,
            "utilisation": result.utilisation,
            "makespan_s": result.makespan_s,
            "decisions_per_s": result.decisions_per_s,
            "decisions_per_sim_day": result.decisions_per_sim_day,
            "stats": result.stats.metrics.data(),
        }
        with open(args.json, "w") as fh:
            json_module.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote run record to {args.json}")
    finish_tracing(args, extra_metrics=result.stats.metrics)
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Analyse a span log offline: hot paths, flamegraph, folded stacks."""
    from repro.obs.export import read_spans_jsonl
    from repro.obs.profile import flamegraph_svg, folded_stacks, hot_table

    spans = read_spans_jsonl(args.spans)
    if not spans:
        print(f"no spans in {args.spans}")
        return 1
    rows = [
        [name, count, f"{total_ms:.2f}", f"{self_ms:.2f}", f"{pct:.1f}%"]
        for name, count, total_ms, self_ms, pct in hot_table(spans, top=args.top)
    ]
    print(format_table(["span", "count", "total ms", "self ms", "% of wall"], rows))
    if args.svg:
        with open(args.svg, "w") as handle:
            handle.write(flamegraph_svg(spans))
        print(f"wrote flamegraph to {args.svg}")
    if args.folded:
        with open(args.folded, "w") as handle:
            for path, self_us in folded_stacks(spans):
                handle.write(f"{path} {self_us}\n")
        print(f"wrote folded stacks to {args.folded}")
    return 0


def cmd_dashboard(args: argparse.Namespace) -> int:
    """Run a short traced session and render the standalone HTML dashboard."""
    from repro.obs.dashboard import write_dashboard
    from repro.obs.metrics import Metrics
    from repro.obs.timeseries import TimeSeriesRecorder
    from repro.online import OnlineScheduler, poisson_trace
    from repro.rack import Rack, RackMachine
    from repro.search import ExhaustiveStrategy, SearchEngine

    obs.reset()
    obs.enable()
    registry = obs.metrics()
    wall = TimeSeriesRecorder(registry, interval_s=args.interval)
    sim = TimeSeriesRecorder(Metrics(), interval_s=args.sample_window)
    machine = machines.get(args.machine)
    noise = _noise(args)
    wall.start()
    # Everything traced nests under this one span, so the flamegraph
    # root *is* the session: root width == run wall time, exactly.
    with obs.span("dashboard.session", machine=args.machine):
        md = generate_machine_description(machine, noise=noise)
        generator = WorkloadDescriptionGenerator(machine, md, noise=noise)
        pool = [generator.generate(catalog.get(n)) for n in args.workloads]
        predictor = PandiaPredictor(md)
        with SearchEngine(predictor) as engine:
            for wd in pool:
                engine.search(
                    wd, ExhaustiveStrategy(sample=args.max_placements, seed=0)
                )
            registry.merge(engine.stats.metrics.data())
        rack = Rack(
            machines=tuple(
                RackMachine(f"node-{i}", machine, md) for i in range(args.nodes)
            )
        )
        trace = poisson_trace(
            pool, n_jobs=args.jobs, rate_per_s=args.rate, seed=args.seed
        )
        result = OnlineScheduler(rack).run(trace, recorder=sim)
        registry.merge(result.stats.metrics.data())
    wall.stop()
    spans = obs.tracer().spans()
    series = {**wall.data(), **sim.data()}
    out = write_dashboard(
        args.out,
        title=f"Pandia ops dashboard — {args.machine}",
        metrics=registry,
        recorder=series,
        spans=spans,
        note=(
            f"{len(pool)} workload(s) optimised + {args.jobs}-job online "
            f"session on {args.nodes} node(s); policy predicted-slowdown"
        ),
    )
    print(
        f"wrote dashboard to {out} "
        f"({len(spans)} spans, {len(series)} series)"
    )
    return 0


def cmd_bench_check(args: argparse.Namespace) -> int:
    """Fail (exit 1) when a headline metric regressed vs. the history."""
    from repro.obs import bench

    report = bench.check(root=args.root, history_path=args.history)
    if args.json:
        print(report.to_json())
    else:
        print(report.summary())
    return 0 if report.ok else 1


def cmd_bench_record(args: argparse.Namespace) -> int:
    """Append the current headline values to ``BENCH_HISTORY.jsonl``."""
    from pathlib import Path

    from repro.obs import bench

    values = bench.read_headline_values(args.root)
    if not any(v is not None for v in values.values()):
        raise ReproError(
            f"no BENCH_*.json headline values found under {args.root!r}; "
            f"nothing to record"
        )
    history = (
        Path(args.history) if args.history
        else Path(args.root) / bench.HISTORY_FILE
    )
    entry = bench.append_history(history, values, label=args.label)
    print(
        f"recorded {len(entry['metrics'])} headline metric(s) as "
        f"{entry['label']!r} in {history}"
    )
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    """Measured-vs-predicted evaluation for one workload."""
    from repro.analysis.evaluation import evaluate_workload
    from repro.core.placement import sample_canonical
    from repro.core.predictor import PandiaPredictor

    machine, md, wd = _descriptions(args)
    spec = catalog.get(args.workload)
    placements = sample_canonical(machine.topology, args.max_placements, seed=0)
    evaluation = evaluate_workload(
        machine, spec, wd, PandiaPredictor(md), placements, noise=_noise(args)
    )
    summary = evaluation.errors()
    print(f"{args.workload} on {machine.name}: {len(placements)} placements")
    print(f"  {summary.row()}")
    print(f"  rank correlation: {evaluation.rank_correlation():.3f}")
    print(f"  top-10 overlap:   {evaluation.top_k_overlap(10):.0%}")
    print(f"  placement regret: {evaluation.placement_regret_percent():.2f}%")
    print(
        f"  peak threads: measured {evaluation.peak_measured_threads()}, "
        f"predicted {evaluation.best_predicted_placement().n_threads}"
    )
    if args.svg:
        from repro.analysis.report import evaluation_figure

        with open(args.svg, "w") as handle:
            handle.write(evaluation_figure(evaluation))
        print(f"  wrote scatter to {args.svg}")
    return 0


def cmd_surrogate_train(args: argparse.Namespace) -> int:
    """Train the placement surrogate from catalog machines × workloads."""
    from repro.io.surrogate import save_surrogate
    from repro.surrogate import train_surrogate

    model = train_surrogate(
        args.machines,
        args.workloads,
        kind=args.kind,
        sample=args.sample,
        seed=args.seed,
        noise=_noise(args),
    )
    save_surrogate(model, args.out)
    meta = model.meta
    print(
        f"trained {model.kind} surrogate on {meta['n_samples']} placements "
        f"({', '.join(args.machines)} x {', '.join(args.workloads)})"
    )
    print(f"  train R^2: {model.train_r2:.4f}")
    print(f"wrote model to {args.out}")
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    """Fit a workload spec to observed (threads, seconds) timings."""
    from repro.fit import Observation, fit_workload_spec

    machine = machines.get(args.machine)
    observations = []
    for pair in args.observations:
        try:
            threads, seconds = pair.split(":")
            observations.append(Observation(int(threads), float(seconds)))
        except ValueError:
            raise ReproError(
                f"bad observation {pair!r}; expected THREADS:SECONDS"
            ) from None
    result = fit_workload_spec(machine, observations)
    print(result.table())
    print(f"rms relative error: {result.rms_relative_error:.2%}")
    spec = result.spec
    print(
        f"fitted: cpi={spec.cpi:.3f} dram_bpi={spec.dram_bpi:.2f} "
        f"p={spec.parallel_fraction:.4f} comm={spec.comm_fraction:.4f} "
        f"l={spec.load_balance:.2f} work={spec.work_ginstr:.1f}G"
    )
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import (
        Baseline,
        format_json,
        format_text,
        run_lint,
    )

    setup_tracing(args)
    select = None
    if args.select:
        select = [part for chunk in args.select for part in chunk.split(",")]
    baseline = None
    if not args.no_baseline:
        baseline = Baseline.load(args.baseline)
    report = run_lint(args.paths, select=select, baseline=baseline)
    finish_tracing(args)
    if args.write_baseline:
        # Regenerate from everything currently found: adds the new
        # findings deliberately and drops the expired entries.
        Baseline.from_findings(report.new + report.baselined).save(args.baseline)
        print(
            f"wrote {args.baseline}: {len(report.new) + len(report.baselined)} "
            f"accepted finding(s), {len(report.expired)} expired entr"
            f"{'y' if len(report.expired) == 1 else 'ies'} dropped"
        )
        return 0
    if args.format == "json":
        print(format_json(report))
    else:
        print(format_text(report, verbose_baselined=args.show_baselined))
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pandia",
        description="Pandia: contention-sensitive thread placement (EuroSys 2017 reproduction)",
    )
    parser.add_argument(
        "--noise", type=float, default=0.015,
        help="measurement noise half-width (default 0.015)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("machines", help="list the machine catalog").set_defaults(
        func=cmd_machines
    )
    sub.add_parser("workloads", help="list the workload catalog").set_defaults(
        func=cmd_workloads
    )

    p = sub.add_parser("describe-machine", help="measure a machine with stressors")
    p.add_argument("machine")
    p.set_defaults(func=cmd_describe_machine)

    p = sub.add_parser("describe-workload", help="run the six profiling runs")
    p.add_argument("machine")
    p.add_argument("workload")
    p.set_defaults(func=cmd_describe_workload)

    p = sub.add_parser("predict", help="predict performance for a placement")
    p.add_argument("machine")
    p.add_argument("workload")
    p.add_argument("--threads", type=int, required=True)
    p.add_argument("--packed", action="store_true", help="pack threads (default: spread)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("optimize", help="find the best and right-sized placements")
    p.add_argument("machine")
    p.add_argument("workload")
    p.add_argument("--max-placements", type=int, default=400)
    p.add_argument("--tolerance", type=float, default=0.05)
    p.add_argument(
        "--strategy",
        choices=("exhaustive", "sweep", "greedy", "surrogate"),
        default="exhaustive",
        help="placement-search strategy (default: exhaustive sample)",
    )
    p.add_argument("--surrogate-model", metavar="PATH",
                   help="trained surrogate model for --strategy surrogate "
                        "(see: pandia surrogate train)")
    p.add_argument("--stats", action="store_true",
                   help="print search-engine cache/dedup statistics")
    p.add_argument("--store", metavar="DIR",
                   help="persist predictions under DIR and reuse them on "
                        "later runs (reported as store hits in --stats)")
    add_trace_flags(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("experiment", help="reproduce paper artifacts")
    p.add_argument("ids", nargs="*")
    p.add_argument("--scale", choices=("quick", "default", "full"), default="default")
    p.add_argument("--html", help="write a standalone HTML report")
    add_trace_flags(p)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser(
        "coschedule", help="predict workloads co-running, one per socket"
    )
    p.add_argument("machine")
    p.add_argument("workloads", nargs="+")
    p.set_defaults(func=cmd_coschedule)

    p = sub.add_parser("rack", help="schedule a batch onto N identical machines")
    p.add_argument("machine")
    p.add_argument("workloads", nargs="+")
    p.add_argument("--nodes", type=int, default=2)
    p.add_argument("--validate", action="store_true",
                   help="co-run the schedule and report the measured makespan")
    p.set_defaults(func=cmd_rack)

    p = sub.add_parser("explain", help="explain the prediction for one placement")
    p.add_argument("machine")
    p.add_argument("workload")
    p.add_argument("--threads", type=int, required=True)
    p.add_argument("--packed", action="store_true")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser(
        "fit", help="fit a workload spec to observed THREADS:SECONDS timings"
    )
    p.add_argument("machine")
    p.add_argument("observations", nargs="+", metavar="THREADS:SECONDS")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser(
        "timeline", help="queued execution of a batch on an N-node rack"
    )
    p.add_argument("machine")
    p.add_argument("workloads", nargs="+")
    p.add_argument("--nodes", type=int, default=2)
    p.add_argument("--stagger", type=float, default=0.0,
                   help="seconds between workload arrivals")
    p.set_defaults(func=cmd_timeline)

    p = sub.add_parser(
        "online", help="event-driven arrival stream on an N-node rack"
    )
    p.add_argument("machine")
    p.add_argument("workloads", nargs="+",
                   help="catalog workloads sampled by the trace generator")
    p.add_argument("--nodes", type=int, default=2)
    p.add_argument("--jobs", type=int, default=50, help="trace length")
    p.add_argument("--rate", type=float, default=0.5,
                   help="(mean) arrival rate, jobs/s")
    p.add_argument("--pattern", choices=("poisson", "diurnal"),
                   default="poisson", help="arrival process")
    p.add_argument("--period", type=float, default=86400.0,
                   help="diurnal period in seconds")
    p.add_argument("--policy", default="predicted-slowdown",
                   help="placement policy (see repro.online.policy_names)")
    p.add_argument("--seed", type=int, default=0, help="trace seed")
    p.add_argument("--migrate", action="store_true",
                   help="re-auction the laggard after each departure")
    p.add_argument("--hysteresis", type=float, default=0.1,
                   help="minimum relative makespan gain to migrate")
    p.add_argument("--json", metavar="PATH",
                   help="write the run record to PATH")
    p.add_argument("--store", metavar="DIR",
                   help="persist joint predictions under DIR and reuse them "
                        "across runs (identical results, fewer predictions)")
    p.add_argument("--surrogate-model", metavar="PATH",
                   help="surrogate model used to pre-filter solo estimates "
                        "(estimates stay exact-verified)")
    p.add_argument("--dashboard-out", metavar="FILE",
                   help="render the standalone HTML ops dashboard for this "
                        "run (time series sampled on the simulated clock)")
    p.add_argument("--sample-window", type=float, default=60.0,
                   help="simulated seconds per time-series sample window")
    add_trace_flags(p)
    p.set_defaults(func=cmd_online)

    p = sub.add_parser(
        "surrogate", help="train and manage the placement surrogate"
    )
    surrogate_sub = p.add_subparsers(dest="surrogate_command", required=True)
    p = surrogate_sub.add_parser(
        "train", help="fit the surrogate from catalog machines x workloads"
    )
    from repro.surrogate import DEFAULT_TRAIN_MACHINES, DEFAULT_TRAIN_WORKLOADS

    p.add_argument("--machines", nargs="+", default=list(DEFAULT_TRAIN_MACHINES),
                   help="catalog machines to measure training placements on")
    p.add_argument("--workloads", nargs="+", default=list(DEFAULT_TRAIN_WORKLOADS),
                   help="catalog workloads to train against")
    p.add_argument("--kind", choices=("ridge", "stumps"), default="ridge",
                   help="model family (default: ridge)")
    p.add_argument("--sample", type=int, default=300,
                   help="canonical placements sampled per machine")
    p.add_argument("--seed", type=int, default=0, help="placement-sample seed")
    p.add_argument("--out", required=True, metavar="PATH",
                   help="write the trained model to PATH (JSON)")
    p.set_defaults(func=cmd_surrogate_train)

    p = sub.add_parser(
        "lint",
        help="statically check determinism/golden/obs/error invariants",
    )
    p.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    p.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (json is the CI artifact contract)",
    )
    p.add_argument(
        "--select", action="append", metavar="RULES",
        help="comma-separated rule ids to run (default: all); repeatable",
    )
    p.add_argument(
        "--baseline", metavar="FILE", default="lint-baseline.json",
        help="accepted-findings file (default: lint-baseline.json; "
             "missing file = empty baseline)",
    )
    p.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline: report every finding as new",
    )
    p.add_argument(
        "--write-baseline", action="store_true",
        help="regenerate the baseline from the current findings and exit 0",
    )
    p.add_argument(
        "--show-baselined", action="store_true",
        help="also list accepted (baselined) findings in the text report",
    )
    add_trace_flags(p)
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "profile", help="analyse a span log: hot paths, flamegraph"
    )
    p.add_argument("spans", metavar="SPANS.jsonl",
                   help="span log written by --trace-out FILE.jsonl")
    p.add_argument("--top", type=int, default=15,
                   help="hot-path rows to print (default 15)")
    p.add_argument("--svg", metavar="FILE",
                   help="write a standalone SVG flamegraph")
    p.add_argument("--folded", metavar="FILE",
                   help="write collapsed folded-stack lines (self time, us)")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "dashboard",
        help="run a short traced session and render the HTML ops dashboard",
    )
    p.add_argument("machine")
    p.add_argument("workloads", nargs="+",
                   help="catalog workloads to optimise and stream online")
    p.add_argument("--out", required=True, metavar="FILE",
                   help="write the self-contained HTML page here")
    p.add_argument("--nodes", type=int, default=2)
    p.add_argument("--jobs", type=int, default=30,
                   help="online-session trace length")
    p.add_argument("--rate", type=float, default=0.5,
                   help="online arrival rate, jobs/s")
    p.add_argument("--seed", type=int, default=0, help="trace seed")
    p.add_argument("--max-placements", type=int, default=120,
                   help="placements sampled by the optimize pass")
    p.add_argument("--interval", type=float, default=0.2,
                   help="wall-clock sampling interval, seconds")
    p.add_argument("--sample-window", type=float, default=60.0,
                   help="simulated seconds per online sample window")
    p.set_defaults(func=cmd_dashboard)

    p = sub.add_parser(
        "bench", help="benchmark-regression sentinel over BENCH_*.json"
    )
    bench_sub = p.add_subparsers(dest="bench_command", required=True)
    p = bench_sub.add_parser(
        "check",
        help="fail if a headline metric regressed vs BENCH_HISTORY.jsonl",
    )
    p.add_argument("--root", default=".",
                   help="directory holding BENCH_*.json (default: .)")
    p.add_argument("--history", metavar="FILE",
                   help="history file (default: ROOT/BENCH_HISTORY.jsonl)")
    p.add_argument("--json", action="store_true",
                   help="print the machine-readable JSON report")
    p.set_defaults(func=cmd_bench_check)
    p = bench_sub.add_parser(
        "record", help="append current headline values to the history"
    )
    p.add_argument("--root", default=".",
                   help="directory holding BENCH_*.json (default: .)")
    p.add_argument("--history", metavar="FILE",
                   help="history file (default: ROOT/BENCH_HISTORY.jsonl)")
    p.add_argument("--label", default="",
                   help="history entry label (default: run-N)")
    p.set_defaults(func=cmd_bench_record)

    p = sub.add_parser(
        "evaluate", help="measured-vs-predicted evaluation for one workload"
    )
    p.add_argument("machine")
    p.add_argument("workload")
    p.add_argument("--max-placements", type=int, default=200)
    p.add_argument("--svg", help="write the scatter figure to this SVG file")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
