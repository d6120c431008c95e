"""Command-line interface: ``repro-pcmax`` (or ``python -m repro``).

Subcommands
-----------
``solve``
    Solve one instance (from ``--times`` or a generated family) with any
    algorithm in the library and print the schedule and makespan.
``generate``
    Print the processing times of a generated instance (for piping into
    other tools).
``figure``
    Regenerate one of the paper's figures (2, 3, 4, 5) at smoke or paper
    scale and print the panels.
``table``
    Regenerate Table I, II or III.
``bench-dp``
    Compare the DP engines (``table``, ``numpy``, ``config-ilp``) on one
    generated instance — handy for quick profiling.
``serve`` / ``submit``
    Run the asyncio scheduling service (``docs/service.md``) and submit
    requests to it over the JSON-lines protocol.  ``serve --store DIR``
    adds the durable result store and write-ahead journal
    (``docs/persistence.md``) with crash recovery on startup;
    ``serve --pool-workers N`` serves solves from a sharded pool of N
    worker processes (``docs/scaling.md``); ``submit --repeat N
    --concurrency C`` replays a request for throughput measurement.
``store``
    Operate on a store directory offline: ``stats``, ``verify``
    (checksum + schedule audit, quarantining corrupt segments),
    ``compact``, and ``replay`` (drain the journal's uncommitted
    entries without starting the server).
``qa``
    Differential fuzzing of the engine fleet (``docs/qa.md``): ``fuzz``
    draws seeded instances and checks the cross-engine, metamorphic and
    service-equivalence oracles, minimizing and persisting any failure;
    ``replay`` re-runs recorded repro files.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from repro.model.instance import Instance
from repro.model.problem import P_CMAX, Q_CMAX, available_problems, canonical_problem_name
from repro.model.qinstance import QInstance
from repro.parallel.cpus import resolve_workers
from repro.service.registry import (
    UnknownEngineError,
    available_engines,
    build_solve_context,
    get_engine,
)
from repro.service.requests import SolveRequest
from repro.workloads.families import FAMILIES, SPEED_FAMILIES
from repro.workloads.generator import make_instance, make_qinstance

#: Engine names come from the service registry — the single source of
#: truth shared with ``repro.service.server`` (dashes == underscores, so
#: the historical ``parallel-ptas`` spelling keeps working).
ALGORITHMS = available_engines()


def _problem_from_args(args: argparse.Namespace) -> str:
    return canonical_problem_name(getattr(args, "problem", P_CMAX))


def _speeds_from_args(args: argparse.Namespace) -> tuple[int, ...]:
    raw = getattr(args, "speeds", None)
    if not raw:
        return ()
    return tuple(int(x) for x in raw.split(","))


def _qinstance_from_args(args: argparse.Namespace) -> QInstance:
    speeds = _speeds_from_args(args)
    if args.times:
        if not speeds:
            raise SystemExit(
                "q_cmax needs machine speeds: pass --speeds S1,S2,... "
                "alongside --times"
            )
        times = [int(x) for x in args.times.split(",")]
        return QInstance(times, speeds)
    if args.family:
        return make_qinstance(
            args.family,
            args.machines,
            args.jobs,
            seed=args.seed,
            speeds=speeds or None,
            speed_family=getattr(args, "speed_family", None),
        )
    raise SystemExit("provide --times (with --speeds) or --family")


def _instance_from_args(args: argparse.Namespace) -> Instance | QInstance:
    if _problem_from_args(args) == Q_CMAX:
        return _qinstance_from_args(args)
    if getattr(args, "input", None):
        from repro.io.instances import read_instance

        return read_instance(args.input)
    if args.times:
        times = [int(x) for x in args.times.split(",")]
        return Instance(times, args.machines)
    if args.family:
        return make_instance(args.family, args.machines, args.jobs, seed=args.seed)
    raise SystemExit("provide --times, --family, or --input")


def _add_instance_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--times", help="comma-separated processing times")
    sub.add_argument(
        "--family", choices=sorted(FAMILIES), help="generated instance family"
    )
    sub.add_argument(
        "--input", help="read the instance from a .json/.csv/.txt file"
    )
    sub.add_argument("-m", "--machines", type=int, default=10)
    sub.add_argument("-n", "--jobs", type=int, default=30)
    sub.add_argument("--seed", type=int, default=0)


def _add_problem_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--problem",
        default=P_CMAX,
        help=f"problem variant (one of: {', '.join(available_problems())}; "
        "aliases like 'q'/'uniform' are accepted)",
    )
    sub.add_argument(
        "--speeds",
        help="q_cmax: comma-separated positive integer machine speeds "
        "(defines the machine count)",
    )
    sub.add_argument(
        "--speed-family",
        choices=sorted(SPEED_FAMILIES),
        help="q_cmax with --family: generate the speed vector from a "
        "named speed family instead of --speeds",
    )


def _workers_arg(value: str) -> int | str:
    """argparse type for ``--workers``: a positive int or ``auto``
    (cgroup-aware CPU detection, :mod:`repro.parallel.cpus`)."""
    if value.strip().lower() == "auto":
        return "auto"
    try:
        workers = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or 'auto', got {value!r}"
        ) from None
    if workers < 1:
        raise argparse.ArgumentTypeError(f"workers must be >= 1, got {workers}")
    return workers


def _pool_workers_arg(value: str) -> int | str:
    """argparse type for ``serve --pool-workers``: a non-negative int
    (0 = single-process service) or ``auto``."""
    if value.strip().lower() == "auto":
        return "auto"
    try:
        workers = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer or 'auto', got {value!r}"
        ) from None
    if workers < 0:
        raise argparse.ArgumentTypeError(
            f"pool workers must be >= 0, got {workers}"
        )
    return workers


def _solve_request_from_args(
    args: argparse.Namespace, inst: Instance | QInstance
) -> SolveRequest:
    is_q = isinstance(inst, QInstance)
    return SolveRequest(
        times=inst.processing_times,
        machines=inst.num_machines,
        problem=Q_CMAX if is_q else P_CMAX,
        speeds=inst.speeds if is_q else (),
        engine=args.algorithm,
        eps=args.eps,
        workers=args.workers,
        backend=args.backend,
        time_limit=args.time_limit,
        deadline=getattr(args, "deadline", None),
    )


def _build_trace_context(args: argparse.Namespace, request: SolveRequest):
    """Tracer + context for ``solve --trace`` (``(None, None)`` untraced)."""
    if not getattr(args, "trace", None):
        return None, None
    from repro.obs import SamplingProfiler, Tracer

    profiler = (
        SamplingProfiler(threshold=args.trace_profile)
        if getattr(args, "trace_profile", None) is not None
        else None
    )
    tracer = Tracer(profiler=profiler)
    return tracer, build_solve_context(request, tracer=tracer)


def _finish_trace(tracer, path: str) -> None:
    """Write the trace file and print the per-phase summary."""
    from repro.obs import save_trace

    save_trace(tracer, path)
    print(f"trace    : {path}")
    for kind, agg in sorted(
        tracer.phase_summary().items(), key=lambda kv: -kv[1]["seconds"]
    ):
        print(
            f"  phase {kind:11s} count={agg['count']:5d} "
            f"seconds={agg['seconds']:.4f}"
        )


def _cmd_solve(args: argparse.Namespace) -> int:
    try:
        inst = _instance_from_args(args)
        request = _solve_request_from_args(args, inst)
        spec = get_engine(args.algorithm, problem=request.problem)
        tracer, ctx = _build_trace_context(args, request)
        t0 = time.perf_counter()
        schedule = spec.solve(inst, request, ctx)
    except UnknownEngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - t0
    from repro.model.verify import verify_schedule

    report = verify_schedule(schedule, inst)
    print(f"instance : {inst}")
    print(f"problem  : {request.problem}")
    print(f"algorithm: {args.algorithm}")
    print(f"makespan : {schedule.makespan}")
    print(f"verified : {'ok' if report.ok else 'INVALID'}")
    print(f"time     : {elapsed:.4f}s")
    if not report.ok:
        for v in report.violations:
            print(f"  - {v}", file=sys.stderr)
        return 1
    if tracer is not None:
        _finish_trace(tracer, args.trace)
    if args.show_schedule:
        is_q = isinstance(inst, QInstance)
        completions = schedule.completion_times if is_q else None
        for i, grp in enumerate(schedule.assignment):
            load = sum(inst.processing_times[j] for j in grp)
            if is_q:
                print(
                    f"  machine {i:3d} (speed {inst.speeds[i]:3d}, "
                    f"load {load:6d}, completes {completions[i]:g}): "
                    f"jobs {list(grp)}"
                )
            else:
                print(f"  machine {i:3d} (load {load:6d}): jobs {list(grp)}")
    if args.gantt:
        from repro.model.gantt import render_gantt

        print(render_gantt(schedule))
    if args.output:
        from repro.io.schedules import write_schedule

        path = write_schedule(
            schedule, args.output, metadata={"algorithm": args.algorithm}
        )
        print(f"schedule written to {path}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    inst = make_instance(args.family, args.machines, args.jobs, seed=args.seed)
    print(",".join(str(t) for t in inst.processing_times))
    if args.output:
        from repro.io.instances import write_instance

        path = write_instance(
            inst, args.output, metadata={"family": args.family, "seed": args.seed}
        )
        print(f"instance written to {path}")
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    from repro.io.instances import read_instance, write_instance

    inst = read_instance(args.source)
    path = write_instance(inst, args.dest)
    print(f"converted {args.source} -> {path} ({inst})")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    if args.number == "1":
        from repro.core.depgraph import render_figure1
        from repro.experiments.tables import TABLE1_PROBLEM

        print(render_figure1(TABLE1_PROBLEM))
        return 0
    from repro.experiments import figures

    runner = {
        "2": figures.run_figure2,
        "3": figures.run_figure3,
        "4": figures.run_figure4,
        "5": figures.run_figure5,
    }[args.number]
    result = runner(scale=args.scale)
    print(result.render())
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.io.schedules import read_schedule
    from repro.model.verify import verify_schedule

    schedule = read_schedule(args.schedule)
    report = verify_schedule(schedule)
    if report.ok:
        print(
            f"OK: valid schedule, makespan {schedule.makespan}, "
            f"loads {schedule.machine_loads}"
        )
        return 0
    print(f"INVALID: {len(report.violations)} violation(s)")
    for v in report.violations:
        print(f"  - {v}")
    return 1


def _cmd_table(args: argparse.Namespace) -> int:
    from repro.experiments import tables

    if args.number == "1":
        print(tables.run_table1().render())
    elif args.number == "2":
        print(tables.run_table2(scale=args.scale).render())
    else:
        print(tables.run_table3(scale=args.scale).render())
    return 0


def _cmd_bench_dp(args: argparse.Namespace) -> int:
    from repro.core.bounds import makespan_bounds
    from repro.core.dp import SEQUENTIAL_ENGINES, DPProblem, solve
    from repro.core.rounding import accuracy_parameter, round_instance

    inst = _instance_from_args(args)
    k = accuracy_parameter(args.eps)
    target = makespan_bounds(inst).midpoint()
    rounded = round_instance(inst, target, k)
    problem = DPProblem(rounded.class_sizes, rounded.class_counts, target)
    print(
        f"T={target} classes={rounded.num_classes} long={rounded.num_long_jobs} "
        f"sigma={problem.table_size}"
    )
    for engine in SEQUENTIAL_ENGINES:
        t0 = time.perf_counter()
        res = solve(problem, engine, track_schedule=False, collect_stats=True)
        dt = time.perf_counter() - t0
        assert res.stats is not None
        print(
            f"  {engine:10s} opt={res.opt} time={dt:.4f}s "
            f"states={res.stats.states_computed} scans={res.stats.config_scans}"
        )
    from repro.service.metrics import MetricsRegistry, record_dp_cache

    cache_stats = record_dp_cache(MetricsRegistry())
    print(
        "config-cache: "
        f"hits={cache_stats['hits']} misses={cache_stats['misses']} "
        f"currsize={cache_stats['currsize']}/{cache_stats['maxsize']}"
    )
    return 0


def _recover_store_offline(store_dir: str, store_ttl: float | None) -> None:
    """Replay every journal in *store_dir* (the supervisor's and any
    worker's) before the service starts accepting traffic."""
    from repro.store import ResultStore, recover_all

    store = ResultStore(store_dir, ttl=store_ttl)
    try:
        report = recover_all(store, store_dir)
    finally:
        store.close()
    if report.entries:
        print(report.render(), flush=True)
        for line in report.aborted:
            print(f"  aborted: {line}", flush=True)


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.admission import AdmissionController
    from repro.service.server import SolveService, serve

    pool_workers = (
        resolve_workers(args.pool_workers)
        if args.pool_workers == "auto"
        else int(args.pool_workers)
    )
    if args.store:
        _recover_store_offline(args.store, args.store_ttl)
    # One front end; --pool-workers N >= 1 runs its solves in N sharded
    # worker processes (docs/scaling.md), 0 on in-process threads.
    service = SolveService(
        pool_workers,
        max_workers=resolve_workers(args.workers),
        admission=AdmissionController(max_queue_depth=args.queue_depth),
        default_deadline=args.default_deadline,
        store_root=args.store,
        store_ttl=args.store_ttl,
        cache_size=args.cache_size,
        cache_ttl=args.cache_ttl,
        archive_traces=args.archive_traces,
    )

    def ready(host: str, port: int) -> None:
        suffix = f" (pool: {pool_workers} workers)" if pool_workers >= 1 else ""
        print(f"repro service listening on {host}:{port}{suffix}", flush=True)

    try:
        asyncio.run(
            serve(
                args.host,
                args.port,
                service=service,
                log_interval=args.log_interval,
                on_ready=ready,
            )
        )
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_submit_repeat(args: argparse.Namespace) -> int:
    """``submit --repeat N [--concurrency C]``: replay N copies of the
    request (unique ``request_id``s, same instance) over C persistent
    connections, verify every returned schedule, and print throughput
    and latency percentiles.  A duplicate-heavy replay like this is the
    cheapest way to watch coalescing + shard caching work (expect one
    solve, N-1 cache hits in ``op=stats``)."""
    import asyncio
    import statistics

    from repro.model.verify import verify_schedule
    from repro.service.server import replay

    inst = _instance_from_args(args)
    base = _solve_request_from_args(args, inst)
    stem = base.request_id or "submit"
    requests = [
        SolveRequest.from_dict({**base.to_dict(), "request_id": f"{stem}-{i}"})
        for i in range(args.repeat)
    ]
    t0 = time.perf_counter()
    outcomes = asyncio.run(
        replay(
            args.host,
            args.port,
            requests,
            concurrency=args.concurrency,
            timeout=args.timeout,
        )
    )
    wall = time.perf_counter() - t0
    ok = degraded = cached = verified = failed = 0
    latencies: list[float] = []
    for result, latency in outcomes:
        latencies.append(latency)
        if not result.ok:
            failed += 1
            continue
        ok += 1
        degraded += int(result.degraded)
        cached += int(result.cached)
        if result.assignment is not None:
            report = verify_schedule(result.schedule(inst), inst)
            if report.ok:
                verified += 1
            else:
                failed += 1
                print(f"VERIFY FAILED: {report}", file=sys.stderr)
    latencies.sort()

    def pct(p: float) -> float:
        return latencies[min(len(latencies) - 1, int(p / 100 * len(latencies)))]

    print(f"requests   : {len(outcomes)}/{args.repeat}")
    print(f"seed       : {args.seed}")
    print(f"ok         : {ok} (verified {verified}, cached {cached}, degraded {degraded})")
    print(f"failed     : {failed}")
    print(f"wall       : {wall:.3f}s  ({len(outcomes) / wall:.1f} req/s)")
    if latencies:
        print(
            f"latency    : mean={statistics.mean(latencies) * 1e3:.2f}ms "
            f"p50={pct(50) * 1e3:.2f}ms p99={pct(99) * 1e3:.2f}ms"
        )
    return 0 if failed == 0 and len(outcomes) == args.repeat else 2


def _cmd_submit(args: argparse.Namespace) -> int:
    import asyncio
    import json as _json

    from repro.service.server import send_op, submit

    if args.op:
        reply = asyncio.run(send_op(args.host, args.port, args.op))
        print(_json.dumps(reply, indent=2, sort_keys=True))
        if args.op == "healthcheck":
            return 0 if reply.get("ok") else 1
        return 0
    if args.repeat:
        return _cmd_submit_repeat(args)
    inst = _instance_from_args(args)
    request = _solve_request_from_args(args, inst)
    result = asyncio.run(
        submit(args.host, args.port, request, timeout=args.timeout)
    )
    if result.status == "rejected":
        print(
            f"rejected: {result.error} (retry after {result.retry_after:.2f}s)",
            file=sys.stderr,
        )
        return 3
    if not result.ok:
        print(f"error: {result.error}", file=sys.stderr)
        return 2
    print(f"instance : {inst}")
    print(f"engine   : {result.engine}")
    print(f"makespan : {result.makespan}")
    print(f"guarantee: {result.guarantee:.4f}")
    print(f"degraded : {result.degraded}")
    print(f"cached   : {result.cached}")
    if args.show_schedule and result.assignment is not None:
        for i, grp in enumerate(result.assignment):
            load = sum(inst.processing_times[j] for j in grp)
            print(f"  machine {i:3d} (load {load:6d}): jobs {list(grp)}")
    return 0


def _cmd_store_stats(args: argparse.Namespace) -> int:
    import json as _json

    from repro.store import ResultStore, WriteAheadJournal

    store = ResultStore(args.dir)
    payload = {"store": store.stats(), "journal": WriteAheadJournal(args.dir).stats()}
    store.close()
    print(_json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_store_verify(args: argparse.Namespace) -> int:
    from repro.store import ResultStore

    store = ResultStore(args.dir)
    report = store.verify(deep=not args.shallow)
    store.close()
    print(
        f"checked  : {report.segments_checked} segment(s), "
        f"{report.records_checked} record(s)"
    )
    if not args.shallow:
        print(f"verified : {report.schedules_verified} schedule(s)")
    if report.torn_tails:
        print(f"torn     : {report.torn_tails} crash-truncated tail(s) (tolerated)")
    if report.ok:
        print("OK: store is clean")
        return 0
    for name in report.quarantined:
        print(f"QUARANTINED: {name}")
    for violation in report.violations:
        print(f"  - {violation}")
    return 1


def _cmd_store_compact(args: argparse.Namespace) -> int:
    from repro.store import ResultStore

    store = ResultStore(args.dir, ttl=args.ttl)
    report = store.compact()
    store.close()
    print(
        f"compacted: {report.segments_before} -> {report.segments_after} "
        f"segment(s), {report.bytes_before} -> {report.bytes_after} bytes"
    )
    print(
        f"records  : {report.records_kept} kept, {report.records_dropped} "
        f"dropped ({report.expired_dropped} expired)"
    )
    return 0


def _cmd_store_replay(args: argparse.Namespace) -> int:
    from repro.store import ResultStore, recover_all

    store = ResultStore(args.dir)
    try:
        report = recover_all(store, args.dir)
    finally:
        store.close()
    print(report.render())
    for line in report.aborted:
        print(f"  aborted: {line}")
    return 0 if report.ok else 1


def _cmd_qa_fuzz(args: argparse.Namespace) -> int:
    from repro.qa import FuzzConfig, run_fuzz

    config = FuzzConfig(
        seed=args.seed,
        budget=args.budget,
        problem=args.problem,
        corpus_dir=args.corpus,
        eps=args.eps,
        max_jobs=args.max_jobs,
        max_machines=args.max_machines,
        max_failures=args.max_failures,
        engines=tuple(args.engines.split(",")) if args.engines else (),
        metamorphic=not args.no_metamorphic,
        service=not args.no_service,
    )
    report = run_fuzz(config)
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_qa_replay(args: argparse.Namespace) -> int:
    from repro.qa import replay_file

    exit_code = 0
    for path in args.files:
        record, violations = replay_file(path, all_oracles=args.all_oracles)
        case = record["case"]
        label = (
            f"{path}: {case.problem}, {case.num_jobs} jobs x "
            f"{case.machines} machines, oracle={record['oracle']}"
        )
        if violations:
            exit_code = 1
            print(f"STILL FAILING {label}")
            for violation in violations:
                print(f"  {violation}")
        else:
            print(f"clean {label}")
    return exit_code


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.experiments.reproduce import reproduce_all

    golden = args.golden or None
    run = reproduce_all(args.out, scale=args.scale, golden_path=golden)
    print(run.render())
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments.campaign import run_campaign
    from repro.experiments.harness import ExperimentConfig
    from repro.workloads.generator import family_of_types

    if args.grid == "paper":
        grid = family_of_types()
    else:
        grid = []
        for triple in args.grid.split(","):
            kind, m, n = triple.split(":")
            grid.append((kind, int(m), int(n)))
    cores = tuple(int(c) for c in args.cores.split(","))
    config = ExperimentConfig(cores=cores, ip_time_limit=args.ip_time_limit)
    result = run_campaign(
        grid,
        instances_per_type=args.instances,
        config=config,
        base_seed=args.seed,
    )
    print(result.render())
    if args.csv_dir:
        from repro.experiments.manifest import build_manifest, write_manifest

        for path in result.export_csv(args.csv_dir):
            print(f"wrote {path}")
        manifest = build_manifest(
            experiment="campaign",
            grid=grid,
            instances_per_type=args.instances,
            base_seed=args.seed,
            config=config,
        )
        print(f"wrote {write_manifest(args.csv_dir, manifest)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-pcmax",
        description="Parallel approximation algorithms for P||Cmax "
        "(Ghalami & Grosu, IPPS 2017 reproduction)",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve", help="solve one instance")
    _add_instance_args(solve)
    _add_problem_args(solve)
    solve.add_argument(
        "-a",
        "--algorithm",
        "--engine",
        dest="algorithm",
        default="parallel-ptas",
        help=f"engine name (one of: {', '.join(ALGORITHMS)}; "
        "dashes and underscores are interchangeable)",
    )
    solve.add_argument("--eps", type=float, default=0.3)
    solve.add_argument(
        "--workers",
        type=_workers_arg,
        default="auto",
        help="worker count for parallel engines, or 'auto' (default) for "
        "cgroup-aware CPU detection",
    )
    solve.add_argument(
        "--backend",
        default="numpy-serial",
        help="parallel-ptas wavefront backend (default numpy-serial; "
        "every backend fills the same table)",
    )
    solve.add_argument("--time-limit", type=float, default=None)
    solve.add_argument(
        "--trace",
        metavar="FILE",
        help="record a hierarchical trace and write it as "
        "chrome://tracing JSON (docs/observability.md)",
    )
    solve.add_argument(
        "--trace-profile",
        type=float,
        metavar="SECONDS",
        default=None,
        help="with --trace: sample the solver's stack and attach hottest "
        "stacks to probes slower than SECONDS",
    )
    solve.add_argument("--show-schedule", action="store_true")
    solve.add_argument(
        "--gantt", action="store_true", help="render an ASCII Gantt chart"
    )
    solve.add_argument(
        "--output", help="write the schedule to a JSON file"
    )
    solve.set_defaults(fn=_cmd_solve)

    gen = subs.add_parser("generate", help="print a generated instance")
    gen.add_argument("--family", choices=sorted(FAMILIES), required=True)
    gen.add_argument("-m", "--machines", type=int, default=10)
    gen.add_argument("-n", "--jobs", type=int, default=30)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument(
        "--output", help="also write the instance to a .json/.csv/.txt file"
    )
    gen.set_defaults(fn=_cmd_generate)

    conv = subs.add_parser(
        "convert", help="convert an instance file between formats"
    )
    conv.add_argument("source", help="input instance file (.json/.csv/.txt)")
    conv.add_argument("dest", help="output instance file (.json/.csv/.txt)")
    conv.set_defaults(fn=_cmd_convert)

    fig = subs.add_parser("figure", help="regenerate a paper figure")
    fig.add_argument("number", choices=("1", "2", "3", "4", "5"))
    fig.add_argument("--scale", choices=("smoke", "paper"), default="smoke")
    fig.set_defaults(fn=_cmd_figure)

    ver = subs.add_parser("verify", help="verify a schedule JSON file")
    ver.add_argument("schedule", help="path to a schedule .json")
    ver.set_defaults(fn=_cmd_verify)

    tab = subs.add_parser("table", help="regenerate a paper table")
    tab.add_argument("number", choices=("1", "2", "3"))
    tab.add_argument("--scale", choices=("smoke", "paper"), default="smoke")
    tab.set_defaults(fn=_cmd_table)

    bench = subs.add_parser("bench-dp", help="compare DP engines")
    _add_instance_args(bench)
    bench.add_argument("--eps", type=float, default=0.3)
    bench.set_defaults(fn=_cmd_bench_dp)

    srv = subs.add_parser(
        "serve", help="run the asyncio scheduling service (docs/service.md)"
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8357)
    srv.add_argument(
        "--workers",
        type=_workers_arg,
        default="auto",
        help="solver worker threads, or 'auto' (default) for cgroup-aware "
        "CPU detection",
    )
    srv.add_argument(
        "--pool-workers",
        type=_pool_workers_arg,
        default=0,
        metavar="N",
        help="run the sharded multi-process solver pool with N worker "
        "processes ('auto' = usable CPUs; 0, the default, solves on "
        "in-process threads) — see docs/scaling.md",
    )
    srv.add_argument("--queue-depth", type=int, default=64)
    srv.add_argument("--cache-size", type=int, default=1024)
    srv.add_argument("--cache-ttl", type=float, default=None)
    srv.add_argument(
        "--default-deadline",
        type=float,
        default=None,
        help="per-request deadline (s) applied when the request sets none",
    )
    srv.add_argument(
        "--log-interval",
        type=float,
        default=30.0,
        help="seconds between metrics heartbeat lines (0 disables)",
    )
    srv.add_argument(
        "--store",
        metavar="DIR",
        help="durable result store + write-ahead journal directory "
        "(docs/persistence.md); uncommitted work is replayed on startup",
    )
    srv.add_argument(
        "--store-ttl",
        type=float,
        default=None,
        help="seconds a stored result stays servable from disk",
    )
    srv.add_argument(
        "--archive-traces",
        action="store_true",
        help="with --store: archive each solve's trace into the store",
    )
    srv.set_defaults(fn=_cmd_serve)

    sub_cmd = subs.add_parser(
        "submit", help="submit one request to a running service"
    )
    _add_instance_args(sub_cmd)
    _add_problem_args(sub_cmd)
    sub_cmd.add_argument("--host", default="127.0.0.1")
    sub_cmd.add_argument("--port", type=int, default=8357)
    sub_cmd.add_argument(
        "-a",
        "--algorithm",
        "--engine",
        dest="algorithm",
        default="ptas",
        help="engine name (see 'solve')",
    )
    sub_cmd.add_argument("--eps", type=float, default=0.3)
    sub_cmd.add_argument(
        "--workers",
        type=_workers_arg,
        default="auto",
        help="worker count or 'auto' (resolved server-side)",
    )
    sub_cmd.add_argument("--backend", default="numpy-serial")
    sub_cmd.add_argument("--time-limit", type=float, default=None)
    sub_cmd.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-request budget (s); overrun degrades to LPT",
    )
    sub_cmd.add_argument("--timeout", type=float, default=60.0)
    sub_cmd.add_argument("--show-schedule", action="store_true")
    sub_cmd.add_argument(
        "--op",
        choices=("ping", "stats", "healthcheck", "shutdown"),
        help="send a control op instead of a solve request",
    )
    sub_cmd.add_argument(
        "--repeat",
        type=int,
        default=0,
        metavar="N",
        help="replay N copies of the request (unique request_ids), "
        "verify every schedule, and print throughput + latency",
    )
    sub_cmd.add_argument(
        "--concurrency",
        type=int,
        default=1,
        metavar="C",
        help="with --repeat: number of persistent connections to spread "
        "the replay over",
    )
    sub_cmd.set_defaults(fn=_cmd_submit)

    st = subs.add_parser(
        "store",
        help="inspect and maintain a durable result store directory "
        "(docs/persistence.md)",
    )
    st_subs = st.add_subparsers(dest="store_command", required=True)
    st_stats = st_subs.add_parser(
        "stats", help="print store + journal statistics as JSON"
    )
    st_stats.add_argument("dir", help="store directory")
    st_stats.set_defaults(fn=_cmd_store_stats)
    st_verify = st_subs.add_parser(
        "verify",
        help="checksum every segment and re-verify every stored schedule; "
        "corrupt segments are quarantined",
    )
    st_verify.add_argument("dir", help="store directory")
    st_verify.add_argument(
        "--shallow",
        action="store_true",
        help="checksums only; skip per-schedule re-verification",
    )
    st_verify.set_defaults(fn=_cmd_store_verify)
    st_compact = st_subs.add_parser(
        "compact",
        help="rewrite live records into fresh segments, dropping "
        "superseded and expired entries",
    )
    st_compact.add_argument("dir", help="store directory")
    st_compact.add_argument(
        "--ttl",
        type=float,
        default=None,
        help="drop results older than this many seconds while compacting",
    )
    st_compact.set_defaults(fn=_cmd_store_compact)
    st_replay = st_subs.add_parser(
        "replay",
        help="re-solve every journal's uncommitted entries into the "
        "store, including per-worker pool journals (what 'serve "
        "--store' does on startup, offline)",
    )
    st_replay.add_argument("dir", help="store directory")
    st_replay.set_defaults(fn=_cmd_store_replay)

    qa = subs.add_parser(
        "qa",
        help="differential fuzzing of the engine fleet (docs/qa.md)",
    )
    qa_subs = qa.add_subparsers(dest="qa_command", required=True)
    qa_fuzz = qa_subs.add_parser(
        "fuzz",
        help="draw seeded instances, run every capable engine, check the "
        "cross-engine / metamorphic / fidelity / service oracles, and "
        "write minimized repro files for any failure",
    )
    qa_fuzz.add_argument("--seed", type=int, default=0)
    qa_fuzz.add_argument(
        "--budget", type=int, default=200, help="number of fuzz cases"
    )
    qa_fuzz.add_argument(
        "--problem",
        choices=("both", "p_cmax", "q_cmax"),
        default="both",
        help="restrict the drawn problem variant",
    )
    qa_fuzz.add_argument(
        "--corpus",
        default="qa-corpus",
        metavar="DIR",
        help="directory minimized repro files are written to",
    )
    qa_fuzz.add_argument("--eps", type=float, default=0.3)
    qa_fuzz.add_argument("--max-jobs", type=int, default=12)
    qa_fuzz.add_argument("--max-machines", type=int, default=4)
    qa_fuzz.add_argument(
        "--max-failures",
        type=int,
        default=10,
        help="stop after this many distinct failures",
    )
    qa_fuzz.add_argument(
        "--engines",
        default="",
        metavar="A,B,...",
        help="comma-separated engine subset (default: every registered "
        "engine whose capabilities match each case)",
    )
    qa_fuzz.add_argument(
        "--no-metamorphic",
        action="store_true",
        help="skip the metamorphic-invariant oracle",
    )
    qa_fuzz.add_argument(
        "--no-service",
        action="store_true",
        help="skip the sampled wire/in-process equivalence oracle",
    )
    qa_fuzz.set_defaults(fn=_cmd_qa_fuzz)
    qa_replay = qa_subs.add_parser(
        "replay",
        help="re-run the recorded oracle on corpus repro files; exits "
        "non-zero while any still fails",
    )
    qa_replay.add_argument(
        "files", nargs="+", help="repro .json files written by 'qa fuzz'"
    )
    qa_replay.add_argument(
        "--all-oracles",
        action="store_true",
        help="re-run all four oracle classes, not just the recorded one",
    )
    qa_replay.set_defaults(fn=_cmd_qa_replay)

    rep = subs.add_parser(
        "reproduce", help="regenerate every paper artifact into a directory"
    )
    rep.add_argument("--out", default="results")
    rep.add_argument("--scale", choices=("smoke", "paper"), default="smoke")
    rep.add_argument(
        "--golden",
        default="results/golden/smoke.json",
        help="golden file to verify against ('' to skip)",
    )
    rep.set_defaults(fn=_cmd_reproduce)

    exp = subs.add_parser(
        "experiment", help="run an evaluation campaign over instance types"
    )
    exp.add_argument(
        "--grid",
        default="paper",
        help="'paper' for the full 24-type grid of §V-A, or a "
        "comma-separated list of kind:m:n triples "
        "(e.g. u_10:10:30,u_100:20:100)",
    )
    exp.add_argument("--instances", type=int, default=20)
    exp.add_argument("--cores", default="2,4,8,16")
    exp.add_argument("--ip-time-limit", type=float, default=30.0)
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--csv-dir", help="export per-run and summary CSVs here")
    exp.set_defaults(fn=_cmd_experiment)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
