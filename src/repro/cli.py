"""Command-line interface: ``python -m repro <command>``.

Commands mirror the flows a user of the original MIS-II implementation
would run:

* ``kms``      -- read BLIF, run the algorithm, write BLIF;
* ``timing``   -- report topological / viable / sensitizable delay and
  the longest paths with sensitization verdicts;
* ``atpg``     -- fault counts, redundancies, and a generated test set;
* ``table1``   -- regenerate the paper's Table I rows;
* ``bench``    -- the engine-backed sweeps: Table I, the scaling study,
  and seeded random-circuit fuzzing, with ``--jobs N`` parallelism,
  ``--cache DIR`` content-addressed result caching, ``--verify
  {fraig,cnf}`` appended equivalence checking, and ``--telemetry
  out.json`` machine-readable run telemetry;
* ``aig``      -- the And-Inverter-Graph substrate: ``stats`` (hashed
  node counts), ``fraig`` (SAT-sweep a BLIF circuit), ``redundant``
  (stuck-at-redundant AIG edges, the Teslenko--Dubrova funnel);
* ``generate`` -- emit the built-in circuits (adders, paper figures,
  MCNC-like suite, seeded random circuits) as BLIF;
* ``serve``    -- run the async optimization service: an HTTP/JSON
  daemon with a supervised worker pool, request coalescing by circuit
  fingerprint, and a shared artifact store (see ``docs/SERVE.md``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .atpg import (
    collapsed_faults,
    compact,
    fault_coverage,
    generate_test_set,
    redundant_faults,
)
from .core import kms, measure_delays, verify_transformation
from .io import BlifError, parse_blif, write_blif
from .network import Circuit
from .timing import (
    SensitizationChecker,
    UnitDelayModel,
    iter_paths_longest_first,
)


class _InputError(Exception):
    """A command's input file is unreadable or not valid BLIF; ``main``
    reports it on one line and exits 2."""


def _load(path: str) -> Circuit:
    try:
        with open(path) as handle:
            return parse_blif(handle.read())
    except OSError as exc:
        raise _InputError(f"{path}: {exc.strerror or exc}") from exc
    except (BlifError, UnicodeDecodeError) as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _save(
    circuit: Circuit, path: Optional[str], fmt: str = "blif"
) -> None:
    if fmt == "verilog":
        from .io import write_verilog

        text = write_verilog(circuit)
    else:
        text = write_blif(circuit)
    if path:
        with open(path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _model(args) -> UnitDelayModel:
    return UnitDelayModel(use_arrival_times=not args.zero_arrivals)


def cmd_kms(args) -> int:
    circuit = _load(args.input)
    model = _model(args)
    result = kms(
        circuit, mode=args.mode, model=model, checked=args.checked
    )
    report = verify_transformation(circuit, result.circuit, model)
    print(
        f"# kms: {result.iterations} iterations, "
        f"{result.duplicated_gates} duplicated, "
        f"{result.cleanup_steps} cleanup removals",
        file=sys.stderr,
    )
    work = ", ".join(
        f"{name}={int(value)}" for name, value in sorted(
            result.counters.items()
        )
    )
    print(f"# work: {work}", file=sys.stderr)
    print(
        f"# gates {report.gates_before} -> {report.gates_after}; "
        f"delay {report.delays_before.sensitizable:g} -> "
        f"{report.delays_after.sensitizable:g}; "
        f"equivalent={report.equivalent} "
        f"irredundant={report.irredundant}",
        file=sys.stderr,
    )
    _save(result.circuit, args.output, args.format)
    return 0 if report.ok else 1


def cmd_timing(args) -> int:
    circuit = _load(args.input)
    model = _model(args)
    delays = measure_delays(circuit, model)
    print(f"topological delay : {delays.topological:g}")
    print(f"viability delay   : {delays.viability:g}")
    print(f"sensitizable delay: {delays.sensitizable:g}")
    checker = SensitizationChecker(circuit)
    print(f"\nlongest {args.paths} paths:")
    for i, path in enumerate(
        iter_paths_longest_first(circuit, model, max_paths=args.paths)
    ):
        verdict = (
            "sensitizable"
            if checker.is_sensitizable(path)
            else "false"
        )
        print(f"  [{verdict:>12}] {path.describe(circuit)}")
    return 0


def cmd_atpg(args) -> int:
    from .atpg import PROOF_COUNTERS
    from .counters import Window
    from .sim.kernel import WORK_COUNTERS

    window = Window()
    circuit = _load(args.input)
    faults = collapsed_faults(circuit)
    print(f"collapsed faults : {len(faults)}")
    if args.tests:
        # one classification yields both the redundancies and the tests
        tests = generate_test_set(
            circuit, faults, random_patterns=args.random, seed=args.seed
        )
        redundant = tests.redundant
    else:
        redundant = redundant_faults(circuit, faults)
    print(f"redundant faults : {len(redundant)}")
    for fault in redundant:
        print(f"  {fault.describe(circuit)}")
    # deterministic proof-work counters, on stderr like the kernel's
    work = window.delta()
    proof = ", ".join(f"{k}={work[k]}" for k in PROOF_COUNTERS)
    print(f"proof work       : {proof}", file=sys.stderr)
    if not args.tests:
        return 0
    vectors = compact(circuit, tests.vectors, faults)
    final = fault_coverage(circuit, faults, vectors)
    print(
        f"test set         : {len(vectors)} vectors "
        f"(compacted from {len(tests.vectors)})"
    )
    print(f"fault coverage   : {final.coverage:.1%}")
    # deterministic kernel work counters, on stderr so scripted stdout
    # parsing stays stable
    work = window.delta()
    sim = ", ".join(f"{k}={work[k]}" for k in WORK_COUNTERS)
    print(f"sim kernel work  : {sim}", file=sys.stderr)
    return 0


def cmd_table1(args) -> int:
    from .bench import carry_skip_rows, mcnc_rows, render

    model = UnitDelayModel(use_arrival_times=False)
    if args.which in ("csa", "all"):
        sizes = [(2, 2), (4, 4), (8, 2), (8, 4)]
        if args.quick:
            sizes = sizes[:2]
        print(render(carry_skip_rows(sizes, model), "Table I -- csa"))
    if args.which in ("mcnc", "all"):
        names = None if not args.quick else ["misex1", "rd73", "z4ml"]
        print(render(mcnc_rows(names), "Table I -- MCNC-like"))
    return 0


def cmd_bench(args) -> int:
    from .bench import render
    from .engine import (
        EngineConfig,
        fuzz_nightly_jobs,
        fuzz_smoke_jobs,
        random_jobs,
        rows_from_report,
        run_jobs,
        scaling_jobs,
        table1_jobs,
    )

    config = EngineConfig(
        jobs=args.jobs,
        cache_dir=args.cache,
        stage_timeout=args.timeout,
    )
    verify = None if args.verify == "none" else args.verify
    if args.suite == "table1":
        jobs = table1_jobs(which=args.which, quick=args.quick,
                           mode=args.mode, verify=verify)
    elif args.suite == "scaling":
        jobs = scaling_jobs(mode=args.mode)
    elif args.suite == "fuzz_smoke":
        jobs = fuzz_smoke_jobs()
    elif args.suite == "fuzz_nightly":
        jobs = fuzz_nightly_jobs(seed=args.seed, count=args.count)
    else:
        jobs = random_jobs(count=args.count, seed=args.seed,
                           mode=args.mode)
    report = run_jobs(
        jobs, config,
        meta={"suite": args.suite, "which": args.which,
              "quick": args.quick, "mode": args.mode, "seed": args.seed,
              "verify": verify},
    )
    if args.suite in ("fuzz_smoke", "fuzz_nightly"):
        from .fuzz import summarize

        payloads = [
            r.results.get("fuzz", {"ok": False, "error": r.error,
                                   "mismatches": []})
            for r in report.results
        ]
        summary = summarize(payloads)
        for payload, result in zip(payloads, report.results):
            if not payload.get("ok", False):
                detail = payload.get("error") or "; ".join(
                    f"{m['kind']}: {m['detail']}"
                    for m in payload.get("mismatches", [])
                )
                print(f"# FAILED {result.name}: {detail}",
                      file=sys.stderr)
        print(
            f"fuzz: {summary['scenarios']} scenarios, "
            f"{summary['failures']} failures, recall "
            f"{summary['proved']}/{summary['planted']}"
        )
        print(report.telemetry.summary(), file=sys.stderr)
        if args.telemetry:
            report.telemetry.write_json(args.telemetry)
            print(f"# telemetry written to {args.telemetry}",
                  file=sys.stderr)
        return 0 if report.ok and summary["failures"] == 0 else 1
    if args.suite == "table1":
        rows = rows_from_report(report)
        csa = [r for r in rows if r.row.name.startswith("csa ")]
        mcnc = [r for r in rows if not r.row.name.startswith("csa ")]
        if csa:
            print(render(csa, "Table I -- csa"))
        if mcnc:
            print(render(mcnc, "Table I -- MCNC-like"))
    else:
        for result in report.results:
            if result.ok:
                print(f"{result.name}: " + ", ".join(
                    f"{label}={payload}"
                    for label, payload in sorted(result.results.items())
                    if label != "generate"
                ))
    for result in report.results:
        if not result.ok:
            print(f"# FAILED {result.name}: {result.error}",
                  file=sys.stderr)
    print(report.telemetry.summary(), file=sys.stderr)
    if args.telemetry:
        report.telemetry.write_json(args.telemetry)
        print(f"# telemetry written to {args.telemetry}", file=sys.stderr)
    return 0 if report.ok else 1


def cmd_aig(args) -> int:
    from .aig import (
        circuit_to_aig,
        aig_to_circuit,
        fraig,
        redundant_edges,
    )

    circuit = _load(args.input)
    aig, _ = circuit_to_aig(circuit)
    if args.action == "stats":
        print(f"inputs      : {aig.num_inputs()}")
        print(f"outputs     : {len(aig.outputs)}")
        print(f"and nodes   : {aig.num_ands()}")
        print(f"live ands   : {aig.num_ands(live_only=True)}")
        print(f"gates (net) : {circuit.num_gates()}")
        return 0
    if args.action == "fraig":
        result = fraig(aig, seed=args.seed,
                       conflict_limit=args.conflict_limit)
        stats = result.stats
        print(
            f"# fraig: ands {stats.ands_before} -> {stats.ands_after}; "
            f"{stats.structural_merges} structural, "
            f"{stats.sat_proved} SAT-proved, "
            f"{stats.sat_refuted} refuted, "
            f"{stats.sat_undecided} undecided "
            f"({stats.patterns} patterns)",
            file=sys.stderr,
        )
        _save(aig_to_circuit(result.aig, name=circuit.name),
              args.output, args.format)
        return 0
    if args.action == "redundant":
        edges = redundant_edges(aig, patterns=args.patterns,
                                seed=args.seed)
        print(f"redundant AIG edges: {len(edges)}")
        for edge in edges:
            print(f"  {edge.describe(aig)}")
        return 0 if not edges else 1
    raise AssertionError(f"unhandled aig action {args.action!r}")


def cmd_generate(args) -> int:
    from .circuits import named_circuit

    if args.circuit == "randred":
        # expose the generator's ground truth: the planted untestable
        # fault sites ride along on stderr (stdout stays parseable BLIF)
        from .circuits import random_redundant_circuit_with_faults

        circuit, planted = random_redundant_circuit_with_faults(
            seed=args.seed
        )
        for fault in planted:
            print(f"# planted: {fault.describe(circuit)} "
                  f"[{fault.kind} {fault.site} s-a-{fault.value}]",
                  file=sys.stderr)
        _save(circuit, args.output, args.format)
        return 0
    try:
        circuit = named_circuit(args.circuit, seed=args.seed)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    _save(circuit, args.output, args.format)
    return 0


def _fuzz_spec(args):
    """The ScenarioSpec the fuzz grade/minimize commands share."""
    from .fuzz import ScenarioSpec

    return ScenarioSpec(
        name=f"fuzz-{args.seed}-{args.variant[:3]}",
        base={
            "factory": "random",
            "params": {
                "num_inputs": args.num_inputs,
                "num_gates": args.num_gates,
                "num_outputs": args.num_outputs,
                "seed": args.seed ^ 0x5EED,
            },
        },
        seed=args.seed,
        plants=args.plants,
        variant=args.variant,
    )


def cmd_fuzz_gen(args) -> int:
    from .fuzz import build_scenario

    result = build_scenario(_fuzz_spec(args))
    for plant in result.plants:
        print(f"# planted: {plant.description} "
              f"[{plant.fault_kind} {plant.fault_site} "
              f"s-a-{plant.fault_value}]",
              file=sys.stderr)
    _save(result.circuit, args.output, args.format)
    return 0


def cmd_fuzz_grade(args) -> int:
    import json

    from .fuzz import grade_scenario

    payload = grade_scenario(
        _fuzz_spec(args),
        oracle=not args.no_oracle,
        mode=args.mode,
    )
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0 if payload["ok"] else 1


def cmd_fuzz_minimize(args) -> int:
    import json

    from .fuzz import SHRINKABLE_KINDS, minimize_failure

    with open(args.report) as handle:
        report = json.load(handle)
    written = []
    for payload in report.get("scenarios", []):
        if payload.get("ok", False) or "error" in payload:
            continue
        done = set()
        for item in payload.get("mismatches", []):
            kind = item["kind"]
            if kind not in SHRINKABLE_KINDS or kind in done:
                continue
            done.add(kind)
            shrunk = minimize_failure(
                payload["spec"], item, out_dir=args.out,
                max_checks=args.max_checks,
            )
            if shrunk is not None:
                written.append(shrunk)
                print(f"# {shrunk['scenario']} {shrunk['kind']}: "
                      f"{shrunk['gates_before']} -> "
                      f"{shrunk['gates_after']} gates -> "
                      f"{shrunk.get('path')}",
                      file=sys.stderr)
    print(f"minimized {len(written)} failure(s) into {args.out}")
    return 0


def cmd_fuzz_campaign(args) -> int:
    from .fuzz import campaign_specs, run_campaign

    specs = campaign_specs(
        args.count,
        seed=args.seed,
        variant=args.variant,
        num_inputs=args.num_inputs,
        num_gates=args.num_gates,
        num_outputs=args.num_outputs,
        plants=args.plants,
    )
    report = run_campaign(
        specs,
        jobs=args.jobs,
        cache_dir=args.cache,
        stage_timeout=args.timeout,
        oracle=not args.no_oracle,
        mode=args.mode,
        report_path=args.report,
        minimize_dir=args.minimize_dir,
    )
    summary = report.summary
    for payload in report.scenarios:
        if not payload.get("ok", False):
            name = payload.get("spec", {}).get("name", "?")
            detail = payload.get("error") or "; ".join(
                f"{m['kind']}: {m['detail']}"
                for m in payload.get("mismatches", [])
            )
            print(f"# FAILED {name}: {detail}", file=sys.stderr)
    for shrunk in report.minimized:
        print(f"# minimized {shrunk['scenario']} {shrunk['kind']} to "
              f"{shrunk['gates_after']} gates -> {shrunk.get('path')}",
              file=sys.stderr)
    print(
        f"campaign: {summary['scenarios']} scenarios, "
        f"{summary['failures']} failures, recall "
        f"{summary['proved']}/{summary['planted']}, "
        f"{summary['seconds']:.1f}s graded work"
    )
    if args.report:
        print(f"# report written to {args.report}", file=sys.stderr)
    return 0 if report.ok else 1


def cmd_serve(args) -> int:
    from .serve import ServeConfig, ServeDaemon

    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        job_timeout=args.timeout,
        retries=args.retries,
        cache_dir=args.cache,
        cache_max_bytes=args.cache_max_bytes,
        drain_timeout=args.drain_timeout,
        debug=args.debug,
    )
    daemon = ServeDaemon(config)

    async def announce() -> None:
        await daemon.start()
        print(
            f"# serve: listening on {config.host}:{daemon.port} "
            f"({config.workers} workers, queue depth "
            f"{config.queue_depth})",
            file=sys.stderr,
        )

    # ServeDaemon.run() owns the loop; announce the bound port by
    # running start() inside it, so --port 0 is still usable.
    import asyncio
    import signal

    async def main() -> None:
        await announce()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, daemon._stop.set)
            except (NotImplementedError, RuntimeError):
                pass
        await daemon._stop.wait()
        print("# serve: draining", file=sys.stderr)
        await daemon.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "KMS redundancy removal with no delay increase "
            "(Keutzer/Malik/Saldanha, DAC 1990)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kms", help="make a BLIF circuit irredundant")
    p.add_argument("input")
    p.add_argument("-o", "--output", help="output BLIF (default stdout)")
    p.add_argument(
        "--mode", choices=["static", "viability"], default="static"
    )
    p.add_argument("--checked", action="store_true")
    p.add_argument("--zero-arrivals", action="store_true")
    p.add_argument(
        "--format", choices=["blif", "verilog"], default="blif"
    )
    p.set_defaults(func=cmd_kms)

    p = sub.add_parser("timing", help="delay report for a BLIF circuit")
    p.add_argument("input")
    p.add_argument("--paths", type=int, default=5)
    p.add_argument("--zero-arrivals", action="store_true")
    p.set_defaults(func=cmd_timing)

    p = sub.add_parser("atpg", help="fault/redundancy report")
    p.add_argument("input")
    p.add_argument(
        "--tests", action="store_true", help="build a compacted test set"
    )
    p.add_argument(
        "--random", type=int, default=64,
        help="initial random vectors of the test set's pool",
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_atpg)

    p = sub.add_parser("table1", help="regenerate the paper's Table I")
    p.add_argument(
        "--which", choices=["csa", "mcnc", "all"], default="csa"
    )
    p.add_argument("--quick", action="store_true")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser(
        "bench",
        help="engine-backed sweeps: parallel, cached, with telemetry",
    )
    p.add_argument(
        "--suite",
        choices=["table1", "scaling", "random", "fuzz_smoke",
                 "fuzz_nightly"],
        default="table1",
    )
    p.add_argument(
        "--which", choices=["csa", "mcnc", "all"], default="all",
        help="Table I slice (table1 suite only)",
    )
    p.add_argument("--quick", action="store_true")
    p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (1 = in-process, for debugging)",
    )
    p.add_argument("--cache", metavar="DIR", help="result cache directory")
    p.add_argument(
        "--telemetry", metavar="PATH", help="write telemetry JSON here"
    )
    p.add_argument(
        "--mode", choices=["static", "viability"], default="static"
    )
    p.add_argument(
        "--timeout", type=float, default=None,
        help="per-stage timeout in seconds",
    )
    p.add_argument(
        "--seed", type=int, default=0,
        help="base seed for the random suite (job i uses seed+i)",
    )
    p.add_argument(
        "--count", type=int, default=8,
        help="number of circuits in the random suite",
    )
    p.add_argument(
        "--verify", choices=["none", "fraig", "cnf"], default="none",
        help="append an equivalence check per job (table1 suite only)",
    )
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "aig", help="AIG substrate: stats, SAT sweeping, redundancy"
    )
    p.add_argument(
        "action", choices=["stats", "fraig", "redundant"],
        help=(
            "stats: structural-hash node counts; fraig: SAT-sweep and "
            "emit the swept circuit; redundant: list stuck-at-redundant "
            "AIG edges (exit 1 if any)"
        ),
    )
    p.add_argument("input")
    p.add_argument("-o", "--output", help="output BLIF (fraig action)")
    p.add_argument(
        "--format", choices=["blif", "verilog"], default="blif"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--patterns", type=int, default=128,
        help="simulation prefilter width (redundant action)",
    )
    p.add_argument(
        "--conflict-limit", type=int, default=1000,
        help="SAT budget per fraig merge proof",
    )
    p.set_defaults(func=cmd_aig)

    p = sub.add_parser("generate", help="emit a built-in circuit as BLIF")
    p.add_argument(
        "circuit",
        help=(
            "fig1|fig2|fig4, csa<N>.<B>, rca<N>, cla<N>, "
            "rand|randred (seeded), or an MCNC name"
        ),
    )
    p.add_argument(
        "--seed", type=int, default=0,
        help="seed for the rand/randred generators",
    )
    p.add_argument("-o", "--output")
    p.add_argument(
        "--format", choices=["blif", "verilog"], default="blif"
    )
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser(
        "fuzz",
        help="adversarial fuzzing: planted redundancies, differential "
             "grading, failure minimization, seeded campaigns",
    )
    fuzz_sub = p.add_subparsers(dest="fuzz_command", required=True)

    def _fuzz_scenario_args(fp) -> None:
        fp.add_argument("--seed", type=int, default=0)
        fp.add_argument(
            "--plants", type=int, default=3,
            help="planted redundancies per scenario",
        )
        fp.add_argument(
            "--variant", choices=["neutral", "degrading"],
            default="neutral",
        )
        fp.add_argument("--num-inputs", type=int, default=5)
        fp.add_argument("--num-gates", type=int, default=18)
        fp.add_argument("--num-outputs", type=int, default=2)

    fp = fuzz_sub.add_parser(
        "gen",
        help="emit one planted scenario as BLIF (ground truth on stderr)",
    )
    _fuzz_scenario_args(fp)
    fp.add_argument("-o", "--output")
    fp.add_argument(
        "--format", choices=["blif", "verilog"], default="blif"
    )
    fp.set_defaults(func=cmd_fuzz_gen)

    fp = fuzz_sub.add_parser(
        "grade",
        help="grade one scenario differentially; JSON payload on stdout",
    )
    _fuzz_scenario_args(fp)
    fp.add_argument("--mode", choices=["static", "viability"],
                    default="static")
    fp.add_argument(
        "--no-oracle", action="store_true",
        help="skip the from-scratch oracle differential",
    )
    fp.set_defaults(func=cmd_fuzz_grade)

    fp = fuzz_sub.add_parser(
        "minimize",
        help="shrink a campaign report's failures into pytest reproducers",
    )
    fp.add_argument("report", help="campaign report JSON")
    fp.add_argument(
        "--out", required=True, metavar="DIR",
        help="directory for generated test_fuzz_repro_*.py files",
    )
    fp.add_argument("--max-checks", type=int, default=4000)
    fp.set_defaults(func=cmd_fuzz_minimize)

    fp = fuzz_sub.add_parser(
        "campaign",
        help="run a seeded corpus through the engine pool",
    )
    fp.add_argument("--count", type=int, default=100)
    fp.add_argument("--seed", type=int, default=0)
    fp.add_argument(
        "--variant", choices=["neutral", "degrading", "mix"],
        default="mix",
    )
    fp.add_argument("--plants", type=int, default=None)
    fp.add_argument("--num-inputs", type=int, default=5)
    fp.add_argument("--num-gates", type=int, default=18)
    fp.add_argument("--num-outputs", type=int, default=2)
    fp.add_argument("--jobs", type=int, default=1)
    fp.add_argument("--cache", metavar="DIR")
    fp.add_argument("--timeout", type=float, default=None,
                    help="per-stage timeout in seconds")
    fp.add_argument("--mode", choices=["static", "viability"],
                    default="static")
    fp.add_argument("--no-oracle", action="store_true")
    fp.add_argument("--report", metavar="PATH",
                    help="write the JSON campaign report here")
    fp.add_argument(
        "--minimize-dir", metavar="DIR",
        help="shrink failures into pytest reproducers in DIR",
    )
    fp.set_defaults(func=cmd_fuzz_campaign)

    p = sub.add_parser(
        "serve",
        help="run the async optimization service (HTTP/JSON daemon)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=8571,
        help="listen port (0 = OS-assigned, announced on stderr)",
    )
    p.add_argument(
        "--workers", type=int, default=2,
        help="worker processes in the pool",
    )
    p.add_argument(
        "--queue-depth", type=int, default=64,
        help="pending-queue capacity before submissions get 429",
    )
    p.add_argument(
        "--timeout", type=float, default=300.0,
        help="default per-job timeout in seconds",
    )
    p.add_argument(
        "--retries", type=int, default=1,
        help="crash-retry budget per job",
    )
    p.add_argument(
        "--cache", metavar="DIR", default=None,
        help="artifact store directory (default: private temp dir)",
    )
    p.add_argument(
        "--cache-max-bytes", type=int, default=None,
        help="trim the artifact store to this budget after each job",
    )
    p.add_argument(
        "--drain-timeout", type=float, default=30.0,
        help="seconds to wait for in-flight jobs on shutdown",
    )
    p.add_argument(
        "--debug", action="store_true",
        help="enable worker fault-injection hooks (tests only)",
    )
    p.set_defaults(func=cmd_serve)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
