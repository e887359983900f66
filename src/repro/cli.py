"""Command-line interface.

::

    mpicollpred machines                      # Table I
    mpicollpred generate d1 --scale ci        # benchmark one dataset
    mpicollpred generate d1 --resume          # pick up an interrupted run
    mpicollpred tune --machine Hydra --library "Open MPI" \\
        --collective bcast --nodes 34 --ppn 32 -o rules.conf
    mpicollpred experiment fig4 --scale ci    # regenerate an exhibit
    mpicollpred experiment all --scale ci
    mpicollpred report --telemetry run.jsonl  # summarize a telemetry log
    mpicollpred serve --machine Hydra --rules hydra_bcast_rules.conf
                                              # JSONL request loop on stdin

``--telemetry PATH`` (on ``generate``/``tune``) streams structured
JSONL events — hierarchical spans, counters — to ``PATH`` (``-`` for a
pretty stderr feed); ``mpicollpred report --telemetry PATH`` digests
the log afterwards. ``--resume`` replays the chunk journal an
interrupted campaign left behind, producing a dataset bit-identical
to an uninterrupted run.

(Entry point installed by the package; ``python -m repro.cli`` works
too.)
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time
from typing import Iterator

from repro.experiments.datasets import DATASETS, Scale, generate_dataset
from repro.utils.units import parse_bytes


@contextlib.contextmanager
def _telemetry_to(destination: str | None) -> Iterator[None]:
    """Attach a telemetry sink for the body (``-`` = pretty stderr).

    Counters are flushed into the stream on exit so the log ends with
    the campaign's final tallies — that is what ``report --telemetry``
    renders in its counter table.
    """
    if destination is None:
        yield
        return
    from repro.obs import FileSink, StderrSink, get_telemetry

    telemetry = get_telemetry()
    sink = StderrSink() if destination == "-" else FileSink(destination)
    telemetry.add_sink(sink)
    try:
        yield
        telemetry.flush()
    finally:
        telemetry.remove_sink(sink)
        sink.close()
        if destination != "-":
            print(f"telemetry written to {destination}")


def _cmd_machines(args: argparse.Namespace) -> int:
    from repro.experiments.tables import table1

    print(table1().render())
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.experiments.cache import cache_dir

    t0 = time.time()
    stem = cache_dir() / f"{args.dataset}-{args.scale}-s{args.seed}"
    stem.parent.mkdir(parents=True, exist_ok=True)
    faults = None
    if getattr(args, "chaos", None) is not None:
        from repro.bench.faults import FaultSpec

        faults = FaultSpec.uniform(args.chaos, seed=args.seed)
    with _telemetry_to(args.telemetry):
        # Always journal next to the dataset: an interrupted campaign
        # can then be picked up with --resume at zero extra cost.
        dataset = generate_dataset(
            args.dataset, args.scale, seed=args.seed,
            checkpoint=stem, resume=args.resume, faults=faults,
        )
        dataset.save(stem)
    print(
        f"{dataset.name}: {len(dataset)} samples in {time.time() - t0:.1f}s "
        f"-> {stem}.npz"
    )
    for key, value in dataset.summary().items():
        print(f"  {key}: {value}")
    return 0


def _tune_grid(machine, nodes: int, ppn: int):
    """A small practical training grid around the target allocation."""
    from repro.bench.runner import GridSpec

    return GridSpec(
        tuple(sorted({max(1, nodes // 2), nodes,
                      min(machine.max_nodes, nodes * 2)})),
        tuple(sorted({1, max(1, ppn // 2), ppn})),
        (1, 256, 4096, 65536, 524288, 4194304),
    )


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.core.tuner import AutoTuner
    from repro.machine.zoo import get_machine
    from repro.mpilib import get_library

    machine = get_machine(args.machine)
    library = get_library(args.library)
    tuner = AutoTuner(machine, library, args.collective, learner=args.learner,
                      seed=args.seed)
    print(f"benchmarking {library.name} {args.collective} on {machine.name} ...")
    with _telemetry_to(args.telemetry):
        tuner.benchmark(
            _tune_grid(machine, args.nodes, args.ppn),
            checkpoint=f"{args.output}.campaign", resume=args.resume,
        )
        tuner.train()
        text = tuner.write_rules(
            args.output, args.nodes, args.ppn, fmt=args.format
        )
    print(f"wrote {args.output}:")
    print(text)
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    from repro.core.dataset import PerfDataset
    from repro.core.selector import AlgorithmSelector
    from repro.ml import PAPER_LEARNERS

    dataset = PerfDataset.load(args.dataset_file)
    selector = AlgorithmSelector(PAPER_LEARNERS[args.learner]).fit(dataset)
    cfg = selector.select(args.nodes, args.ppn, parse_bytes(args.msize))
    print(f"predicted best configuration: {cfg.label}")
    for rank, (c, t) in enumerate(
        selector.ranked(args.nodes, args.ppn, parse_bytes(args.msize))[:5], 1
    ):
        print(f"  {rank}. {c.label:40s} predicted {t * 1e6:10.1f} us")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from functools import partial
    from pathlib import Path

    from repro.serve import handle_request, serve_lines
    from repro.serve.worker import build_state

    if args.chaos_ops and not args.workers:
        print(
            "serve: --chaos-ops needs --workers N (the chaos ops are "
            "fleet socket ops; the stdin loop has none)",
            file=sys.stderr,
        )
        return 2
    if args.workers:
        # fleet mode: a socket front-end over worker subprocesses
        # (stdin JSONL stays the --workers 0 default)
        from repro.serve.fleet import FleetSpec, run_fleet

        if args.tune:
            print(
                "serve: --tune is incompatible with --workers N (worker "
                "specs ship rules files, not in-process models); tune "
                "first, export rules, then serve them",
                file=sys.stderr,
            )
            return 2
        spec = FleetSpec(
            machine=args.machine,
            library=args.library,
            rules=tuple(args.rules or ()),
            workers=args.workers,
            cache_size=args.cache_size,
            queue_depth=args.queue_depth,
            max_worker_restarts=args.max_worker_restarts,
            call_timeout_s=args.call_timeout,
            chaos_ops=args.chaos_ops,
            feedback_dir=args.feedback_dir or "",
            feedback_seed=args.feedback_seed,
            feedback_shift=args.feedback_shift,
            feedback_shift_algids=_parse_algids(args.feedback_shift_algids),
        )
        return run_fleet(spec, host=args.host, port=args.port)

    # rules load below, one stderr line each
    spec = {"machine": args.machine, "library": args.library,
            "cache_size": args.cache_size}
    if args.feedback_dir:
        spec["feedback"] = {
            "path": str(Path(args.feedback_dir) / "feedback.jsonl"),
            "seed": args.feedback_seed,
            "shift": args.feedback_shift,
            "shift_algids": _parse_algids(args.feedback_shift_algids),
        }
    state = build_state(spec)
    registry, feedback = state.registry, state.service.feedback
    for path in args.rules or ():
        version = registry.load_rules(path)
        print(
            f"loaded {path} -> {version.collective} v{version.version}",
            file=sys.stderr,
        )
    if args.tune:
        from repro.core.tuner import AutoTuner

        machine, library = registry.machine, registry.library
        tuner = AutoTuner(
            machine, library, args.tune, learner=args.learner, seed=args.seed
        )
        print(
            f"tuning {library.name} {args.tune} on {machine.name} ...",
            file=sys.stderr,
        )
        tuner.benchmark(_tune_grid(machine, args.nodes, args.ppn))
        tuner.train()
        version = registry.publish(tuner.servable(), tag="autotuner")
        print(
            f"trained {args.tune} -> v{version.version}", file=sys.stderr
        )
    if not registry.collectives():
        print(
            "serve: no models published (pass --rules and/or --tune); "
            "requests will fall back to the library default",
            file=sys.stderr,
        )
    if feedback is not None:
        print(f"feedback log: {feedback.path}", file=sys.stderr)
    source = open(args.requests) if args.requests else sys.stdin
    try:
        with _telemetry_to(args.telemetry):
            served = serve_lines(
                partial(handle_request, state.service), source, sys.stdout
            )
    except KeyboardInterrupt:
        print("serve: interrupted", file=sys.stderr)
        return 130
    finally:
        if args.requests:
            source.close()
        if feedback is not None:
            feedback.close()
    print(f"served {served} request(s)", file=sys.stderr)
    return 0


def _parse_algids(text: str | None) -> tuple[int, ...]:
    """'1,7' -> (1, 7); empty/None -> () (shift applies to all algids)."""
    if not text:
        return ()
    return tuple(int(part) for part in text.split(",") if part.strip())


def _cmd_retrain(args: argparse.Namespace) -> int:
    from repro.core.dataset import PerfDataset
    from repro.core.feedback import WorldShift, read_feedback
    from repro.core.retrain import Retrainer, RetrainPolicy, RetrainResult
    from repro.machine.zoo import get_machine
    from repro.mpilib import get_library
    from repro.serve.fleet import FleetClient

    machine = get_machine(args.machine)
    library = get_library(args.library)
    base = PerfDataset.load(args.dataset)
    retrainer = Retrainer(
        machine,
        library,
        args.collective,
        base,
        seed=args.seed,
        learner=args.learner,
        policy=RetrainPolicy(
            threshold=args.threshold,
            min_samples=args.min_samples,
            window=args.window,
            exhaustive=args.exhaustive,
            margin=args.margin,
        ),
        shift=WorldShift(
            factor=args.shift, algids=_parse_algids(args.shift_algids)
        ),
    )

    def publish(result: RetrainResult) -> None:
        print(
            f"retrained {result.collective}: measured "
            f"{result.measured_samples}/{result.full_grid_samples} samples "
            f"(budget_frac={result.budget_frac:.3f}, "
            f"{result.disagreements}/{result.instances} instances flagged, "
            f"log_shift={result.log_shift:+.3f})",
            file=sys.stderr,
        )
        if args.rules_out:
            msizes = tuple(sorted(set(result.dataset.msize.tolist())))
            result.tuner.write_rules(
                args.rules_out, args.nodes, args.ppn,
                msizes=msizes or (1,),
            )
            result.rules_path = args.rules_out
            print(f"wrote rules -> {args.rules_out}", file=sys.stderr)
            if args.fleet:
                host, _, port = args.fleet.rpartition(":")
                with FleetClient(int(port), host or "127.0.0.1") as client:
                    # a reload waits on every worker's prepare, each up
                    # to --call-timeout: no socket limit, as before
                    client.sock.settimeout(None)
                    answer = client.ask(
                        {"op": "reload", "path": args.rules_out}
                    )
                print(
                    f"fleet reload @{args.fleet}: {answer}", file=sys.stderr
                )

    with _telemetry_to(args.telemetry):
        if args.watch:
            try:
                results = retrainer.watch(
                    args.feedback,
                    interval_s=args.interval,
                    max_rounds=args.max_rounds,
                    on_result=publish,
                )
            except KeyboardInterrupt:
                print("retrain: interrupted", file=sys.stderr)
                return 130
            print(f"watch loop exited after {len(results)} retrain(s)",
                  file=sys.stderr)
            return 0
        rows = read_feedback(args.feedback)
        drifting = retrainer.scan(rows)
        if not drifting and not args.force:
            print(
                f"no drift over {len(rows)} feedback row(s) "
                f"(threshold {args.threshold}); pass --force to retrain "
                "anyway",
                file=sys.stderr,
            )
            return 0
        publish(retrainer.retrain(rows))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs import report_telemetry

    print(report_telemetry(args.telemetry, top=args.top))
    return 0


_EXPERIMENTS = {
    "table1": ("repro.experiments.tables", "table1", False),
    "table2": ("repro.experiments.tables", "table2", True),
    "table3": ("repro.experiments.tables", "table3", False),
    "table4a": ("repro.experiments.tables", "table4", True),
    "table4b": ("repro.experiments.tables", "table4", True),
    "fig2": ("repro.experiments.figures", "figure2", True),
    "fig4": ("repro.experiments.figures", "figure4", True),
    "fig5": ("repro.experiments.figures", "figure5", True),
    "fig6": ("repro.experiments.figures", "figure6", True),
    "fig7": ("repro.experiments.figures", "figure7", True),
    "fig8": ("repro.experiments.figures", "figure8", True),
    "ext-online": ("repro.experiments.extensions", "online_vs_offline", True),
    "ext-guidelines": ("repro.experiments.extensions", "guidelines_exhibit", True),
    "ext-collectives": ("repro.experiments.extensions", "extension_speedups", True),
    "ablation-noise": ("repro.experiments.extensions", "noise_sensitivity", True),
    "random-split": ("repro.experiments.extensions", "randomized_split", True),
    "ext-mvapich": ("repro.experiments.extensions", "mvapich_class_tuning", True),
    "model-errors": ("repro.experiments.model_errors", "model_error_table", True),
}


def _cmd_experiment(args: argparse.Namespace) -> int:
    import importlib

    names = list(_EXPERIMENTS) if args.name == "all" else [args.name]
    for name in names:
        module_name, func_name, takes_scale = _EXPERIMENTS[name]
        func = getattr(importlib.import_module(module_name), func_name)
        t0 = time.time()
        kwargs = {}
        if takes_scale:
            kwargs["scale"] = args.scale
        if name == "table4b":
            kwargs["small"] = True
        if name == "table3":
            kwargs = {"scale": args.scale}
        exhibit = func(**kwargs)
        print(exhibit.render())
        print(f"[{name} regenerated in {time.time() - t0:.1f}s]\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpicollpred",
        description="ML-based algorithm selection for MPI collectives "
        "(CLUSTER'20 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("machines", help="show the machine zoo (Table I)")

    p = sub.add_parser("generate", help="benchmark one Table II dataset")
    p.add_argument(
        "dataset", choices=sorted([*DATASETS, "dx1", "dx2"])
    )
    p.add_argument("--scale", choices=[s.value for s in Scale], default="ci")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--resume", action="store_true",
        help="replay the chunk journal of an interrupted campaign "
        "(bit-identical to an uninterrupted run)",
    )
    p.add_argument(
        "--telemetry", metavar="PATH", default=None,
        help="write JSONL telemetry events to PATH ('-' = pretty stderr)",
    )
    p.add_argument(
        "--chaos", type=float, metavar="RATE", default=None,
        help="inject deterministic faults at RATE (0..1) into the "
        "campaign: straggler spikes, jitter bursts, NaN observations, "
        "chunk crashes, journal corruption (see docs/robustness.md)",
    )

    p = sub.add_parser("tune", help="benchmark + train + emit a rules file")
    p.add_argument("--machine", default="Hydra")
    p.add_argument("--library", default="Open MPI")
    p.add_argument("--collective", default="bcast",
                   choices=["bcast", "allreduce", "alltoall",
                            "reduce", "allgather"])
    p.add_argument("--learner", default="GAM")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--ppn", type=int, required=True)
    p.add_argument("--format", choices=["ompi", "json"], default="ompi")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default="tuned_rules.conf")
    p.add_argument(
        "--resume", action="store_true",
        help="replay the chunk journal of an interrupted campaign",
    )
    p.add_argument(
        "--telemetry", metavar="PATH", default=None,
        help="write JSONL telemetry events to PATH ('-' = pretty stderr)",
    )

    p = sub.add_parser("predict", help="query a selector trained on a saved dataset")
    p.add_argument("dataset_file", help="path stem of a saved dataset (.npz/.json)")
    p.add_argument("--learner", default="GAM")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--ppn", type=int, required=True)
    p.add_argument("--msize", required=True, help="message size, e.g. 64K")

    p = sub.add_parser("experiment", help="regenerate a paper exhibit")
    p.add_argument("name", choices=["all", *sorted(_EXPERIMENTS)])
    p.add_argument("--scale", choices=[s.value for s in Scale], default="ci")

    p = sub.add_parser(
        "serve",
        help="JSONL prediction service over stdin (see docs/serving.md)",
    )
    p.add_argument("--machine", default="Hydra")
    p.add_argument("--library", default="Open MPI")
    p.add_argument(
        "--rules", action="append", metavar="PATH", default=[],
        help="publish a tuned rules file (repeatable; collective is "
        "read from the file)",
    )
    p.add_argument(
        "--tune", metavar="COLLECTIVE", default=None,
        choices=["bcast", "allreduce", "alltoall", "reduce", "allgather"],
        help="benchmark + train a model in-process before serving",
    )
    p.add_argument("--learner", default="KNN",
                   help="learner for --tune (default: KNN)")
    p.add_argument("--nodes", type=int, default=4,
                   help="target allocation nodes for --tune")
    p.add_argument("--ppn", type=int, default=2,
                   help="target allocation ppn for --tune")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cache-size", type=int, default=4096,
                   help="L1 recommendation LRU capacity")
    p.add_argument(
        "--requests", metavar="PATH", default=None,
        help="read JSONL requests from PATH instead of stdin",
    )
    p.add_argument(
        "--telemetry", metavar="PATH", default=None,
        help="write JSONL telemetry events to PATH ('-' = pretty stderr)",
    )
    p.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="run a socket fleet of N worker processes instead of the "
        "stdin loop (consistent-hash routed, coordinated reload, "
        "GET /metrics Prometheus scrape; see docs/serving.md)",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="fleet listen address (with --workers)")
    p.add_argument(
        "--port", type=int, default=8077,
        help="fleet listen port (with --workers; 0 = ephemeral, the "
        "chosen port is printed to stderr)",
    )
    p.add_argument(
        "--queue-depth", type=int, default=128, metavar="N",
        help="per-worker in-flight high-water mark; beyond it requests "
        "are shed with error='overloaded' instead of queueing (fleet)",
    )
    p.add_argument(
        "--max-worker-restarts", type=int, default=5, metavar="N",
        help="crashes per worker inside a 30s window before its circuit "
        "breaker holds it open (fleet; see docs/robustness.md)",
    )
    p.add_argument(
        "--call-timeout", type=float, default=60.0, metavar="SECONDS",
        help="per-request worker deadline; a wedged worker is killed "
        "and respawned when a call exceeds it (fleet)",
    )
    p.add_argument(
        "--chaos-ops", action="store_true",
        help="admit seeded fault-injection ops (kill/wedge/garbage/"
        "crash) over the socket — chaos harness only, never production",
    )
    p.add_argument(
        "--feedback-dir", metavar="DIR", default=None,
        help="append served recommendations + simulated observations "
        "as JSONL under DIR (per-worker files in fleet mode) — the "
        "closed loop's measure step (see docs/online-learning.md)",
    )
    p.add_argument("--feedback-seed", type=int, default=0,
                   help="seed of the simulated observation RNG")
    p.add_argument(
        "--feedback-shift", type=float, default=1.0, metavar="FACTOR",
        help="injected world shift: scale observed times by FACTOR "
        "(drift drills; 1.0 = stationary)",
    )
    p.add_argument(
        "--feedback-shift-algids", metavar="IDS", default=None,
        help="comma-separated algids the shift applies to (default all)",
    )

    p = sub.add_parser(
        "retrain",
        help="drift-triggered refit on base + feedback rows with active "
        "sampling; publishes rules for the fleet's two-phase reload "
        "(see docs/online-learning.md)",
    )
    p.add_argument(
        "--feedback", metavar="PATH", required=True,
        help="feedback JSONL file, or a directory of per-worker files",
    )
    p.add_argument(
        "--dataset", metavar="PATH", required=True,
        help="base campaign dataset (.npz written by generate/tune)",
    )
    p.add_argument("--collective", default="bcast",
                   choices=["bcast", "allreduce", "alltoall", "reduce",
                            "allgather"])
    p.add_argument("--machine", default="Hydra")
    p.add_argument("--library", default="Open MPI")
    p.add_argument("--learner", default="GAM")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--threshold", type=float, default=0.25,
        help="drift trigger: |median log-residual - baseline| above this",
    )
    p.add_argument("--min-samples", type=int, default=30,
                   help="residuals required before the trigger may fire")
    p.add_argument("--window", type=int, default=512,
                   help="bounded residual window per (collective, version)")
    p.add_argument(
        "--margin", type=float, default=0.05,
        help="relative regret under which model families count as "
        "agreeing (active-sampling flag + agreement grading)",
    )
    p.add_argument(
        "--exhaustive", action="store_true",
        help="measure every feedback instance (the naive full-grid "
        "refit active sampling is graded against)",
    )
    p.add_argument(
        "--shift", type=float, default=1.0, metavar="FACTOR",
        help="simulated world shift applied when measuring (stands in "
        "for the drifted machine; match the serve-side drill)",
    )
    p.add_argument("--shift-algids", metavar="IDS", default=None,
                   help="comma-separated algids the shift applies to")
    p.add_argument(
        "--force", action="store_true",
        help="one-shot mode: retrain even when the detector is quiet",
    )
    p.add_argument("--watch", action="store_true",
                   help="poll the feedback log and retrain on every "
                   "drift trigger instead of one-shot")
    p.add_argument("--interval", type=float, default=0.5, metavar="SECONDS",
                   help="poll interval for --watch")
    p.add_argument(
        "--max-rounds", type=int, default=0, metavar="N",
        help="exit --watch after N retrains (0 = run until interrupted)",
    )
    p.add_argument(
        "--rules-out", metavar="PATH", default=None,
        help="write the refitted selection table as a rules file here",
    )
    p.add_argument("--nodes", type=int, default=4,
                   help="allocation nodes for --rules-out")
    p.add_argument("--ppn", type=int, default=2,
                   help="allocation ppn for --rules-out")
    p.add_argument(
        "--fleet", metavar="HOST:PORT", default=None,
        help="after writing --rules-out, trigger this fleet's "
        "coordinated two-phase reload over its socket",
    )
    p.add_argument("--telemetry", metavar="PATH", default=None,
                   help="write JSONL telemetry events to PATH")

    p = sub.add_parser(
        "lint",
        help="repo-aware static analysis: determinism, atomic writes, "
        "asyncio-safety, lock discipline (REP001-REP006; see "
        "docs/static-analysis.md)",
    )
    from repro.analysis.cli import add_lint_arguments

    add_lint_arguments(p)

    p = sub.add_parser(
        "report", help="summarize a telemetry JSONL log (top spans, counters)"
    )
    p.add_argument(
        "--telemetry", metavar="PATH", required=True,
        help="JSONL event log written by --telemetry on generate/tune",
    )
    p.add_argument(
        "--top", type=int, default=10,
        help="how many spans to show (by total wall time)",
    )

    return parser


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import run_lint

    return run_lint(args)


_COMMANDS = {
    "machines": _cmd_machines,
    "generate": _cmd_generate,
    "tune": _cmd_tune,
    "predict": _cmd_predict,
    "experiment": _cmd_experiment,
    "serve": _cmd_serve,
    "retrain": _cmd_retrain,
    "lint": _cmd_lint,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
