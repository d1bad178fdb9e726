"""The ``repro-hisrect`` command-line interface.

Subcommands cover the common workflows without writing Python:

* ``generate``   — build a synthetic dataset (``--preset`` by registry name)
  and save it to a directory.
* ``train``      — fit a co-location judge selected with ``--judge`` (any
  ``"judge"`` registry entry) on a saved dataset; pipeline-backed judges are
  saved to ``--out``.
* ``evaluate``   — Table 4 metrics of a saved pipeline on a saved dataset.
* ``infer-poi``  — Acc@K POI inference of a saved pipeline on a saved dataset.
* ``experiment`` — run one of the paper's table/figure experiments and print
  its report (the same runners the benchmark suite uses).
* ``serve-bench`` — fit a small judge and race the single-engine serving path
  against the sharded, micro-batched cluster on a skewed synthetic load
  (the same harness as ``benchmarks/bench_sharded_serving.py``); with
  ``--workers N`` the process-worker tier joins the race and ``--trace``
  appends per-stage latency breakdown tables.
* ``metrics``    — trace a small serving load end-to-end and dump the
  observability registry: the slowest request's span tree, the per-stage
  latency table and the Prometheus-style text exposition.
* ``worker``     — run one shard worker over a saved pipeline: ``--listen``
  accepts gateway connections standalone, ``--connect`` dials back into a
  running gateway (the loop spawned :class:`repro.cluster.WorkerPool` workers
  run in-process).
* ``components`` — list every registered component (judges, baselines,
  featurizer variants, dataset presets, training strategies).

Every subcommand prints a short, parseable report to stdout and returns a
process exit code (0 on success), so the CLI composes with shell scripts.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

import repro.registry as registry_mod
from repro.colocation import CoLocationPipeline, JudgeConfig, PipelineConfig
from repro.data import build_dataset
from repro.errors import ReproError
from repro.eval.metrics import accuracy_at_k, evaluate_judge
from repro.features import HisRectConfig
from repro.io import load_dataset, load_pipeline, save_dataset, save_pipeline
from repro.io.configs import config_to_dict
from repro.ssl import SSLTrainingConfig
from repro.text import SkipGramConfig
from repro.version import __version__


# ------------------------------------------------------------------- commands


def cmd_generate(args: argparse.Namespace) -> int:
    """Generate a synthetic dataset and save it to ``--out``."""
    config = registry_mod.build("preset", args.preset, {"scale": args.scale, "seed": args.seed})
    dataset = build_dataset(config, name=args.preset)
    directory = save_dataset(dataset, args.out)
    print(f"dataset saved to {directory}")
    for split, stats in dataset.statistics().items():
        rendered = ", ".join(f"{key}={value}" for key, value in stats.items())
        print(f"  {split}: {rendered}")
    return 0


def _pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    return PipelineConfig(
        hisrect=HisRectConfig(
            content_dim=args.content_dim,
            feature_dim=args.feature_dim,
            embedding_dim=args.embedding_dim,
            seed=args.seed,
        ),
        ssl=SSLTrainingConfig(max_iterations=args.ssl_iterations, seed=args.seed + 1),
        judge=JudgeConfig(
            embedding_dim=args.embedding_dim,
            classifier_dim=args.embedding_dim,
            epochs=args.judge_epochs,
            seed=args.seed + 2,
        ),
        skipgram=SkipGramConfig(embedding_dim=args.word_dim, seed=args.seed + 3),
        seed=args.seed,
    )


def cmd_train(args: argparse.Namespace) -> int:
    """Train a judge selected by registry name on a saved dataset."""
    from repro.colocation.variants import PIPELINE_VARIANTS

    judge_name = args.judge
    persistable = judge_name in PIPELINE_VARIANTS
    if persistable and args.out is None:
        raise ReproError("--out is required for pipeline-backed judges")
    dataset = load_dataset(args.dataset)
    config = _pipeline_config(args)
    if not args.use_unlabeled:
        config = replace(config, ssl=replace(config.ssl, use_unlabeled=False))
    config_dict = config_to_dict(config)
    if judge_name == "social":
        # The social approach nests its base pipeline's configuration; the
        # CLI flags size that base pipeline, the stacker keeps its defaults.
        config_dict = {"base": config_dict}
    approach = registry_mod.build("judge", judge_name, config_dict)
    approach.fit(dataset)
    print(f"trained judge {judge_name!r}")

    if isinstance(approach, CoLocationPipeline):
        pipeline = approach
        directory = save_pipeline(pipeline, args.out)
        print(f"pipeline saved to {directory}")
        if pipeline.ssl_history is not None:
            print(
                "  ssl: final poi loss "
                f"{pipeline.ssl_history.final_poi_loss}, final unsupervised loss "
                f"{pipeline.ssl_history.final_unsupervised_loss}"
            )
    else:
        if args.out is not None:
            print(f"judge {judge_name!r} has no persistence format; skipping --out")
        metrics = evaluate_judge(approach, dataset.test.labeled_pairs, num_folds=2)
        print(f"test pairs: {len(dataset.test.labeled_pairs)} (averaged over 2 balanced folds)")
        for name, value in metrics.as_dict().items():
            print(f"  {name} = {value:.4f}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    """Evaluate a saved pipeline on a saved dataset's test pairs."""
    dataset = load_dataset(args.dataset)
    pipeline = load_pipeline(args.model)
    metrics = evaluate_judge(pipeline, dataset.test.labeled_pairs, num_folds=args.folds)
    print(f"test pairs: {len(dataset.test.labeled_pairs)} (averaged over {args.folds} balanced folds)")
    for name, value in metrics.as_dict().items():
        print(f"  {name} = {value:.4f}")
    return 0


def cmd_infer_poi(args: argparse.Namespace) -> int:
    """POI-inference Acc@K of a saved pipeline on a saved dataset."""
    dataset = load_dataset(args.dataset)
    pipeline = load_pipeline(args.model)
    profiles = dataset.test.labeled_profiles
    if not profiles:
        print("the dataset's test split has no labelled profiles", file=sys.stderr)
        return 1
    registry = dataset.registry
    proba = pipeline.infer_poi_proba(profiles)
    true_indices = np.array([registry.index_of(p.pid) for p in profiles])
    print(f"profiles: {len(profiles)}, candidate POIs: {len(registry)}")
    for k in range(1, args.top_k + 1):
        print(f"  Acc@{k} = {accuracy_at_k(true_indices, proba, k):.4f}")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    """Run one of the paper's experiments and print its report."""
    # Imported lazily: the experiment runners pull in every approach.
    from repro.experiments import delta_t, extensions, figure4, figure5, parameters, shared_context
    from repro.experiments import ssl_alternatives, table2, table4, table5, table8

    runners = {
        "table2": lambda ctx: table2.format_report(table2.run(ctx)),
        "table4": lambda ctx: table4.format_report(table4.run(ctx, datasets=(args.dataset,))),
        "table5": lambda ctx: table5.format_report(table5.run(ctx, dataset=args.dataset)),
        "table8": lambda ctx: table8.format_report(table8.run(ctx, dataset=args.dataset)),
        "figure4": lambda ctx: figure4.format_report(figure4.run(ctx, datasets=(args.dataset,))),
        "figure5": lambda ctx: figure5.format_report(figure5.run(ctx, dataset=args.dataset)),
        "ssl-alternatives": lambda ctx: ssl_alternatives.format_report(
            ssl_alternatives.run(ctx, dataset=args.dataset)
        ),
        "delta-t": lambda ctx: delta_t.format_report(delta_t.run(ctx, dataset=args.dataset)),
        "eps-d": lambda ctx: parameters.format_report(
            parameters.run_eps_d(ctx, dataset=args.dataset),
            title="Ablation: history smoothing factor eps_d",
        ),
        "extension-encoders": lambda ctx: extensions.format_encoder_report(
            extensions.run_encoders(ctx, dataset=args.dataset)
        ),
        "extension-social": lambda ctx: extensions.format_social_report(
            extensions.run_social(ctx, dataset=args.dataset)
        ),
    }
    if args.name not in runners:
        print(f"unknown experiment {args.name!r}; choose from {sorted(runners)}", file=sys.stderr)
        return 2
    context = shared_context(args.scale)
    print(runners[args.name](context))
    return 0


def cmd_serve_bench(args: argparse.Namespace) -> int:
    """Race single-engine vs. sharded micro-batched serving on a skewed load."""
    # Imported lazily: the cluster load generator pulls in the full pipeline.
    from repro.cluster.loadgen import (
        LoadConfig,
        compare_serving_paths,
        fit_serving_pipeline,
        generate_requests,
    )

    config = LoadConfig(
        num_users=args.users,
        num_requests=args.requests,
        pairs_per_request=args.pairs,
        zipf_s=args.skew,
        seed=args.seed,
    )
    print(
        f"fitting the serving judge and generating {config.num_requests} requests "
        f"({config.pairs_per_request} pairs each, {config.num_users} users, "
        f"zipf s={config.zipf_s}) ..."
    )
    pipeline, dataset = fit_serving_pipeline(seed=args.seed)
    requests = generate_requests(dataset.registry, dataset.training_corpus(), config)
    report = compare_serving_paths(
        pipeline,
        requests,
        num_shards=args.shards,
        cache_size=args.cache_size,
        max_batch=args.max_batch,
        max_delay_ms=args.max_delay_ms,
        num_workers=args.workers if args.workers > 0 else None,
        trace=args.trace,
    )
    print(report.format())
    failures = report.failures()
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _traced_serve(engine, serve_requests):
    """Micro-batched typed serve — the front door every transport shares."""
    from repro.cluster.batcher import MicroBatcher

    with MicroBatcher(engine, max_batch=64, overflow="block") as batcher:
        futures = [batcher.submit_serve(request) for request in serve_requests]
        return [future.result() for future in futures]


def cmd_metrics(args: argparse.Namespace) -> int:
    """Trace a small serving load end-to-end and dump the metrics registry."""
    # Imported lazily: the cluster load generator pulls in the full pipeline.
    from repro.api import JudgeRequest
    from repro.cluster.gateway import WorkerPool
    from repro.cluster.loadgen import (
        LoadConfig,
        fit_serving_pipeline,
        generate_requests,
    )
    from repro.cluster.sharded import ShardedEngine
    from repro.obs import format_stage_table, tracing

    config = LoadConfig(
        num_users=args.users,
        num_requests=args.requests,
        pairs_per_request=args.pairs,
        seed=args.seed,
    )
    tier = f"workers x{args.workers}" if args.workers > 0 else f"sharded x{args.shards}"
    print(
        f"fitting the serving judge and tracing {config.num_requests} requests "
        f"through the micro-batched {tier} tier ..."
    )
    pipeline, dataset = fit_serving_pipeline(seed=args.seed)
    requests = generate_requests(dataset.registry, dataset.training_corpus(), config)
    serve_requests = [JudgeRequest(pairs=tuple(pairs)) for pairs in requests]
    with tracing() as tracer:
        if args.workers > 0:
            with WorkerPool(
                pipeline, num_workers=args.workers, cache_size=args.cache_size
            ) as pool:
                responses = _traced_serve(pool, serve_requests)
                # Gateway-side stages plus every worker's `stats` snapshot.
                registry = pool.obs_snapshot()
        else:
            with ShardedEngine(
                pipeline, num_shards=args.shards, cache_size=args.cache_size
            ) as engine:
                responses = _traced_serve(engine, serve_requests)
            registry = tracer.registry
    slowest = max(
        (response for response in responses if response.trace is not None),
        key=lambda response: sum(ms for _, ms in response.trace["stages"]),
        default=None,
    )
    if slowest is not None:
        total = sum(ms for _, ms in slowest.trace["stages"])
        print(f"slowest traced request {slowest.trace['trace_id']} ({total:.3f} ms):")
        for name, ms in slowest.trace["stages"]:
            print(f"  {name:<16} {ms:>10.3f} ms")
        print()
    print(format_stage_table(registry))
    print()
    print(registry.to_text())
    return 0


def _parse_endpoint(value: str) -> tuple[str, int]:
    host, separator, port = value.rpartition(":")
    if not separator or not port.isdigit():
        raise ReproError(f"endpoint {value!r} is not HOST:PORT")
    return (host or "127.0.0.1", int(port))


def cmd_worker(args: argparse.Namespace) -> int:
    """Run one shard worker over a saved pipeline (or worker bundle)."""
    import pathlib

    from repro.cluster.worker import (
        load_judge_bundle,
        run_worker_client,
        run_worker_listener,
    )

    if args.connect and args.token is None:
        print("error: --connect requires --token", file=sys.stderr)
        return 2
    model_dir = pathlib.Path(args.model)
    if (model_dir / "bundle.json").exists():
        judge = load_judge_bundle(model_dir)
    else:
        judge = load_pipeline(args.model)
    knobs = {
        "cache_size": args.cache_size,
        "arena_dir": args.arena_dir,
    }
    if args.connect:
        host, port = _parse_endpoint(args.connect)
        run_worker_client(judge, host, port, args.token, args.id, **knobs)
        return 0
    host, port = _parse_endpoint(args.listen)
    run_worker_listener(
        judge,
        host,
        port,
        once=args.once,
        ready=lambda address: print(f"worker listening on {address[0]}:{address[1]}", flush=True),
        **knobs,
    )
    return 0


def cmd_components(args: argparse.Namespace) -> int:
    """List every registered component, grouped by kind."""
    kinds = (args.kind,) if args.kind else registry_mod.kinds()
    for kind in kinds:
        print(f"{kind}:")
        for name in registry_mod.names(kind):
            description = registry_mod.spec(kind, name).description
            suffix = f" — {description}" if description else ""
            print(f"  {name}{suffix}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """Run the repro.analysis invariant checker over the source tree."""
    from repro.analysis.cli import run as analysis_run

    return analysis_run(
        args.paths,
        format=args.format,
        baseline_path=args.baseline,
        no_baseline=args.no_baseline,
        write_baseline_file=args.write_baseline,
        rules=args.rules,
    )


# --------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for the test suite)."""
    parser = argparse.ArgumentParser(
        prog="repro-hisrect",
        description="HisRect co-location judgement: datasets, training, evaluation, experiments.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate a synthetic dataset")
    generate.add_argument("--preset", choices=registry_mod.names("preset"), default="nyc")
    generate.add_argument("--scale", type=float, default=0.5, help="dataset size multiplier")
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument("--out", required=True, help="output directory")
    generate.set_defaults(func=cmd_generate)

    train = subparsers.add_parser("train", help="train a co-location judge on a saved dataset")
    train.add_argument("--dataset", required=True, help="dataset directory from `generate`")
    train.add_argument("--out", help="output directory for the fitted pipeline")
    train.add_argument(
        "--judge",
        choices=registry_mod.names("judge"),
        default="hisrect",
        help="judge registry name (default: hisrect)",
    )
    train.add_argument("--ssl-iterations", type=int, default=240)
    train.add_argument("--judge-epochs", type=int, default=30)
    train.add_argument("--content-dim", type=int, default=16)
    train.add_argument("--feature-dim", type=int, default=32)
    train.add_argument("--embedding-dim", type=int, default=16)
    train.add_argument("--word-dim", type=int, default=32)
    train.add_argument("--seed", type=int, default=97)
    train.add_argument(
        "--no-unlabeled",
        dest="use_unlabeled",
        action="store_false",
        help="disable the semi-supervised loss (the HisRect-SL ablation)",
    )
    train.set_defaults(func=cmd_train, use_unlabeled=True)

    evaluate = subparsers.add_parser("evaluate", help="Table 4 metrics of a saved pipeline")
    evaluate.add_argument("--dataset", required=True)
    evaluate.add_argument("--model", required=True)
    evaluate.add_argument("--folds", type=int, default=10, help="balanced negative folds")
    evaluate.set_defaults(func=cmd_evaluate)

    infer = subparsers.add_parser("infer-poi", help="POI inference Acc@K of a saved pipeline")
    infer.add_argument("--dataset", required=True)
    infer.add_argument("--model", required=True)
    infer.add_argument("--top-k", type=int, default=5)
    infer.set_defaults(func=cmd_infer_poi)

    experiment = subparsers.add_parser("experiment", help="run one of the paper's experiments")
    experiment.add_argument("name", help="table2, table4, table5, table8, figure4, figure5, "
                                         "ssl-alternatives, delta-t, eps-d, extension-encoders "
                                         "or extension-social")
    experiment.add_argument("--dataset", choices=("nyc", "lv"), default="nyc")
    experiment.add_argument("--scale", choices=("smoke", "default", "full"), default="smoke")
    experiment.set_defaults(func=cmd_experiment)

    serve_bench = subparsers.add_parser(
        "serve-bench", help="race single-engine vs. sharded micro-batched serving"
    )
    serve_bench.add_argument("--shards", type=int, default=4, help="engine shards")
    serve_bench.add_argument("--requests", type=int, default=384, help="requests to serve")
    serve_bench.add_argument("--pairs", type=int, default=4, help="pairs per request")
    serve_bench.add_argument("--users", type=int, default=256, help="distinct users in the mix")
    serve_bench.add_argument("--skew", type=float, default=1.1, help="Zipf exponent of the user mix")
    serve_bench.add_argument("--cache-size", type=int, default=4096, help="total feature-cache budget")
    serve_bench.add_argument("--max-batch", type=int, default=256, help="micro-batch flush size")
    serve_bench.add_argument("--max-delay-ms", type=float, default=0.0, help="micro-batch flush delay")
    serve_bench.add_argument("--seed", type=int, default=23)
    serve_bench.add_argument(
        "--workers",
        type=int,
        default=0,
        help="also race a WorkerPool with this many worker processes (0 = off)",
    )
    serve_bench.add_argument(
        "--trace",
        action="store_true",
        help="trace every pass and append per-stage latency breakdown tables",
    )
    serve_bench.set_defaults(func=cmd_serve_bench)

    metrics = subparsers.add_parser(
        "metrics", help="trace a small serving load and dump the metrics registry"
    )
    metrics.add_argument("--shards", type=int, default=4, help="engine shards")
    metrics.add_argument("--requests", type=int, default=96, help="requests to trace")
    metrics.add_argument("--pairs", type=int, default=4, help="pairs per request")
    metrics.add_argument("--users", type=int, default=64, help="distinct users in the mix")
    metrics.add_argument("--cache-size", type=int, default=4096, help="feature-cache rows")
    metrics.add_argument("--seed", type=int, default=23)
    metrics.add_argument(
        "--workers",
        type=int,
        default=0,
        help="trace the process-worker tier instead, with this many workers",
    )
    metrics.set_defaults(func=cmd_metrics)

    worker = subparsers.add_parser(
        "worker", help="run one shard worker over a saved pipeline"
    )
    worker.add_argument("--model", required=True, help="pipeline or worker-bundle directory")
    endpoint = worker.add_mutually_exclusive_group(required=True)
    endpoint.add_argument("--listen", help="HOST:PORT to accept gateway connections on")
    endpoint.add_argument("--connect", help="HOST:PORT of a gateway to dial back into")
    worker.add_argument("--id", type=int, default=0, help="worker index (with --connect)")
    worker.add_argument("--token", help="gateway HELLO token (with --connect)")
    worker.add_argument("--cache-size", type=int, default=4096, help="feature-cache rows")
    worker.add_argument(
        "--arena-dir",
        default=None,
        help="memmap arena slice directory for the cold feature tier",
    )
    worker.add_argument(
        "--once", action="store_true", help="exit after the first connection (with --listen)"
    )
    worker.set_defaults(func=cmd_worker)

    components = subparsers.add_parser("components", help="list registered components")
    components.add_argument(
        "--kind",
        choices=registry_mod.kinds(),
        default=None,
        help="restrict the listing to one component kind",
    )
    components.set_defaults(func=cmd_components)

    check = subparsers.add_parser(
        "check",
        help="run the repro.analysis invariant checker (same as `python -m repro.analysis`)",
    )
    check.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories to check (default: src)"
    )
    check.add_argument("--format", choices=("text", "json"), default="text")
    check.add_argument(
        "--baseline",
        default="analysis-baseline.json",
        help="baseline file of grandfathered findings (missing file = empty baseline)",
    )
    check.add_argument("--no-baseline", action="store_true", help="ignore the baseline file")
    check.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite the baseline to accept every current finding",
    )
    check.add_argument("--rules", default="", help="comma-separated subset of rule ids")
    check.set_defaults(func=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
