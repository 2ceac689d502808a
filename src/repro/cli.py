"""Command-line interface: ``python -m repro <command>``.

Wraps the library's main workflows for shell use:

* ``generate`` — synthesize a trajectory archive (or convert a Porto CSV).
* ``train``    — fit a t2vec model on an archive.
* ``encode``   — embed an archive into vectors with a trained model.
* ``knn``      — query the k most similar trajectories.
* ``evaluate`` — run the most-similar-search mean-rank experiment.
* ``stats``    — summarize a metrics JSONL file written by the above.

Every command reads/writes plain ``.npz`` files, so the steps compose::

    python -m repro generate --city porto --trips 400 --out trips.npz
    python -m repro train --data trips.npz --out model.npz --epochs 8
    python -m repro knn --model model.npz --data trips.npz --query 0 --k 5

``train``/``encode``/``knn``/``evaluate`` accept ``--metrics-out FILE``
to dump the run's telemetry (loss curve, tokens/sec, latency histograms,
cache hit counters) as JSONL; ``repro stats --metrics FILE`` renders it.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="t2vec trajectory similarity (ICDE 2018 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize a trajectory archive")
    gen.add_argument("--city", choices=["porto", "harbin"], default="porto")
    gen.add_argument("--trips", type=int, default=300)
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument("--porto-csv", default=None,
                     help="load this real Porto CSV instead of synthesizing")
    gen.add_argument("--out", required=True, help="output archive (.npz)")

    train = sub.add_parser("train", help="fit a t2vec model on an archive")
    train.add_argument("--data", required=True)
    train.add_argument("--out", required=True, help="output model (.npz)")
    train.add_argument("--cell-size", type=float, default=100.0)
    train.add_argument("--min-hits", type=int, default=5)
    train.add_argument("--hidden", type=int, default=64)
    train.add_argument("--layers", type=int, default=1)
    train.add_argument("--loss", choices=["L1", "L2", "L3"], default="L3")
    train.add_argument("--no-pretrain", action="store_true",
                       help="skip cell-embedding pretraining (CL)")
    train.add_argument("--epochs", type=int, default=10)
    train.add_argument("--batch-size", type=int, default=256)
    train.add_argument("--num-workers", type=int, default=0,
                       help="data-pipeline worker processes "
                            "(0 = synthesize pairs in-process)")
    train.add_argument("--bucket-batches", type=int, default=8,
                       help="length-sorting window of the data "
                            "pipeline, in batches")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--progress", action="store_true",
                       help="print a per-epoch progress line to stderr")

    encode = sub.add_parser("encode", help="embed an archive into vectors")
    encode.add_argument("--model", required=True)
    encode.add_argument("--data", required=True)
    encode.add_argument("--out", required=True, help="output vectors (.npz)")

    knn = sub.add_parser("knn", help="k nearest trajectories to one query")
    knn.add_argument("--model", required=True)
    knn.add_argument("--data", required=True, help="database archive")
    knn.add_argument("--query", type=int, required=True,
                     help="index of the query trajectory in the archive")
    knn.add_argument("--k", type=int, default=5)

    evaluate = sub.add_parser(
        "evaluate", help="most-similar-search mean rank on an archive")
    evaluate.add_argument("--model", required=True)
    evaluate.add_argument("--data", required=True)
    evaluate.add_argument("--queries", type=int, default=20)
    evaluate.add_argument("--dropping-rate", type=float, default=0.0)
    evaluate.add_argument("--distorting-rate", type=float, default=0.0)
    evaluate.add_argument("--seed", type=int, default=7)

    for command in (train, encode, knn, evaluate):
        command.add_argument(
            "--metrics-out", default=None, metavar="FILE",
            help="write this run's telemetry as JSONL (see `repro stats`)")

    stats = sub.add_parser(
        "stats", help="summarize a metrics JSONL file (--metrics-out)")
    stats.add_argument("--metrics", required=True,
                       help="metrics JSONL written by --metrics-out")
    stats.add_argument("--width", type=int, default=60,
                       help="chart width for gauge-history curves")
    return parser


# ----------------------------------------------------------------------
# Command implementations
# ----------------------------------------------------------------------
def _cmd_generate(args) -> int:
    from .data import (dataset_statistics, harbin_like, load_porto,
                       porto_like, save_archive)
    if args.porto_csv:
        trips = load_porto(args.porto_csv, max_trips=args.trips)
    else:
        city = porto_like(args.seed) if args.city == "porto" else harbin_like(args.seed)
        trips = city.generate(args.trips)
    save_archive(args.out, trips)
    stats = dataset_statistics(trips)
    print(f"wrote {args.out}: {stats['num_trips']} trips, "
          f"{stats['num_points']} points, "
          f"mean length {stats['mean_length']:.1f}")
    return 0


def _cmd_train(args) -> int:
    from .core import LossSpec, T2Vec, T2VecConfig, TrainingConfig
    from .data import load_archive
    trips = load_archive(args.data)
    config = T2VecConfig(
        cell_size=args.cell_size, min_hits=args.min_hits,
        embedding_size=args.hidden, hidden_size=args.hidden,
        num_layers=args.layers,
        loss=LossSpec(kind=args.loss),
        pretrain_cells=not args.no_pretrain,
        training=TrainingConfig(batch_size=args.batch_size,
                                max_epochs=args.epochs,
                                num_workers=args.num_workers,
                                bucket_batches=args.bucket_batches),
        seed=args.seed,
    )
    model = T2Vec(config)
    callbacks = []
    if args.progress:
        from .telemetry import ProgressLogger
        callbacks.append(ProgressLogger())
    result = model.fit(trips, callbacks=callbacks)
    model.save(args.out)
    best = (f"{result.best_val_loss:.4f}"
            if np.isfinite(result.best_val_loss) else "n/a")
    print(f"wrote {args.out}: {result.epochs_run} epochs, "
          f"{result.steps} steps, best validation loss {best}, "
          f"{model.vocab.num_hot_cells} hot cells")
    return 0


def _cmd_encode(args) -> int:
    from .core import T2Vec
    from .data import load_archive
    model = T2Vec.load(args.model)
    trips = load_archive(args.data)
    vectors = model.encode_many(trips)
    np.savez(args.out, vectors=vectors)
    print(f"wrote {args.out}: {vectors.shape[0]} vectors "
          f"of dimension {vectors.shape[1]}")
    return 0


def _cmd_knn(args) -> int:
    from .core import ExactIndex, T2Vec
    from .data import load_archive
    model = T2Vec.load(args.model)
    trips = load_archive(args.data)
    if not 0 <= args.query < len(trips):
        print(f"error: query index {args.query} out of range "
              f"[0, {len(trips)})", file=sys.stderr)
        return 2
    index = ExactIndex(model.encode_many(trips))
    order, dists = index.knn(model.encode(trips[args.query]),
                             min(args.k, len(trips)))
    print(f"{'rank':>4}  {'index':>6}  {'distance':>9}")
    for rank, (idx, dist) in enumerate(zip(order, dists), start=1):
        print(f"{rank:>4}  {idx:>6}  {dist:>9.4f}")
    return 0


def _cmd_evaluate(args) -> int:
    from .core import T2Vec
    from .data import load_archive
    from .eval import build_setup, mean_rank
    model = T2Vec.load(args.model)
    trips = load_archive(args.data)
    n_queries = min(args.queries, max(1, len(trips) // 3))
    setup = build_setup(
        trips[:n_queries * 2], trips[n_queries * 2:], n_queries,
        dropping_rate=args.dropping_rate,
        distorting_rate=args.distorting_rate,
        rng=np.random.default_rng(args.seed))
    rank = mean_rank(model, setup)
    print(f"mean rank over {len(setup.queries)} queries "
          f"(db size {len(setup.database)}, r1={args.dropping_rate}, "
          f"r2={args.distorting_rate}): {rank:.2f}")
    return 0


def _cmd_stats(args) -> int:
    import math

    from .telemetry import cache_hit_rate, read_jsonl, summarize
    try:
        records = read_jsonl(args.metrics)
    except FileNotFoundError:
        print(f"error: no such metrics file: {args.metrics}", file=sys.stderr)
        return 2
    print(summarize(records, width=args.width))
    hit_rate = cache_hit_rate(records)
    if not math.isnan(hit_rate):
        print(f"\nencode cache hit rate: {hit_rate:.1%}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "train": _cmd_train,
    "encode": _cmd_encode,
    "knn": _cmd_knn,
    "evaluate": _cmd_evaluate,
    "stats": _cmd_stats,
}


def main(argv: Optional[List[str]] = None) -> int:
    from .telemetry import MetricsRegistry, set_registry, write_jsonl

    args = build_parser().parse_args(argv)
    # Each CLI invocation gets a fresh default registry so --metrics-out
    # captures exactly this run (and repeated main() calls don't mix).
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        code = _COMMANDS[args.command](args)
        metrics_out = getattr(args, "metrics_out", None)
        if metrics_out and code == 0:
            count = write_jsonl(registry, metrics_out)
            print(f"wrote {metrics_out}: {count} metric records")
        return code
    finally:
        set_registry(previous)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
