"""Query-throughput gate: batched vector search vs. the per-query loop.

The serving path of the paper (Section IV-D) is Euclidean k-NN over
encoded vectors.  This bench measures, on a synthetic clustered vector
database standing in for encoded trips (routes cluster in representation
space, which is exactly what makes LSH useful there):

* **exact_loop** — the pre-batching serving path, kept here as the
  baseline: one full-database scan per query (:func:`knn_scan`, a python
  loop over queries);
* **exact_batch** — ``ExactIndex.knn_batch``: the whole query block
  through the blocked ``||x||² + ||q||² − 2·X@Qᵀ`` GEMM kernel;
* **lsh_loop** — one ``LSHIndex.knn`` per query;
* **lsh_batch** — ``LSHIndex.knn_batch``: batched signatures, queries
  grouped by bucket, exact re-ranking per group.

Reported per mode: queries/sec (from the best round) and per-query
latency percentiles through the telemetry registry.  LSH modes also
report recall against the exact top-k.

Timing protocol (same as bench_throughput): the host is a contended
CPU, so the modes are interleaved round-robin and each keeps its
*minimum* round time — the minimum converges to the uncontended cost
and every mode sees the same interference pattern.

Run standalone (writes ``BENCH_search.json`` at the repo root)::

    PYTHONPATH=src python benchmarks/bench_search.py [--smoke]

or under pytest (``pytest benchmarks/bench_search.py``), which runs the
smoke profile.  ``REPRO_BENCH_FAST=1`` also selects the smoke profile.
Per-mode metrics additionally land in
``benchmarks/results/search_metrics.jsonl``.

Full-profile gate (checked when run standalone): batched exact must
clear ≥5x the per-query loop's queries/sec, and batched LSH must beat
batched exact at recall ≥ 0.9.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path
from typing import Tuple

import numpy as np

from repro.core.index import ExactIndex, LSHIndex
from repro.telemetry import MetricsRegistry, write_jsonl

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = Path(__file__).parent / "results"
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_search.json"

FAST = os.environ.get("REPRO_BENCH_FAST", "") not in ("", "0")

#: Workload profiles.  Vectors are a mixture of tight clusters (cluster
#: std << inter-center distance), mimicking encoded trajectories where
#: trips sharing a route land near each other; queries are perturbed
#: database members, so their true neighbours are cluster-mates.
PROFILES = {
    "full": dict(n=200_000, dim=64, clusters=2000, cluster_std=0.05,
                 queries=128, k=10, rounds=3,
                 num_tables=8, num_bits=16, block_rows=32768),
    "smoke": dict(n=4000, dim=32, clusters=80, cluster_std=0.05,
                  queries=32, k=5, rounds=2,
                  num_tables=8, num_bits=10, block_rows=1024),
}

MODES = ("exact_loop", "exact_batch", "lsh_loop", "lsh_batch")


def make_workload(profile: dict):
    """Clustered database vectors + queries near database members."""
    rng = np.random.default_rng(0)
    centers = rng.standard_normal((profile["clusters"], profile["dim"]))
    assign = np.arange(profile["n"]) % profile["clusters"]
    vectors = (centers[assign] + profile["cluster_std"]
               * rng.standard_normal((profile["n"], profile["dim"])))
    vectors = vectors.astype(np.float32)
    picks = rng.integers(0, profile["n"], size=profile["queries"])
    queries = (vectors[picks] + profile["cluster_std"]
               * rng.standard_normal((profile["queries"], profile["dim"]))
               .astype(np.float32))
    return vectors, queries.astype(np.float32)


def knn_scan(vectors: np.ndarray, query: np.ndarray,
             k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Single-query scan: every distance directly, then a top-k partition.

    The serving path before ``ExactIndex.knn_batch``; not instrumented.
    """
    query = np.asarray(query, dtype=vectors.dtype).reshape(-1)
    dists = np.sqrt(((vectors - query[None, :]) ** 2).sum(axis=1))
    k = min(k, len(dists))
    idx = np.argpartition(dists, k - 1)[:k]
    order = np.argsort(dists[idx], kind="stable")
    return idx[order], dists[idx[order]]


def run(smoke: bool = False, output: Path = DEFAULT_OUTPUT) -> dict:
    profile = PROFILES["smoke" if smoke else "full"]
    registry = MetricsRegistry()
    vectors, queries = make_workload(profile)
    k = profile["k"]
    num_q = len(queries)

    exact = ExactIndex(vectors, registry=registry,
                       block_rows=profile["block_rows"])
    lsh = LSHIndex(vectors, num_tables=profile["num_tables"],
                   num_bits=profile["num_bits"], seed=0, registry=registry,
                   block_rows=profile["block_rows"])

    def run_exact_loop():
        return np.stack([knn_scan(exact.vectors, q, k)[0] for q in queries])

    def run_exact_batch():
        return exact.knn_batch(queries, k)[0]

    def run_lsh_loop():
        return np.stack([lsh.knn(q, k)[0] for q in queries])

    def run_lsh_batch():
        return lsh.knn_batch(queries, k)[0]

    runners = {"exact_loop": run_exact_loop, "exact_batch": run_exact_batch,
               "lsh_loop": run_lsh_loop, "lsh_batch": run_lsh_batch}

    results = {mode: runners[mode]() for mode in MODES}   # warmup + output
    best = {mode: float("inf") for mode in MODES}
    for _ in range(profile["rounds"]):
        for mode in MODES:
            start = time.perf_counter()
            runners[mode]()
            elapsed = time.perf_counter() - start
            best[mode] = min(best[mode], elapsed)
            registry.histogram(f"search.{mode}.query_s").observe(
                elapsed / num_q)

    truth = [set(row.tolist()) for row in results["exact_batch"]]
    report_modes = {}
    for mode in MODES:
        qps = num_q / best[mode]
        registry.gauge(f"search.{mode}.queries_per_s").set(qps)
        hist = registry.histogram(f"search.{mode}.query_s")
        recall = float(np.mean([
            len(truth[i] & set(results[mode][i].tolist())) / k
            for i in range(num_q)]))
        report_modes[mode] = {
            "queries_per_s": round(qps, 1),
            "query_latency_s": {
                "min": round(min(hist.values), 8),
                "mean": round(hist.mean, 8),
                "p95": round(hist.percentile(95), 8),
            },
            "recall_vs_exact": round(recall, 4),
        }

    avg_candidates = registry.histogram("index.lsh.candidates")
    report = {
        "benchmark": "bench_search",
        "profile": "smoke" if smoke else "full",
        "workload": {key: profile[key] for key in
                     ("n", "dim", "clusters", "cluster_std", "queries", "k",
                      "num_tables", "num_bits", "block_rows")},
        "timing": "interleaved rounds, per-mode minimum round time",
        "results": report_modes,
        "summary": {
            "exact_batch_speedup": round(
                report_modes["exact_batch"]["queries_per_s"]
                / report_modes["exact_loop"]["queries_per_s"], 2),
            "lsh_batch_speedup": round(
                report_modes["lsh_batch"]["queries_per_s"]
                / report_modes["exact_loop"]["queries_per_s"], 2),
            "lsh_batch_vs_exact_batch": round(
                report_modes["lsh_batch"]["queries_per_s"]
                / report_modes["exact_batch"]["queries_per_s"], 2),
            "lsh_recall": report_modes["lsh_batch"]["recall_vs_exact"],
            "lsh_mean_candidates": round(avg_candidates.mean, 1)
            if avg_candidates.values else None,
        },
    }
    output.write_text(json.dumps(report, indent=2) + "\n")
    RESULTS_DIR.mkdir(exist_ok=True)
    write_jsonl(registry, RESULTS_DIR / "search_metrics.jsonl")

    lines = [f"search throughput ({report['profile']} profile) — "
             f"queries/sec over {profile['n']:,} vectors, k={k}"]
    for mode in MODES:
        res = report_modes[mode]
        lines.append(f"  {mode:11s}: {res['queries_per_s']:>10,.0f} q/s  "
                     f"p95 {res['query_latency_s']['p95'] * 1e6:>8,.1f} µs/q  "
                     f"recall {res['recall_vs_exact']:.3f}")
    summary = report["summary"]
    lines.append(f"  batched-exact speedup {summary['exact_batch_speedup']}x, "
                 f"lsh-batch vs exact-batch "
                 f"{summary['lsh_batch_vs_exact_batch']}x at recall "
                 f"{summary['lsh_recall']:.3f}")
    print("\n".join(lines))
    return report


def test_search_smoke(tmp_path):
    """Smoke gate: all four modes run end to end and the report is sane."""
    report = run(smoke=True, output=tmp_path / "BENCH_search.json")
    for mode in MODES:
        res = report["results"][mode]
        assert res["queries_per_s"] > 0
        assert res["query_latency_s"]["p95"] > 0
    assert report["results"]["exact_batch"]["recall_vs_exact"] == 1.0
    assert report["results"]["lsh_batch"]["recall_vs_exact"] > 0.5
    # Batched exact beats the per-query loop even at smoke scale.
    assert report["summary"]["exact_batch_speedup"] > 1.0
    assert (tmp_path / "BENCH_search.json").exists()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny profile for CI (also: REPRO_BENCH_FAST=1)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="where to write the JSON report")
    args = parser.parse_args(argv)
    report = run(smoke=args.smoke or FAST, output=args.output)
    if report["profile"] == "full":
        summary = report["summary"]
        assert summary["exact_batch_speedup"] >= 5.0, summary
        assert summary["lsh_batch_vs_exact_batch"] > 1.0, summary
        assert summary["lsh_recall"] >= 0.9, summary


if __name__ == "__main__":
    main()
