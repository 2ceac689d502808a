"""Data-pipeline gate: streaming pair synthesis throughput and padding.

The training pairs of the paper (Section IV-B: the r1 × r2 grid of
degraded variants, 16 per original) are synthesized by
``TrainingDataPipeline``.  This bench measures, on a synthetic Porto-like
archive, the pairs/sec of one epoch's token stream in three modes:

* **pipeline_w0** — in-process mode: fused per-original synthesis
  (target tokenized once, one KD-tree query for all 16 variants);
* **pipeline_w1 / pipeline_w4** — the same stream sharded across 1 / 4
  worker processes through the bounded result queue.

It also measures padding efficiency: padded-tokens-per-real-token of the
pipeline's length-bucketed batch stream versus shuffle-only batching of
the same token pairs (per bucketing window: shuffled pair order,
consecutive chunks; built here, the pipeline has no such mode).

Timing protocol (same as the sibling benches): the host is a contended
CPU, so the modes are interleaved round-robin and each keeps its
*minimum* round time — the minimum converges to the uncontended cost and
every mode sees the same interference pattern.

Regression gate: run standalone on the full profile, the bench compares
its pairs/sec with the committed ``BENCH_data.json`` before replacing
it.  It fails, and leaves that file as it is, if a mode is more than
``1 + TOLERANCE`` times slower than the committed value.  Bucketed
batching must also pad less than shuffle-only batching.

Run standalone (writes ``BENCH_data.json`` at the repo root)::

    PYTHONPATH=src python benchmarks/bench_data.py [--smoke]

or under pytest (``pytest benchmarks/bench_data.py``), which runs the
smoke profile.  ``REPRO_BENCH_FAST=1`` also selects the smoke profile.
Per-mode metrics additionally land in
``benchmarks/results/data_metrics.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np

from repro.data import make_batch
from repro.data.generator import porto_like
from repro.data.pipeline import TrainingDataPipeline
from repro.spatial import CellVocabulary, Grid
from repro.telemetry import MetricsRegistry, write_jsonl

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = Path(__file__).parent / "results"
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_data.json"

FAST = os.environ.get("REPRO_BENCH_FAST", "") not in ("", "0")

#: Workload profiles.  The full profile is a realistic training shard
#: (hundreds of trips, 16 pairs each); smoke keeps CI under a minute.
PROFILES = {
    "full": dict(trips=600, cell_size=100.0, min_hits=3, rounds=3,
                 batch_size=64, bucket_batches=8),
    "smoke": dict(trips=64, cell_size=100.0, min_hits=3, rounds=2,
                  batch_size=16, bucket_batches=8),
}

#: The full-profile gate fails when a mode's pairs/sec is more than
#: ``1 + TOLERANCE`` times lower than in the committed report.  Runs of
#: the same pipeline code on a shared 2-vCPU VM spread up to ~2.45x
#: (in-process mode; 16 runs across two host phases), so the gate
#: catches only larger regressions.
TOLERANCE = 1.5

MODES = ("pipeline_w0", "pipeline_w1", "pipeline_w4")
WORKERS = {"pipeline_w0": 0, "pipeline_w1": 1, "pipeline_w4": 4}


def make_workload(profile: dict):
    """A Porto-like archive plus the hot-cell vocabulary over it."""
    city = porto_like(seed=7)
    trips = city.generate(profile["trips"])
    points = city.all_points(trips)
    grid = Grid.covering(points, profile["cell_size"])
    vocab = CellVocabulary.build(grid, points, min_hits=profile["min_hits"])
    return trips, vocab


def pad_overhead(batches) -> float:
    """Padded tokens per real token over an assembled batch stream."""
    real = sum(float(b.src_mask.sum() + b.tgt_mask.sum()) for b in batches)
    total = sum(float(b.src_mask.size + b.tgt_mask.size) for b in batches)
    return (total - real) / real


def shuffled_batches(pairs, batch_size: int, window: int,
                     rng: np.random.Generator):
    """Shuffle-only batching over the pipeline's windows: each window of
    ``window`` pairs in shuffled order, cut into consecutive chunks."""
    for start in range(0, len(pairs), window):
        order = start + rng.permutation(min(window, len(pairs) - start))
        for i in range(0, len(order), batch_size):
            chunk = order[i:i + batch_size]
            yield make_batch([pairs[j][0] for j in chunk],
                             [pairs[j][1] for j in chunk])


def regressions(report: dict, baseline: dict) -> list:
    """Modes of ``report`` more than ``1 + TOLERANCE`` times slower than
    in ``baseline``."""
    found = []
    for mode, res in report["results"].items():
        slowdown = baseline["results"][mode]["pairs_per_s"] / res["pairs_per_s"]
        if slowdown > 1.0 + TOLERANCE:
            found.append(f"{mode} pairs_per_s: {slowdown:.2f}x slower")
    return found


def run(smoke: bool = False, output: Path = DEFAULT_OUTPUT,
        baseline: dict = None) -> dict:
    """Run the bench and write ``output``.

    With a ``baseline`` report, raise ``SystemExit`` instead of writing
    when a mode regressed beyond :data:`TOLERANCE`.
    """
    profile = PROFILES["smoke" if smoke else "full"]
    registry = MetricsRegistry()
    trips, vocab = make_workload(profile)
    num_pairs = 16 * len(trips)

    def make_runner(workers):
        pipeline = TrainingDataPipeline(trips, vocab, seed=0,
                                        num_workers=workers,
                                        registry=registry)
        return lambda: sum(1 for _ in pipeline.token_pairs())

    runners = {mode: make_runner(workers) for mode, workers in WORKERS.items()}

    for mode in MODES:                      # warm caches outside timing
        runners[mode]()
    best = {mode: float("inf") for mode in MODES}
    for _ in range(profile["rounds"]):
        for mode in MODES:
            start = time.perf_counter()
            runners[mode]()
            elapsed = time.perf_counter() - start
            best[mode] = min(best[mode], elapsed)
            registry.histogram(f"data.{mode}.epoch_s").observe(elapsed)

    report_modes = {}
    for mode in MODES:
        pairs_per_s = num_pairs / best[mode]
        registry.gauge(f"data.{mode}.pairs_per_s").set(pairs_per_s)
        report_modes[mode] = {
            "pairs_per_s": round(pairs_per_s, 1),
            "epoch_s": round(best[mode], 4),
        }

    # Padding efficiency: same pairs, bucketed vs shuffle-only batching.
    bucketed = TrainingDataPipeline(
        trips, vocab, seed=0, bucket_batches=profile["bucket_batches"],
        registry=registry)
    rng = np.random.default_rng(1)
    bucketed_overhead = pad_overhead(
        list(bucketed.batches(profile["batch_size"], rng)))
    shuffled_overhead = pad_overhead(list(shuffled_batches(
        list(bucketed.token_pairs()), profile["batch_size"],
        profile["batch_size"] * profile["bucket_batches"], rng)))
    registry.gauge("data.pad_overhead.bucketed").set(bucketed_overhead)
    registry.gauge("data.pad_overhead.shuffled").set(shuffled_overhead)

    report = {
        "benchmark": "bench_data",
        "profile": "smoke" if smoke else "full",
        "workload": {"trips": len(trips), "pairs": num_pairs,
                     "vocab_size": vocab.size,
                     "batch_size": profile["batch_size"],
                     "bucket_batches": profile["bucket_batches"]},
        "timing": "interleaved rounds, per-mode minimum round time",
        "tolerance": TOLERANCE,
        "results": report_modes,
        "padding": {
            "bucketed_pad_per_real_token": round(bucketed_overhead, 4),
            "shuffled_pad_per_real_token": round(shuffled_overhead, 4),
        },
        "summary": {
            "bucketing_pad_reduction": round(
                1.0 - bucketed_overhead / shuffled_overhead, 4),
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    write_jsonl(registry, RESULTS_DIR / "data_metrics.jsonl")

    lines = [f"data pipeline ({report['profile']} profile) — pairs/sec over "
             f"{len(trips)} trips ({num_pairs} pairs per epoch)"]
    for mode in MODES:
        res = report_modes[mode]
        lines.append(f"  {mode:12s}: {res['pairs_per_s']:>10,.0f} pairs/s  "
                     f"epoch {res['epoch_s'] * 1e3:>8,.1f} ms")
    summary = report["summary"]
    lines.append(f"  pad tokens per real token: "
                 f"{report['padding']['bucketed_pad_per_real_token']:.4f} "
                 f"bucketed vs "
                 f"{report['padding']['shuffled_pad_per_real_token']:.4f} "
                 f"shuffle-only "
                 f"({summary['bucketing_pad_reduction']:.1%} less padding)")
    print("\n".join(lines))

    if baseline is not None:
        found = regressions(report, baseline)
        if found:
            raise SystemExit(
                "data pipeline regressed against the committed report (left "
                "unchanged):\n  " + "\n  ".join(found))
    output.write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_data_smoke(tmp_path):
    """Smoke gate: every mode runs end to end and the report is sane."""
    report = run(smoke=True, output=tmp_path / "BENCH_data.json")
    for mode in MODES:
        assert report["results"][mode]["pairs_per_s"] > 0
    padding = report["padding"]
    assert padding["bucketed_pad_per_real_token"] >= 0
    # Length bucketing pads less than shuffle-only even at smoke scale.
    assert (padding["bucketed_pad_per_real_token"]
            < padding["shuffled_pad_per_real_token"])
    assert (tmp_path / "BENCH_data.json").exists()


def test_regressions_flag_only_beyond_tolerance():
    def report(pairs_per_s):
        return {"results": {mode: {"pairs_per_s": pairs_per_s}
                            for mode in MODES}}

    limit = 1.0 + TOLERANCE
    base = report(10_000.0)
    assert regressions(report(10_000.0 / limit + 1.0), base) == []
    assert len(regressions(report(10_000.0 / limit - 1.0), base)) == len(MODES)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny profile for CI (also: REPRO_BENCH_FAST=1)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="where to write the JSON report")
    args = parser.parse_args(argv)
    smoke = args.smoke or FAST
    baseline = None
    if not smoke and DEFAULT_OUTPUT.exists():
        committed = json.loads(DEFAULT_OUTPUT.read_text())
        if committed.get("profile") == "full":
            baseline = committed
    report = run(smoke=smoke, output=args.output, baseline=baseline)
    if report["profile"] == "full":
        summary = report["summary"]
        assert summary["bucketing_pad_reduction"] > 0.0, summary


if __name__ == "__main__":
    main()
