"""Throughput gate for the RNN path: training, encoding and generation.

Measures, for both ``rnn_type="gru"`` and ``"lstm"``:

* **train tokens/sec** — a full training step (encode, decode, loss,
  backward, Adam update) on a synthetic padded batch, with tokens counted
  the same way :class:`~repro.core.trainer.Trainer` counts them
  (``src_mask.sum() + tgt_mask.sum()``);
* **encode latency** — eval-mode ``model.encode`` of the whole batch;
* **greedy and beam decode latency** — ``greedy_decode`` and
  ``beam_decode`` (width 4) of a single trajectory (B=1), the calls
  ``T2Vec.reconstruct_route`` makes.  Every generation step is a ``T=1``
  call of the decoder stack.

Latencies are recorded as histograms, so the JSON carries min / mean /
p50 / p95.

Timing protocol: the host is a contended CPU, so a single wall-clock
sample can be ~2x off.  Every round times each quantity once, the
quantities interleaved, and each keeps its *minimum* — the minimum
converges to the uncontended cost.

Regression gate: run standalone on the full profile, the bench compares
its numbers with the committed ``BENCH_throughput.json`` before
replacing it.  It fails, and leaves that file as it is, if train
tokens/sec or a latency minimum is more than ``1 + TOLERANCE`` times
slower than the committed value.

Run standalone (writes ``BENCH_throughput.json`` at the repo root)::

    PYTHONPATH=src python benchmarks/bench_throughput.py [--smoke]

or under pytest (``pytest benchmarks/bench_throughput.py``), which runs
the smoke profile.  ``REPRO_BENCH_FAST=1`` also selects the smoke
profile, matching the other benches.  Per-quantity metrics additionally
land in ``benchmarks/results/throughput_metrics.jsonl`` via the
telemetry registry.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np

from repro.core.encoder_decoder import EncoderDecoder, ModelConfig
from repro.core.losses import LossSpec, sequence_loss
from repro.data.dataset import pad_batch
from repro.nn.optim import Adam
from repro.spatial.vocab import BOS, EOS
from repro.telemetry import MetricsRegistry, write_jsonl

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = Path(__file__).parent / "results"
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_throughput.json"

FAST = os.environ.get("REPRO_BENCH_FAST", "") not in ("", "0")

#: The full-profile gate fails when a quantity is more than
#: ``1 + TOLERANCE`` times slower than in the committed report.  Runs of
#: the same code on a shared 2-vCPU VM spread up to ~1.9x (17 runs),
#: following the host's fast and slow phases, so the gate catches only
#: larger regressions; e2ebench resolves finer ones.
TOLERANCE = 1.0

#: Synthetic workload profiles.  The full profile mirrors the paper's
#: regime (long trajectories, hundreds of points) at benchmark scale.
PROFILES = {
    "full": dict(vocab=200, max_len=150, batch=8, hidden=128, layers=3,
                 dropout=0.1, rounds=12, greedy_max_len=100, beam_width=4,
                 beam_max_len=40),
    "smoke": dict(vocab=64, max_len=24, batch=4, hidden=24, layers=2,
                  dropout=0.1, rounds=3, greedy_max_len=20, beam_width=4,
                  beam_max_len=10),
}

LATENCIES = ("encode", "greedy", "beam")


def make_batch(rng: np.random.Generator, vocab: int, max_len: int, batch: int):
    """A padded synthetic batch framed the way the Trainer frames one."""
    seqs = [rng.integers(4, vocab, size=int(rng.integers(max_len // 2, max_len)))
            for _ in range(batch)]
    src, src_mask = pad_batch(seqs)
    tgt_in, _ = pad_batch([np.concatenate(([BOS], s)) for s in seqs])
    tgt_out, tgt_mask = pad_batch([np.concatenate((s, [EOS])) for s in seqs])
    return src, src_mask, tgt_in, tgt_out, tgt_mask


def build_model(profile: dict, rnn_type: str) -> EncoderDecoder:
    return EncoderDecoder(ModelConfig(
        vocab_size=profile["vocab"],
        embedding_size=profile["hidden"],
        hidden_size=profile["hidden"],
        num_layers=profile["layers"],
        dropout=profile["dropout"],
        rnn_type=rnn_type,
        seed=0,
    ))


def bench_rnn_type(rnn_type: str, profile: dict,
                   registry: MetricsRegistry) -> dict:
    """Time train steps, encodes and B=1 decodes for one rnn_type."""
    rng = np.random.default_rng(0)
    src, src_mask, tgt_in, tgt_out, tgt_mask = make_batch(
        rng, profile["vocab"], profile["max_len"], profile["batch"])
    tokens = int(src_mask.sum() + tgt_mask.sum())
    # The first trajectory alone, unpadded: a route-recovery request.
    length = int(src_mask[:, 0].sum())
    one_src, one_mask = src[:length, :1], src_mask[:length, :1]

    model = build_model(profile, rnn_type)
    optimizer = Adam(model.parameters(), lr=1e-3)
    spec = LossSpec(kind="L1")
    # Latencies use an untrained twin, so every round decodes the same
    # tokens while ``model`` keeps training.
    probe = build_model(profile, rnn_type).eval()

    def train_step() -> None:
        optimizer.zero_grad()
        _, state = model.encode(src, src_mask)
        hidden = model.decode(tgt_in, state, tgt_mask)
        loss = sequence_loss(model, hidden, tgt_out, tgt_mask, None, spec)
        loss.backward()
        optimizer.step()

    decoded = {}

    def greedy():
        decoded["greedy"] = probe.greedy_decode(
            one_src, one_mask, max_len=profile["greedy_max_len"])[0]

    def beam():
        decoded["beam"] = probe.beam_decode(
            one_src, one_mask, beam_width=profile["beam_width"],
            max_len=profile["beam_max_len"])[0]

    timed = {"encode": lambda: probe.encode(src, src_mask),
             "greedy": greedy, "beam": beam}

    def run_round(record: bool) -> None:
        start = time.perf_counter()
        train_step()
        elapsed = time.perf_counter() - start
        if record:
            registry.histogram(f"{rnn_type}.train.step_s").observe(elapsed)
            registry.counter(f"{rnn_type}.train.tokens").inc(tokens)
        for name, call in timed.items():
            start = time.perf_counter()
            call()
            elapsed = time.perf_counter() - start
            if record:
                registry.histogram(
                    f"{rnn_type}.{name}.latency_s").observe(elapsed)

    run_round(record=False)                 # warm caches outside timing
    for _ in range(profile["rounds"]):
        run_round(record=True)

    best_step = min(registry.histogram(f"{rnn_type}.train.step_s").values)
    tokens_per_s = tokens / best_step
    registry.gauge(f"{rnn_type}.train.tokens_per_s").set(tokens_per_s)
    result = {
        "tokens_per_step": tokens,
        "train_tokens_per_s": round(tokens_per_s, 1),
        "train_step_s": round(best_step, 6),
    }
    for name in LATENCIES:
        hist = registry.histogram(f"{rnn_type}.{name}.latency_s")
        result[f"{name}_latency_s"] = {
            "min": round(min(hist.values), 6),
            "mean": round(hist.mean, 6),
            "p50": round(hist.percentile(50), 6),
            "p95": round(hist.percentile(95), 6),
        }
    result["decoded_tokens"] = {name: len(seq) for name, seq in decoded.items()}
    return result


def regressions(report: dict, baseline: dict) -> list:
    """Quantities of ``report`` more than ``1 + TOLERANCE`` times slower
    than in ``baseline``."""
    found = []
    for rnn_type, res in report["results"].items():
        old = baseline["results"][rnn_type]
        slowdowns = {"train_tokens_per_s": (old["train_tokens_per_s"]
                                            / res["train_tokens_per_s"])}
        for name in LATENCIES:
            key = f"{name}_latency_s"
            slowdowns[f"{key} min"] = res[key]["min"] / old[key]["min"]
        found += [f"{rnn_type} {name}: {slowdown:.2f}x slower"
                  for name, slowdown in slowdowns.items()
                  if slowdown > 1.0 + TOLERANCE]
    return found


def run(smoke: bool = False, output: Path = DEFAULT_OUTPUT,
        baseline: dict = None) -> dict:
    """Run the bench and write ``output``.

    With a ``baseline`` report, raise ``SystemExit`` instead of writing
    when a quantity regressed beyond :data:`TOLERANCE`.
    """
    profile = PROFILES["smoke" if smoke else "full"]
    registry = MetricsRegistry()
    results = {}
    for rnn_type in ("gru", "lstm"):
        results[rnn_type] = bench_rnn_type(rnn_type, profile, registry)

    report = {
        "benchmark": "bench_throughput",
        "profile": "smoke" if smoke else "full",
        "workload": {k: v for k, v in profile.items() if k != "rounds"},
        "timing": "interleaved rounds, per-quantity minimum",
        "tolerance": TOLERANCE,
        "results": results,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    write_jsonl(registry, RESULTS_DIR / "throughput_metrics.jsonl")

    lines = [f"throughput ({report['profile']} profile) — train tokens/sec "
             "and latency minima"]
    for rt, res in results.items():
        lines.append(
            f"  {rt:4s}: train {res['train_tokens_per_s']:>9,.0f} tok/s"
            + "".join(f"  {name} {res[f'{name}_latency_s']['min'] * 1e3:.1f} ms"
                      for name in LATENCIES))
    print("\n".join(lines))

    if baseline is not None:
        found = regressions(report, baseline)
        if found:
            raise SystemExit(
                "throughput regressed against the committed report (left "
                "unchanged):\n  " + "\n  ".join(found))
    output.write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_throughput_smoke(tmp_path):
    """Smoke gate: every quantity is measured and the report is complete."""
    report = run(smoke=True, output=tmp_path / "BENCH_throughput.json")
    for rnn_type in ("gru", "lstm"):
        res = report["results"][rnn_type]
        assert res["train_tokens_per_s"] > 0
        for name in LATENCIES:
            assert res[f"{name}_latency_s"]["p95"] > 0
    assert (tmp_path / "BENCH_throughput.json").exists()


def test_regressions_flag_only_beyond_tolerance():
    def report(tokens_per_s, latency_s):
        return {"results": {"gru": {
            "train_tokens_per_s": tokens_per_s,
            **{f"{name}_latency_s": {"min": latency_s} for name in LATENCIES}}}}

    limit = 1.0 + TOLERANCE
    base = report(1000.0, 0.010)
    within = report(1000.0 / limit + 1.0, 0.010 * limit - 1e-6)
    assert regressions(within, base) == []
    beyond = report(1000.0 / limit - 1.0, 0.010 * limit + 1e-6)
    assert len(regressions(beyond, base)) == 1 + len(LATENCIES)


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
    run(smoke=smoke, output=args.output, baseline=baseline)


if __name__ == "__main__":
    main()
