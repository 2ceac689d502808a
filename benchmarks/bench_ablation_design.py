"""Ablations for design choices not covered by a paper table (DESIGN.md §5).

* GRU vs LSTM — the paper picks GRU for equal quality at lower cost
  (Section V-B); we train both at identical budgets and compare mean
  rank and wall time.
* Dense vs gathered L3 — this implementation adds a dense masked-softmax
  fast path for small vocabularies (nn/loss.py); the bench times it
  against the fused gathered node on identical inputs at the vocabulary
  sizes that matter here (the reference model's, fit-dense's,
  `DENSE_L3_VOCAB_LIMIT` and fit-paper's) to locate the crossover.
"""

import time

import numpy as np

from repro.core import EncoderDecoder, ModelConfig
from repro.eval import build_setup, format_table, mean_rank
from repro.nn import Tensor, masked_sampled_loss, sampled_weighted_loss
from repro.spatial import NUM_SPECIALS, ProximityVocabulary

from .conftest import FAST, bench_config, fit_cached, run_once, write_result

TRIPS = 150 if not FAST else 50
EPOCHS = 5 if not FAST else 2
HIDDEN = 32 if not FAST else 16
NUM_QUERIES = 25 if not FAST else 8
FILLERS = 200 if not FAST else 50
RATES = [0.0, 0.5]


def test_ablation_gru_vs_lstm(benchmark, porto_bench):
    train = porto_bench.train[:TRIPS]
    rows, times = {}, {}

    def run():
        for rnn_type in ("gru", "lstm"):
            tag = f"ablate_rnn_{rnn_type}"
            model = fit_cached(tag, bench_config(
                hidden=HIDDEN, epochs=EPOCHS, rnn_type=rnn_type), train)
            if model.last_result:
                times[rnn_type] = model.last_result.wall_time_s
            ranks = []
            for r1 in RATES:
                setup = build_setup(porto_bench.queries_pool,
                                    porto_bench.filler_pool[:FILLERS],
                                    NUM_QUERIES, dropping_rate=r1,
                                    rng=np.random.default_rng(23))
                ranks.append(mean_rank(model, setup))
            rows[rnn_type] = ranks
        return rows

    results = run_once(benchmark, run)
    text = format_table("Ablation: GRU vs LSTM encoder-decoder "
                        "(mean rank at r1=0/0.5)", "r1", RATES, results)
    if times:
        text += "\n\ntraining time (s): " + "  ".join(
            f"{k}={v:.0f}" for k, v in times.items())
    write_result("ablation_rnn_type", text)
    # Shape (paper's rationale): GRU is competitive with LSTM.
    assert np.mean(results["gru"]) < 2.5 * np.mean(results["lstm"]) + 5.0


# Vocabulary sizes of the L3 crossover sweep: the e2ebench reference
# model (445), fit-dense (~600), DENSE_L3_VOCAB_LIMIT (4096) and
# fit-paper (16,588).
L3_VOCAB_SIZES = (445, 600, 4096, 16588)
L3_ROUNDS = 5 if not FAST else 2


def _l3_paths(size, rows, hidden_dim, k, noise):
    """Dense and gathered L3 step+backward closures on identical inputs."""
    rng = np.random.default_rng(size)
    vocab = ProximityVocabulary(
        rng.uniform(0.0, 20_000.0, size=(size - NUM_SPECIALS, 2)))
    model = EncoderDecoder(ModelConfig(vocab.size, hidden_dim, hidden_dim,
                                       num_layers=1, dropout=0.0))
    hidden_data = rng.standard_normal((rows, hidden_dim)).astype(np.float32)
    targets = rng.integers(NUM_SPECIALS, vocab.size, size=rows)
    cand, knn_w = vocab.proximity_candidates(targets, k, theta=100.0)
    noise_tokens = vocab.sample_noise(rng, rows, noise)

    def dense_path():
        hidden = Tensor(hidden_data, requires_grad=True)
        row_idx = np.arange(rows)[:, None]
        weights = np.zeros((rows, vocab.size), dtype=np.float32)
        weights[row_idx, cand] = knn_w
        bias = np.full((rows, vocab.size), -1e9, dtype=np.float32)
        bias[row_idx, cand] = 0.0
        bias[row_idx, noise_tokens] = 0.0
        loss = masked_sampled_loss(model.logits(hidden), weights, bias)
        loss.backward()
        return loss.item()

    def gathered_path():
        hidden = Tensor(hidden_data, requires_grad=True)
        candidates = np.concatenate([cand, noise_tokens], axis=1)
        weights = np.concatenate(
            [knn_w, np.zeros_like(noise_tokens, dtype=float)], axis=1)
        loss = sampled_weighted_loss(hidden, model.proj_weight, candidates,
                                     weights, proj_bias=model.proj_bias)
        loss.backward()
        return loss.item()

    return dense_path, gathered_path


def test_ablation_l3_dense_vs_gathered(benchmark):
    """Identical L3 objective, two implementations: where does each win?"""
    rows, hidden_dim, k, noise = (2048, 128, 10, 64) if not FAST else (256, 32, 10, 64)
    results = {}

    def sweep():
        for size in L3_VOCAB_SIZES:
            dense_path, gathered_path = _l3_paths(size, rows, hidden_dim, k, noise)
            values = (dense_path(), gathered_path())  # also the warm-up
            best = [float("inf"), float("inf")]
            for _ in range(L3_ROUNDS):  # interleaved minimum
                for i, path in enumerate((dense_path, gathered_path)):
                    start = time.perf_counter()
                    path()
                    best[i] = min(best[i], time.perf_counter() - start)
            results[size] = (best, values)
        return results

    run_once(benchmark, sweep)
    lines = [f"L3 step+backward, rows={rows}, hidden={hidden_dim}, K={k}, "
             f"noise={noise} (fastest of {L3_ROUNDS} interleaved rounds):",
             f"{'vocab':>7} {'dense ms':>9} {'gathered ms':>12} "
             f"{'dense/gathered':>15} {'loss dense':>11} {'loss gathered':>14}"]
    for size, ((dense_t, gathered_t), (dense_v, gathered_v)) in results.items():
        lines.append(f"{size:>7} {dense_t * 1e3:>9.1f} {gathered_t * 1e3:>12.1f} "
                     f"{dense_t / gathered_t:>15.2f} {dense_v:>11.4f} "
                     f"{gathered_v:>14.4f}")
    write_result("ablation_l3_paths", "\n".join(lines))
    for _, (dense_v, gathered_v) in results.values():
        # Same objective up to noise-collision handling: the dense path
        # dedups noise cells that collide with candidates (a bias cell is
        # zeroed twice), while the gathered path counts them twice in the
        # partition estimate — a small systematic difference, not an error.
        assert abs(dense_v - gathered_v) < 0.05 * max(abs(dense_v), 1.0)
