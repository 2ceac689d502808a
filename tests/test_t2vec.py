"""End-to-end T2Vec API: fit, encode, similarity, persistence."""

import contextlib
import dataclasses

import numpy as np
import pytest

from repro import LossSpec, T2Vec, T2VecConfig, TrainingConfig
from repro.data import alternating_split


@pytest.fixture(scope="module")
def fitted(trips):
    """A tiny t2vec trained just enough to be structurally meaningful."""
    config = T2VecConfig(
        cell_size=100.0, min_hits=3, embedding_size=24, hidden_size=24,
        num_layers=1, dropout=0.0,
        loss=LossSpec(kind="L3", k_nearest=6, theta=100.0, noise=16),
        dropping_rates=(0.0, 0.4), distorting_rates=(0.0,),
        training=TrainingConfig(batch_size=64, max_epochs=6, patience=10),
        cell_epochs=2, seed=0,
    )
    model = T2Vec(config)
    result = model.fit(trips[:50])
    return model, result


def test_fit_populates_components(fitted):
    model, result = fitted
    assert model.grid is not None
    assert model.vocab is not None
    assert model.model is not None
    assert result.epochs_run >= 1
    assert result.train_losses[-1] < result.train_losses[0]


def test_encode_shape_and_determinism(fitted, trips):
    model, _ = fitted
    v1 = model.encode(trips[0])
    v2 = model.encode(trips[0])
    assert v1.shape == (24,)
    np.testing.assert_array_equal(v1, v2)


def test_encode_many_matches_encode(fitted, trips):
    model, _ = fitted
    batchwise = model.encode_many(trips[:5])
    single = np.stack([model.encode(t) for t in trips[:5]])
    np.testing.assert_allclose(batchwise, single, atol=1e-6)


def test_cache_is_content_keyed(fitted, trips):
    """Two objects with identical points share one cached vector."""
    model, _ = fitted
    clone = trips[0].with_points(trips[0].points.copy())
    np.testing.assert_array_equal(model.encode(trips[0]), model.encode(clone))


def test_distance_consistency(fitted, trips):
    model, _ = fitted
    d = model.distance(trips[0], trips[1])
    many = model.distance_to_many(trips[0], trips[:4])
    assert d == pytest.approx(many[1], rel=1e-5)
    assert many[0] == pytest.approx(0.0, abs=1e-5)


def test_self_similarity_beats_random(fitted, trips):
    """The core claim: split halves are closer than unrelated trajectories."""
    model, _ = fitted
    same, different = [], []
    halves = [alternating_split(t) for t in trips[50:70]]
    a_vecs = model.encode_many([h[0] for h in halves])
    b_vecs = model.encode_many([h[1] for h in halves])
    for i in range(len(halves)):
        same.append(np.linalg.norm(a_vecs[i] - b_vecs[i]))
        different.append(np.linalg.norm(a_vecs[i] - b_vecs[(i + 5) % len(halves)]))
    assert np.mean(same) < np.mean(different)


def test_rank_of_counterpart(fitted, trips):
    model, _ = fitted
    ta, ta_prime = alternating_split(trips[55])
    db = [ta_prime] + [alternating_split(t)[1] for t in trips[60:75]]
    rank = model.rank_of(ta, db, 0)
    assert rank <= len(db) // 2  # trained model beats random placement


def test_distance_matrix_matches_distance_to_many(fitted, trips):
    """The blocked-GEMM matrix agrees with the per-query direct path."""
    model, _ = fitted
    queries, db = trips[:4], trips[10:30]
    matrix = model.distance_matrix(queries, db)
    assert matrix.shape == (4, 20)
    for i, q in enumerate(queries):
        np.testing.assert_allclose(matrix[i], model.distance_to_many(q, db),
                                   rtol=1e-4, atol=1e-5)


def test_knn_batch_matches_vector_truth(fitted, trips):
    model, _ = fitted
    queries, db = trips[:4], trips[10:40]
    rows = model.knn_batch(queries, db, k=5)
    assert rows.shape == (4, 5)
    vq = model.encode_many(queries)
    vc = model.encode_many(db)
    for i in range(len(queries)):
        truth = np.argsort(np.linalg.norm(vc - vq[i], axis=1),
                           kind="stable")[:5]
        np.testing.assert_array_equal(rows[i], truth)


def test_empty_candidate_sets(fitted, trips):
    """No trajectories encode to a (0, hidden) matrix in the model's
    dtype, and searches over no candidates give (Q, 0) results."""
    model, _ = fitted
    empty = model.encode_many([])
    assert empty.shape == (0, 24)
    assert empty.dtype == model.encode(trips[0]).dtype
    assert model.distance_matrix(trips[:3], []).shape == (3, 0)
    assert model.knn_batch(trips[:3], [], k=5).shape == (3, 0)


def test_knn_is_thin_wrapper_over_batch(fitted, trips):
    model, _ = fitted
    db = trips[10:40]
    np.testing.assert_array_equal(model.knn(trips[0], db, k=7),
                                  model.knn_batch([trips[0]], db, k=7)[0])


def test_rank_of_many_matches_rank_of(fitted, trips):
    model, _ = fitted
    queries, db = trips[:5], trips[10:30]
    targets = [2, 0, 11, 7, 19]
    batched = model.rank_of_many(queries, db, targets)
    single = [model.rank_of(q, db, t) for q, t in zip(queries, targets)]
    np.testing.assert_array_equal(batched, single)


def test_knn_batch_records_index_metrics(trips, fitted):
    from repro.telemetry import MetricsRegistry, set_registry
    model, _ = fitted
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        model.knn_batch(trips[:3], trips[10:20], k=2)
    finally:
        set_registry(previous)
    assert registry.counter("index.exact.batch_queries").value == 3


def test_reconstruct_route_outputs_coordinates(fitted, trips):
    model, _ = fitted
    route = model.reconstruct_route(trips[0], max_len=30)
    assert route.ndim == 2 and route.shape[1] == 2


def test_save_load_round_trip(fitted, trips, tmp_path):
    model, _ = fitted
    path = tmp_path / "t2vec.npz"
    model.save(path)
    restored = T2Vec.load(path)
    np.testing.assert_allclose(restored.encode(trips[0]),
                               model.encode(trips[0]), atol=1e-6)
    assert restored.vocab.size == model.vocab.size
    assert restored.config.loss.kind == model.config.loss.kind


def test_unfitted_model_raises(trips):
    model = T2Vec()
    with pytest.raises(RuntimeError):
        model.encode(trips[0])
    with pytest.raises(RuntimeError):
        model.save("/tmp/nope.npz")


def test_fit_requires_enough_data():
    model = T2Vec()
    with pytest.raises(ValueError):
        model.fit([])


def test_validation_split_is_held_out(trips):
    config = T2VecConfig(
        min_hits=3, embedding_size=8, hidden_size=8, num_layers=1,
        dropping_rates=(0.0,), distorting_rates=(0.0,),
        training=TrainingConfig(batch_size=32, max_epochs=1),
        val_fraction=0.2, cell_epochs=1, seed=0,
    )
    model = T2Vec(config)
    result = model.fit(trips[:20])
    assert len(result.val_losses) == 1  # validation ran


def test_reconstruct_route_beam_search(fitted, trips):
    model, _ = fitted
    route = model.reconstruct_route(trips[0], max_len=25, beam_width=3)
    assert route.ndim == 2 and route.shape[1] == 2


# ----------------------------------------------------------------------
# Encoding cache: LRU bound + telemetry
# ----------------------------------------------------------------------
@contextlib.contextmanager
def capped_cache(model, capacity):
    """Temporarily shrink the LRU cap and attach a fresh registry."""
    from repro.telemetry import MetricsRegistry
    old_config, old_registry = model.config, model.registry
    model.config = dataclasses.replace(model.config,
                                       encode_cache_size=capacity)
    model.registry = MetricsRegistry()
    model._encodings.clear()
    try:
        yield model.registry
    finally:
        model.config, model.registry = old_config, old_registry
        model._encodings.clear()


def test_encode_cache_evicts_at_capacity(fitted, trips):
    model, _ = fitted
    with capped_cache(model, 4) as reg:
        model.encode_many(trips[:10])
        assert len(model._encodings) == 4
        assert model.cache_info == {"size": 4, "capacity": 4}
        assert reg.counters["encode.cache_misses"] == 10
        assert reg.counters["encode.cache_evictions"] == 6


def test_encode_results_correct_despite_eviction(fitted, trips):
    model, _ = fitted
    expected = model.encode_many(trips[:10])
    with capped_cache(model, 2):
        capped = model.encode_many(trips[:10])
    np.testing.assert_allclose(capped, expected, atol=1e-6)


def test_encode_cache_hits_and_lru_order(fitted, trips):
    model, _ = fitted
    with capped_cache(model, 3) as reg:
        model.encode_many(trips[:3])
        model.encode_many(trips[:2])          # hits, refreshes recency
        assert reg.counters["encode.cache_hits"] == 2
        model.encode_many([trips[3]])         # evicts the LRU entry
        assert trips[2].cache_key() not in model._encodings
        assert trips[1].cache_key() in model._encodings


def test_encode_duplicates_counted_once_per_call(fitted, trips):
    model, _ = fitted
    with capped_cache(model, 10) as reg:
        model.encode_many([trips[0], trips[0], trips[0]])
        assert reg.counters["encode.cache_misses"] == 1
        assert "encode.cache_hits" not in reg.counters


def test_encode_latency_histogram_recorded(fitted, trips):
    model, _ = fitted
    with capped_cache(model, 100) as reg:
        model.encode_many(trips[:6], batch_size=2)
        hist = reg.histogram("encode.latency_s")
        assert hist.count == 3                 # one observation per chunk
        assert hist.percentile(95) >= hist.percentile(50) > 0


def test_fit_emits_pipeline_spans(trips):
    from repro.telemetry import MetricsRegistry
    registry = MetricsRegistry()
    config = T2VecConfig(
        min_hits=3, embedding_size=8, hidden_size=8, num_layers=1,
        dropping_rates=(0.0,), distorting_rates=(0.0,),
        training=TrainingConfig(batch_size=32, max_epochs=1),
        val_fraction=0.0, cell_epochs=1, seed=0,
    )
    model = T2Vec(config, registry=registry)
    model.fit(trips[:12])
    names = {s.name for s in registry.spans}
    assert {"t2vec.fit", "t2vec.build_vocab", "t2vec.build_model",
            "t2vec.build_pairs", "fit", "fit.epoch"} <= names
    # Pipeline phases are children of the top-level fit span.
    phases = [s for s in registry.spans if s.name.startswith("t2vec.build")]
    assert all(s.parent == "t2vec.fit" for s in phases)
