"""Vector k-NN indexes: exact scan and LSH, single-query and batched."""

import numpy as np
import pytest

from repro.core import ExactIndex, LSHIndex
from repro.core.index import blocked_topk, pairwise_distances

from .index_reference import knn_scan, table_signatures


@pytest.fixture(scope="module")
def vectors():
    rng = np.random.default_rng(0)
    return rng.standard_normal((500, 16))


@pytest.fixture(scope="module")
def queries(vectors):
    rng = np.random.default_rng(3)
    return vectors[rng.integers(0, len(vectors), size=12)] \
        + 0.01 * rng.standard_normal((12, 16))


class TestExactIndex:
    def test_knn_matches_argsort(self, vectors):
        index = ExactIndex(vectors)
        query = vectors[7] + 0.01
        idx, dists = index.knn(query, k=10)
        truth = np.argsort(np.linalg.norm(vectors - query, axis=1))[:10]
        np.testing.assert_array_equal(idx, truth)
        assert (np.diff(dists) >= 0).all()

    def test_nearest_to_member_is_itself(self, vectors):
        index = ExactIndex(vectors)
        idx, dists = index.knn(vectors[42], k=1)
        assert idx[0] == 42
        assert dists[0] == pytest.approx(0.0, abs=1e-9)

    def test_k_larger_than_index(self):
        index = ExactIndex(np.eye(3))
        idx, _ = index.knn(np.zeros(3), k=10)
        assert len(idx) == 3

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            ExactIndex(np.zeros(5))

    def test_knn_matches_reference_scan(self, vectors, queries):
        index = ExactIndex(vectors)
        for query in queries:
            idx, dists = index.knn(query, k=10)
            ref_idx, ref_dists = knn_scan(index, query, k=10)
            np.testing.assert_array_equal(idx, ref_idx)
            np.testing.assert_allclose(dists, ref_dists, rtol=1e-9)


class TestExactBatch:
    def test_batch_matches_per_query(self, vectors, queries):
        index = ExactIndex(vectors)
        batch_idx, batch_dists = index.knn_batch(queries, k=10)
        assert batch_idx.shape == (len(queries), 10)
        for i, query in enumerate(queries):
            idx, dists = index.knn(query, k=10)
            np.testing.assert_array_equal(batch_idx[i], idx)
            np.testing.assert_allclose(batch_dists[i], dists, rtol=1e-12)

    def test_tile_boundary_sizes(self, vectors, queries):
        """Results are identical whatever the tiling (block_rows) is."""
        baseline_idx, baseline_dists = ExactIndex(
            vectors, block_rows=len(vectors)).knn_batch(queries, k=7)
        for block_rows in (1, 7, 100, 499, 500, 501, 10_000):
            idx, dists = ExactIndex(
                vectors, block_rows=block_rows).knn_batch(queries, k=7)
            np.testing.assert_array_equal(idx, baseline_idx, err_msg=str(block_rows))
            np.testing.assert_allclose(dists, baseline_dists, rtol=1e-12)

    def test_k_larger_than_index(self, queries):
        index = ExactIndex(np.eye(16))
        idx, dists = index.knn_batch(queries, k=50)
        assert idx.shape == (len(queries), 16)
        assert (np.diff(dists, axis=1) >= 0).all()

    def test_duplicate_distances_tie_break_by_index(self):
        """Exact duplicates are both returned, ordered by index."""
        base = np.arange(20, dtype=float).reshape(10, 2)
        vectors = np.concatenate([base, base[3:4], base[3:4]])  # rows 10, 11
        index = ExactIndex(vectors, block_rows=4)
        idx, dists = index.knn_batch(base[3], k=3)
        np.testing.assert_array_equal(idx[0], [3, 10, 11])
        np.testing.assert_allclose(dists[0], 0.0, atol=1e-12)

    def test_member_query_distance_exactly_zero(self, vectors):
        """The GEMM identity never leaks cancellation into the output."""
        index = ExactIndex(vectors.astype(np.float32))
        _, dists = index.knn_batch(vectors[:8].astype(np.float32), k=1)
        assert (dists == 0.0).all()

    def test_single_query_1d_and_2d_agree(self, vectors):
        index = ExactIndex(vectors)
        idx1, d1 = index.knn_batch(vectors[5], k=4)
        idx2, d2 = index.knn_batch(vectors[5:6], k=4)
        np.testing.assert_array_equal(idx1, idx2)
        np.testing.assert_array_equal(d1, d2)

    def test_against_brute_force_oracle(self, vectors, queries):
        index = ExactIndex(vectors)
        idx, dists = index.knn_batch(queries, k=5)
        for i, query in enumerate(queries):
            truth = np.sort(np.linalg.norm(vectors - query, axis=1))[:5]
            np.testing.assert_allclose(dists[i], truth, rtol=1e-9)

    def test_pairwise_distances_matches_direct(self, vectors, queries):
        matrix = pairwise_distances(queries, vectors, block_rows=37)
        direct = np.linalg.norm(
            queries[:, None, :] - vectors[None, :, :], axis=2)
        np.testing.assert_allclose(matrix, direct, rtol=1e-6, atol=1e-9)

    def test_blocked_topk_empty_queries(self, vectors):
        idx, dists = blocked_topk(np.empty((0, 16)), vectors, k=3)
        assert idx.shape == (0, 3) and dists.shape == (0, 3)


class TestIndexDtype:
    def test_float32_preserved_end_to_end(self, vectors):
        """float32 embeddings must not be upcast (2x memory + bandwidth)."""
        index = ExactIndex(vectors.astype(np.float32))
        assert index.vectors.dtype == np.float32
        _, dists = index.knn_batch(vectors[:4].astype(np.float32), k=3)
        assert dists.dtype == np.float32
        lsh = LSHIndex(vectors.astype(np.float32), num_tables=2, num_bits=6)
        assert lsh.vectors.dtype == np.float32
        _, lsh_dists = lsh.knn(vectors[0].astype(np.float32), k=3)
        assert lsh_dists.dtype == np.float32

    def test_float64_preserved(self, vectors):
        assert ExactIndex(vectors).vectors.dtype == np.float64
        assert LSHIndex(vectors, num_tables=2).vectors.dtype == np.float64

    def test_integer_input_uses_library_default(self):
        from repro.nn import get_default_dtype
        index = ExactIndex(np.arange(12).reshape(6, 2))
        assert index.vectors.dtype == np.dtype(get_default_dtype())

    def test_float32_matches_float64_results(self, vectors, queries):
        idx32, d32 = ExactIndex(
            vectors.astype(np.float32)).knn_batch(queries, k=5)
        idx64, d64 = ExactIndex(vectors).knn_batch(queries, k=5)
        np.testing.assert_array_equal(idx32, idx64)
        np.testing.assert_allclose(d32, d64, rtol=1e-4)


class TestLSHIndex:
    def test_recall_against_exact(self, vectors):
        exact = ExactIndex(vectors)
        lsh = LSHIndex(vectors, num_tables=12, num_bits=6, seed=0)
        recalls = []
        rng = np.random.default_rng(1)
        for _ in range(20):
            query = vectors[rng.integers(len(vectors))] + 0.05 * rng.standard_normal(16)
            truth, _ = exact.knn(query, k=10)
            approx, _ = lsh.knn(query, k=10)
            recalls.append(len(set(truth) & set(approx)) / 10)
        assert np.mean(recalls) > 0.6  # decent recall with 12 tables

    def test_distances_are_exact_for_returned_candidates(self, vectors):
        lsh = LSHIndex(vectors, num_tables=4, num_bits=6, seed=0)
        query = np.zeros(16)
        idx, dists = lsh.knn(query, k=5)
        np.testing.assert_allclose(
            dists, np.linalg.norm(vectors[idx] - query, axis=1), rtol=1e-9)

    def test_falls_back_to_exact_when_buckets_empty(self, vectors):
        # With many bits, buckets are tiny; a far-away query may miss all.
        lsh = LSHIndex(vectors, num_tables=1, num_bits=16, seed=0)
        far_query = np.full(16, 100.0)
        idx, _ = lsh.knn(far_query, k=20)
        assert len(idx) == 20  # fallback guarantees k results

    def test_candidates_subset_of_index(self, vectors):
        lsh = LSHIndex(vectors, num_tables=4, num_bits=6, seed=0)
        cand = lsh.candidates(vectors[0])
        assert cand.min() >= 0
        assert cand.max() < len(vectors)
        assert 0 in set(cand.tolist())  # a member hashes into its own bucket

    def test_validation(self, vectors):
        with pytest.raises(ValueError):
            LSHIndex(vectors, num_tables=0)
        with pytest.raises(ValueError):
            LSHIndex(vectors, num_bits=63)
        with pytest.raises(ValueError):
            LSHIndex(np.zeros(4))

    def test_faster_than_exact_on_large_index(self):
        """LSH visits a fraction of the index (candidate count << N)."""
        rng = np.random.default_rng(2)
        big = rng.standard_normal((5000, 16))
        lsh = LSHIndex(big, num_tables=4, num_bits=10, seed=0)
        sizes = [len(lsh.candidates(big[i])) for i in range(20)]
        assert np.mean(sizes) < 0.5 * len(big)

    def test_candidates_sorted_and_deterministic(self, vectors):
        """Candidate order no longer depends on python set iteration."""
        a = LSHIndex(vectors, num_tables=4, num_bits=6, seed=0)
        b = LSHIndex(vectors, num_tables=4, num_bits=6, seed=0)
        for query in vectors[:10]:
            cand = a.candidates(query)
            assert (np.diff(cand) > 0).all()    # strictly ascending
            np.testing.assert_array_equal(cand, b.candidates(query))

    def test_csr_buckets_match_dict_semantics(self, vectors):
        """CSR storage holds exactly the old dict-of-lists buckets."""
        lsh = LSHIndex(vectors, num_tables=3, num_bits=5, seed=1)
        for t in range(lsh.num_tables):
            table = {}
            for i, sig in enumerate(table_signatures(lsh, vectors, t)):
                table.setdefault(int(sig), []).append(i)
            seen = 0
            for sig, members in table.items():
                np.testing.assert_array_equal(
                    lsh.bucket_members(t, sig), members)
                seen += len(members)
            assert seen == len(vectors)          # every row in some bucket
            assert len(lsh.bucket_members(t, 1 << 62)) == 0   # missing sig

    def test_batched_signatures_match_per_table(self, vectors):
        lsh = LSHIndex(vectors, num_tables=4, num_bits=8, seed=2)
        all_sigs = lsh._signatures_all(vectors)
        for t in range(lsh.num_tables):
            np.testing.assert_array_equal(all_sigs[t],
                                          table_signatures(lsh, vectors, t))


class TestLSHBatch:
    def test_batch_matches_per_query(self, vectors, queries):
        lsh = LSHIndex(vectors, num_tables=6, num_bits=6, seed=0)
        batch_idx, batch_dists = lsh.knn_batch(queries, k=8)
        assert batch_idx.shape == (len(queries), 8)
        for i, query in enumerate(queries):
            idx, dists = lsh.knn(query, k=8)
            np.testing.assert_array_equal(batch_idx[i], idx)
            np.testing.assert_allclose(batch_dists[i], dists, rtol=1e-12)

    def test_batch_matches_per_query_with_fallbacks(self, vectors):
        """Queries that miss every bucket degrade identically in batch."""
        lsh = LSHIndex(vectors, num_tables=1, num_bits=16, seed=0)
        far = np.full((3, 16), 100.0) + np.arange(3)[:, None]
        batch_idx, _ = lsh.knn_batch(far, k=20)
        assert batch_idx.shape == (3, 20)
        for i in range(3):
            idx, _ = lsh.knn(far[i], k=20)
            np.testing.assert_array_equal(batch_idx[i], idx)

    def test_k_larger_than_index(self):
        rng = np.random.default_rng(5)
        small = rng.standard_normal((7, 8))
        lsh = LSHIndex(small, num_tables=2, num_bits=4, seed=0)
        idx, _ = lsh.knn_batch(small[:3], k=50)
        assert idx.shape == (3, 7)

    def test_recall_floor_on_clustered_workload(self):
        """Seeded clustered vectors: batched LSH recovers >= 0.9 of true kNN."""
        rng = np.random.default_rng(7)
        centers = rng.standard_normal((40, 24))
        assign = np.arange(2000) % 40
        vecs = (centers[assign] + 0.05 * rng.standard_normal((2000, 24)))
        qs = vecs[rng.integers(0, 2000, size=30)] \
            + 0.05 * rng.standard_normal((30, 24))
        truth, _ = ExactIndex(vecs).knn_batch(qs, k=10)
        approx, _ = LSHIndex(vecs, num_tables=8, num_bits=12,
                             seed=0).knn_batch(qs, k=10)
        recalls = [len(set(truth[i]) & set(approx[i])) / 10
                   for i in range(len(qs))]
        assert np.mean(recalls) >= 0.9

    def test_batch_groups_shared_buckets(self, vectors):
        """Identical queries hash identically and share one re-rank group."""
        from repro.telemetry import MetricsRegistry
        registry = MetricsRegistry()
        lsh = LSHIndex(vectors, num_tables=4, num_bits=6, seed=0,
                       registry=registry)
        same = np.repeat(vectors[3:4], 5, axis=0)
        idx, _ = lsh.knn_batch(same, k=4)
        assert (idx == idx[0]).all()
        assert registry.histogram("index.lsh.query_groups").values == [1.0]
