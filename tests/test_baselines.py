"""Baseline distance measures: semantics, batched/single consistency."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import CMS, DTW, EDR, ERP, LCSS, EDwP, suggest_epsilon
from repro.data import Trajectory, alternating_split

from .baseline_reference import reference_distance


def line(n, x0=0.0, y0=0.0, step=10.0, axis=0):
    pts = np.zeros((n, 2))
    pts[:, axis] = x0 + np.arange(n) * step
    pts[:, 1 - axis] += y0
    return Trajectory(points=pts)


@pytest.fixture(scope="module")
def dp_measures():
    return [DTW(), EDR(100.0), LCSS(100.0), ERP(), EDwP()]


# ----------------------------------------------------------------------
# Batched vs single-pair consistency (the core contract)
# ----------------------------------------------------------------------
def test_batched_matches_reference(dp_measures, trips):
    """The wavefront kernel agrees with the plain-loop DP oracle."""
    query = trips[0]
    candidates = trips[1:15]
    for measure in dp_measures:
        batched = measure.distance_to_many(query, candidates)
        single = np.array([reference_distance(measure, query, c)
                           for c in candidates])
        np.testing.assert_allclose(batched, single, rtol=1e-5, atol=1e-6,
                                   err_msg=measure.name)


def test_single_pair_delegates_to_batched_kernel(dp_measures, trips):
    """`distance` rides the vectorized anti-diagonal kernel, not the loop."""
    for measure in dp_measures:
        batched = measure.distance_to_many(trips[0], [trips[1]])[0]
        assert measure.distance(trips[0], trips[1]) == batched, measure.name


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 500), n=st.integers(3, 15), m=st.integers(3, 15))
def test_batched_matches_reference_property(seed, n, m):
    rng = np.random.default_rng(seed)
    a = Trajectory(points=rng.uniform(0, 500, (n, 2)))
    b = Trajectory(points=rng.uniform(0, 500, (m, 2)))
    c = Trajectory(points=rng.uniform(0, 500, (m + 2, 2)))
    for measure in [DTW(), EDR(80.0), LCSS(80.0), ERP(), EDwP()]:
        batched = measure.distance_to_many(a, [b, c])
        np.testing.assert_allclose(
            batched,
            [reference_distance(measure, a, b), reference_distance(measure, a, c)],
            rtol=1e-5, atol=1e-6, err_msg=measure.name)


# ----------------------------------------------------------------------
# Identity and symmetry
# ----------------------------------------------------------------------
def test_self_distance_is_minimal(dp_measures, trips):
    t = trips[0]
    assert DTW().distance(t, t) == pytest.approx(0.0, abs=1e-9)
    assert EDR(100.0).distance(t, t) == 0.0
    assert LCSS(100.0).distance(t, t) == 0.0
    assert ERP().distance(t, t) == pytest.approx(0.0, abs=1e-6)
    assert EDwP().distance(t, t) == pytest.approx(0.0, abs=1e-6)


def test_symmetry(dp_measures, trips):
    a, b = trips[0], trips[1]
    for measure in dp_measures:
        assert measure.distance(a, b) == pytest.approx(
            measure.distance(b, a), rel=1e-6), measure.name


def test_distances_nonnegative(dp_measures, trips):
    a, b = trips[2], trips[3]
    for measure in dp_measures:
        assert measure.distance(a, b) >= 0.0, measure.name


# ----------------------------------------------------------------------
# Measure-specific semantics
# ----------------------------------------------------------------------
class TestDTW:
    def test_known_small_case(self):
        a = Trajectory(points=np.array([[0.0, 0], [1.0, 0]]))
        b = Trajectory(points=np.array([[0.0, 0], [1.0, 0], [2.0, 0]]))
        # alignment: (0,0) (1,1) (1,2) -> 0 + 0 + 1
        assert DTW().distance(a, b) == pytest.approx(1.0)


class TestEDR:
    def test_counts_edits(self):
        a = line(4)                       # x = 0, 10, 20, 30
        b = line(4, x0=1000.0)            # far away: nothing matches
        assert EDR(50.0).distance(a, b) == 4.0

    def test_identical_within_epsilon_costs_zero(self):
        a = line(5)
        shifted = Trajectory(points=a.points + np.array([3.0, 3.0]))
        assert EDR(10.0).distance(a, shifted) == 0.0

    def test_per_dimension_threshold(self):
        a = Trajectory(points=np.array([[0.0, 0.0], [10.0, 0.0]]))
        b = Trajectory(points=np.array([[0.0, 9.0], [10.0, 9.0]]))
        assert EDR(9.5).distance(a, b) == 0.0   # both dims within eps
        c = Trajectory(points=np.array([[0.0, 11.0], [10.0, 11.0]]))
        assert EDR(9.5).distance(a, c) == 2.0   # y exceeds eps

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            EDR(0.0)

    def test_suggest_epsilon_positive(self, trips):
        eps = suggest_epsilon(trips)
        assert eps > 0


class TestLCSS:
    def test_distance_zero_for_matchable(self):
        a = line(6)
        assert LCSS(20.0).distance(a, a) == 0.0

    def test_distance_one_for_disjoint(self):
        a = line(5)
        b = line(5, x0=10000.0)
        assert LCSS(50.0).distance(a, b) == 1.0

    def test_similarity_counts_common_points(self):
        a = line(6)
        b = Trajectory(points=a.points[1:5])
        assert LCSS(5.0).similarity(a, b) == 4


class TestERP:
    def test_triangle_inequality_samples(self, trips):
        erp = ERP(gap_point=np.zeros(2))
        a, b, c = trips[0], trips[1], trips[2]
        assert erp.distance(a, c) <= (erp.distance(a, b) +
                                      erp.distance(b, c) + 1e-6)

    def test_gap_point_affects_cost(self):
        a = line(4)
        b = line(6)
        near = ERP(gap_point=np.array([0.0, 0.0])).distance(a, b)
        far = ERP(gap_point=np.array([1e6, 1e6])).distance(a, b)
        assert far > near


class TestEDwP:
    def test_rate_invariance_on_shared_curve(self):
        """EDwP's raison d'etre: resampling the same curve costs little."""
        dense = line(40, step=10.0)
        sparse = Trajectory(points=dense.points[::4])
        other = line(40, y0=500.0)
        same = EDwP().distance(dense, sparse)
        different = EDwP().distance(dense, other)
        assert same < 0.05 * different

    def test_handles_two_point_trajectories(self):
        a = Trajectory(points=np.array([[0.0, 0.0], [100.0, 0.0]]))
        b = Trajectory(points=np.array([[0.0, 10.0], [100.0, 10.0]]))
        assert np.isfinite(EDwP().distance(a, b))


class TestCMS:
    def test_identical_cells_zero_distance(self, vocab, trips):
        cms = CMS(vocab)
        assert cms.distance(trips[0], trips[0]) == 0.0

    def test_disjoint_cells_distance_one(self, vocab, trips):
        cms = CMS(vocab)
        # Find two trips with no shared tokens, if any; otherwise skip.
        for a in trips[:10]:
            for b in trips[10:30]:
                if cms.distance(a, b) == 1.0:
                    return
        pytest.skip("no fully disjoint trip pair in fixture data")

    def test_batched_matches_single(self, vocab, trips):
        cms = CMS(vocab)
        batched = cms.distance_to_many(trips[0], trips[1:8])
        single = [cms.distance(trips[0], t) for t in trips[1:8]]
        np.testing.assert_allclose(batched, single)

    def test_order_blindness(self, vocab, trips):
        """CMS ignores sequence order — the paper's motivation for vRNN."""
        cms = CMS(vocab)
        t = trips[0]
        reversed_t = Trajectory(points=t.points[::-1].copy())
        assert cms.distance(t, reversed_t) == 0.0


# ----------------------------------------------------------------------
# kNN / ranking interface
# ----------------------------------------------------------------------
def test_knn_returns_sorted_indices(trips):
    edr = EDR(100.0)
    idx = edr.knn(trips[0], trips[1:20], k=5)
    dists = edr.distance_to_many(trips[0], trips[1:20])
    assert len(idx) == 5
    assert (np.diff(dists[idx]) >= 0).all()
    np.testing.assert_array_equal(np.sort(dists[idx]),
                                  np.sort(dists)[:5])


def test_rank_of_counterpart_beats_random(trips, rng):
    """Sanity: every DP measure ranks the true counterpart well."""
    edwp = EDwP()
    ranks = []
    for qi in range(5):
        ta, ta_prime = alternating_split(trips[qi])
        db = [ta_prime] + [alternating_split(t)[1] for t in trips[10:40]]
        ranks.append(edwp.rank_of(ta, db, 0))
    assert np.mean(ranks) < 8  # far better than the random ~15


def test_rank_of_is_one_based(trips):
    edr = EDR(100.0)
    db = [trips[0], trips[1]]
    assert edr.rank_of(trips[0], db, 0) == 1


def test_knn_batch_matches_per_query(trips):
    edr = EDR(100.0)
    queries, db = trips[:6], trips[10:40]
    rows = edr.knn_batch(queries, db, k=5)
    assert rows.shape == (6, 5)
    for i, query in enumerate(queries):
        np.testing.assert_array_equal(rows[i], edr.knn(query, db, k=5))


def test_knn_batch_k_larger_than_database(trips):
    edr = EDR(100.0)
    rows = edr.knn_batch(trips[:3], trips[10:14], k=50)
    assert rows.shape == (3, 4)


def test_rank_of_many_matches_per_query(trips):
    edwp = EDwP()
    queries, db = trips[:5], trips[10:30]
    targets = [3, 0, 7, 1, 19]
    batched = edwp.rank_of_many(queries, db, targets)
    single = [edwp.rank_of(q, db, t) for q, t in zip(queries, targets)]
    np.testing.assert_array_equal(batched, single)
