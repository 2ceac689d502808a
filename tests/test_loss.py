"""Decoder losses: L1/L2/L3 semantics and their mutual consistency."""

import numpy as np
import pytest

from repro.nn import (Tensor, masked_sampled_loss, nll_loss,
                      sampled_weighted_loss, set_default_dtype,
                      weighted_nll_loss)
from repro.nn.loss import L3_TILE_ROWS
from repro.spatial import EOS, ProximityVocabulary

from . import loss_reference
from .test_tensor import check_gradients


@pytest.fixture
def rng():
    return np.random.default_rng(3)


@pytest.mark.usefixtures("float64_tensors")
class TestNLL:
    def test_matches_manual_cross_entropy(self, rng):
        logits = rng.standard_normal((4, 6))
        targets = np.array([0, 2, 5, 1])
        loss = nll_loss(Tensor(logits), targets).item()
        log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        expected = -log_probs[np.arange(4), targets].mean()
        assert loss == pytest.approx(expected, rel=1e-9)

    def test_mask_excludes_rows(self, rng):
        logits = rng.standard_normal((4, 6))
        targets = np.array([0, 2, 5, 1])
        mask = np.array([1.0, 1.0, 0.0, 0.0])
        masked = nll_loss(Tensor(logits), targets, mask).item()
        unmasked = nll_loss(Tensor(logits[:2]), targets[:2]).item()
        assert masked == pytest.approx(unmasked, rel=1e-9)

    def test_empty_mask_raises(self, rng):
        logits = Tensor(rng.standard_normal((2, 3)))
        with pytest.raises(ValueError):
            nll_loss(logits, np.array([0, 1]), np.zeros(2))

    def test_gradients(self, rng):
        logits = rng.standard_normal((3, 5))
        targets = np.array([1, 0, 4])
        check_gradients(lambda x: nll_loss(x, targets), logits)


@pytest.mark.usefixtures("float64_tensors")
class TestWeightedNLL:
    def test_one_hot_weights_reduce_to_nll(self, rng):
        logits = rng.standard_normal((4, 6))
        targets = np.array([0, 2, 5, 1])
        weights = np.zeros((4, 6))
        weights[np.arange(4), targets] = 1.0
        l2 = weighted_nll_loss(Tensor(logits), weights).item()
        l1 = nll_loss(Tensor(logits), targets).item()
        assert l2 == pytest.approx(l1, rel=1e-9)

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            weighted_nll_loss(Tensor(np.zeros((2, 3))), np.zeros((2, 4)))

    def test_gradients(self, rng):
        logits = rng.standard_normal((3, 5))
        weights = rng.dirichlet(np.ones(5), size=3)
        check_gradients(lambda x: weighted_nll_loss(x, weights), logits)


@pytest.mark.usefixtures("float64_tensors")
class TestSampledLoss:
    def test_full_candidate_set_matches_weighted_nll(self, rng):
        """With NO = the entire vocabulary, L3 equals L2 exactly."""
        vocab, hidden_dim, batch = 7, 4, 3
        hidden = rng.standard_normal((batch, hidden_dim))
        proj = rng.standard_normal((vocab, hidden_dim))
        weights_full = rng.dirichlet(np.ones(vocab), size=batch)
        candidates = np.tile(np.arange(vocab), (batch, 1))
        l3 = sampled_weighted_loss(Tensor(hidden), Tensor(proj), candidates,
                                   weights_full).item()
        logits = hidden @ proj.T
        l2 = weighted_nll_loss(Tensor(logits), weights_full).item()
        assert l3 == pytest.approx(l2, rel=1e-9)

    def test_masked_dense_variant_agrees_with_gathered(self, rng):
        vocab, hidden_dim, batch, k = 9, 4, 5, 3
        hidden = rng.standard_normal((batch, hidden_dim))
        proj = rng.standard_normal((vocab, hidden_dim))
        candidates = np.stack([rng.choice(vocab, size=k, replace=False)
                               for _ in range(batch)])
        w = rng.dirichlet(np.ones(k), size=batch)
        gathered = sampled_weighted_loss(Tensor(hidden), Tensor(proj),
                                         candidates, w).item()
        logits = Tensor(hidden @ proj.T)
        rows = np.arange(batch)[:, None]
        dense_w = np.zeros((batch, vocab))
        dense_w[rows, candidates] = w
        bias = np.full((batch, vocab), -1e9)
        bias[rows, candidates] = 0.0
        dense = masked_sampled_loss(logits, dense_w, bias).item()
        assert dense == pytest.approx(gathered, rel=1e-6)

    def test_noise_cells_only_affect_partition(self, rng):
        """Adding noise candidates (weight 0) changes Z but not the numerator."""
        hidden = rng.standard_normal((2, 3))
        proj = rng.standard_normal((6, 3))
        cand_small = np.array([[0, 1], [2, 3]])
        w = np.array([[0.6, 0.4], [0.5, 0.5]])
        small = sampled_weighted_loss(Tensor(hidden), Tensor(proj),
                                      cand_small, w).item()
        cand_big = np.concatenate([cand_small, np.array([[4, 5], [4, 5]])], axis=1)
        w_big = np.concatenate([w, np.zeros((2, 2))], axis=1)
        big = sampled_weighted_loss(Tensor(hidden), Tensor(proj),
                                    cand_big, w_big).item()
        assert big > small  # larger partition always increases -log p

    def test_bias_is_applied(self, rng):
        hidden = rng.standard_normal((2, 3))
        proj = rng.standard_normal((4, 3))
        bias = rng.standard_normal(4)
        cand = np.array([[0, 1], [2, 3]])
        w = np.array([[1.0, 0.0], [1.0, 0.0]])
        without = sampled_weighted_loss(Tensor(hidden), Tensor(proj), cand, w).item()
        with_bias = sampled_weighted_loss(Tensor(hidden), Tensor(proj), cand, w,
                                          proj_bias=Tensor(bias)).item()
        assert without != pytest.approx(with_bias)

    def test_gradients_hidden_and_proj(self, rng):
        hidden = rng.standard_normal((2, 3))
        proj = rng.standard_normal((6, 3))
        cand = np.array([[0, 1, 4], [2, 3, 5]])
        w = rng.dirichlet(np.ones(3), size=2)
        check_gradients(
            lambda h, p: sampled_weighted_loss(h, p, cand, w), hidden, proj)

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError):
            sampled_weighted_loss(Tensor(np.zeros((2, 3))),
                                  Tensor(np.zeros((5, 3))),
                                  np.zeros((2, 4), dtype=int), np.zeros((2, 3)))


# ----------------------------------------------------------------------
# Fused L3 node against the tape-built oracle (tests/loss_reference.py)
# ----------------------------------------------------------------------
def _l3_case(rng, rows, hidden_dim=6, k=4, noise=5, unnormalized=False):
    """Hidden states, parameters and an Eq. 7 candidate set of ``rows`` rows.

    Candidates come from ``proximity_candidates`` on a small random
    vocabulary, so EOS targets carry its filler candidates.  Noise is
    drawn with replacement and then forced to collide: row ``b``'s first
    noise cell repeats its second K-nearest cell, and its last noise cell
    repeats its first noise cell.  ``unnormalized`` rescales each row's
    weights so they no longer sum to 1.
    """
    vocab = ProximityVocabulary(rng.uniform(0.0, 1000.0, size=(24, 2)))
    targets = rng.integers(EOS, vocab.size, size=rows)
    targets[::3] = EOS
    cand, knn_w = vocab.proximity_candidates(targets, k, theta=100.0)
    noise = vocab.sample_noise(rng, rows, noise)
    noise[:, 0] = cand[:, 1]
    noise[:, -1] = noise[:, 0]
    candidates = np.concatenate([cand, noise], axis=1)
    weights = np.concatenate([knn_w, np.zeros(noise.shape)], axis=1)
    if unnormalized:
        weights *= rng.uniform(0.5, 1.5, size=(rows, 1))
    return {
        "hidden": rng.standard_normal((rows, hidden_dim)),
        "proj": rng.standard_normal((vocab.size, hidden_dim)),
        "bias": rng.standard_normal(vocab.size),
        "candidates": candidates,
        "weights": weights,
        "mask": (rng.random(rows) < 0.7).astype(float),
    }


def _l3_run(loss_fn, case, bias=True, mask=False, hidden_grad=True, passes=1):
    hidden = Tensor(case["hidden"], requires_grad=hidden_grad)
    proj = Tensor(case["proj"], requires_grad=True)
    proj_bias = Tensor(case["bias"], requires_grad=True) if bias else None
    for _ in range(passes):
        loss = loss_fn(hidden, proj, case["candidates"], case["weights"],
                       mask=case["mask"] if mask else None, proj_bias=proj_bias)
        loss.backward()
    grads = [hidden.grad, proj.grad, None if proj_bias is None else proj_bias.grad]
    return loss.item(), grads


def _assert_l3_parity(case, tol=1e-10, **options):
    value, grads = _l3_run(sampled_weighted_loss, case, **options)
    want_value, want_grads = _l3_run(loss_reference.sampled_weighted_loss,
                                     case, **options)
    assert value == pytest.approx(want_value, rel=tol, abs=tol)
    for got, want in zip(grads, want_grads):
        if want is None:
            assert got is None
        else:
            np.testing.assert_allclose(got, want, rtol=tol, atol=tol)


@pytest.mark.usefixtures("float64_tensors")
class TestFusedSampledLoss:
    @pytest.mark.parametrize("rows", [1, L3_TILE_ROWS - 1, L3_TILE_ROWS,
                                      L3_TILE_ROWS + 1, 2 * L3_TILE_ROWS + 3])
    @pytest.mark.parametrize("bias", [True, False])
    def test_matches_tape_oracle_across_tiles(self, rows, bias):
        case = _l3_case(np.random.default_rng(rows), rows)
        _assert_l3_parity(case, bias=bias)

    def test_case_has_collisions_and_eos_fillers(self):
        case = _l3_case(np.random.default_rng(5), 12)
        cand = case["candidates"]
        assert all(len(set(row)) < len(row) for row in cand)
        eos_rows = cand[:, 0] == EOS
        assert eos_rows.any()
        np.testing.assert_array_equal(case["weights"][eos_rows, 0], 1.0)

    @pytest.mark.parametrize("bias", [True, False])
    def test_matches_tape_oracle_with_mask(self, bias):
        case = _l3_case(np.random.default_rng(7), 2 * L3_TILE_ROWS + 3,
                        unnormalized=True)
        _assert_l3_parity(case, bias=bias, mask=True)

    def test_hidden_without_grad(self):
        case = _l3_case(np.random.default_rng(8), L3_TILE_ROWS + 1)
        _assert_l3_parity(case, hidden_grad=False)
        _, (hidden_grad, proj_grad, _) = _l3_run(
            sampled_weighted_loss, case, hidden_grad=False)
        assert hidden_grad is None and proj_grad is not None

    def test_gradients_accumulate_over_two_backward_passes(self):
        case = _l3_case(np.random.default_rng(9), L3_TILE_ROWS + 1)
        _assert_l3_parity(case, mask=True, passes=2)
        _, once = _l3_run(sampled_weighted_loss, case)
        _, twice = _l3_run(sampled_weighted_loss, case, passes=2)
        for one, two in zip(once, twice):
            np.testing.assert_allclose(two, 2 * one, rtol=1e-12)

    def test_numeric_gradients_with_bias_and_mask(self):
        case = _l3_case(np.random.default_rng(10), 5, hidden_dim=3,
                        unnormalized=True)
        check_gradients(
            lambda h, p, b: sampled_weighted_loss(
                h, p, case["candidates"], case["weights"], mask=case["mask"],
                proj_bias=b),
            case["hidden"], case["proj"], case["bias"])

    def test_float32_within_1e5_of_float64(self):
        case = _l3_case(np.random.default_rng(11), 2 * L3_TILE_ROWS + 3)
        value64, grads64 = _l3_run(sampled_weighted_loss, case, mask=True)
        set_default_dtype(np.float32)  # the fixture restores the previous default
        case32 = {key: (value.astype(np.float32)
                        if value.dtype == np.float64 else value)
                  for key, value in case.items()}
        value32, grads32 = _l3_run(sampled_weighted_loss, case32, mask=True)
        assert all(g.dtype == np.float32 for g in grads32)
        assert value32 == pytest.approx(value64, rel=1e-5)
        for got, want in zip(grads32, grads64):
            np.testing.assert_allclose(got, want, rtol=1e-5,
                                       atol=1e-5 * np.abs(want).max())
