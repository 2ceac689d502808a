"""Trainer: optimization progress, early stopping, best-weight restore."""

import numpy as np
import pytest

from repro.core import (EncoderDecoder, LossSpec, ModelConfig, Trainer,
                        TrainingConfig)
from repro.core import trainer as trainer_module
from repro.data import TrainingDataPipeline
from repro.telemetry import Callback, StopTraining


@pytest.fixture(scope="module")
def datasets(vocab, trips):
    train = TrainingDataPipeline(trips[:12], vocab, dropping_rates=(0.0, 0.4),
                                 distorting_rates=(0.0,), seed=0)
    val = TrainingDataPipeline(trips[12:16], vocab, dropping_rates=(0.0,),
                               distorting_rates=(0.0,), seed=1)
    return train.materialize(), val.materialize()


def make_model(vocab, seed=0):
    return EncoderDecoder(ModelConfig(vocab.size, 16, 16, num_layers=1,
                                      dropout=0.0, seed=seed))


def test_training_reduces_loss(vocab, datasets):
    train, val = datasets
    model = make_model(vocab)
    trainer = Trainer(model, vocab, LossSpec(kind="L3", k_nearest=6, noise=16),
                      TrainingConfig(batch_size=16, max_epochs=4, patience=10))
    result = trainer.fit(train, validation=val)
    assert result.epochs_run == 4
    assert result.train_losses[-1] < result.train_losses[0]
    assert result.steps == 4 * len(list(train.batches(16)))


def test_validation_tracked_and_best_loss_recorded(vocab, datasets):
    train, val = datasets
    model = make_model(vocab)
    trainer = Trainer(model, vocab, LossSpec(kind="L1"),
                      TrainingConfig(batch_size=16, max_epochs=3, patience=10))
    result = trainer.fit(train, validation=val)
    assert len(result.val_losses) == 3
    assert result.best_val_loss == pytest.approx(min(result.val_losses))


def test_early_stopping_with_zero_patience_stops_on_first_plateau(vocab, datasets):
    train, val = datasets
    model = make_model(vocab)
    # patience=1: stop as soon as validation fails to improve once.
    trainer = Trainer(model, vocab, LossSpec(kind="L1"),
                      TrainingConfig(batch_size=16, max_epochs=50, patience=1,
                                     lr=10.0))  # huge lr forces divergence
    result = trainer.fit(train, validation=val)
    assert result.stopped_early
    assert result.epochs_run < 50


def test_best_weights_restored_after_divergence(vocab, datasets):
    train, val = datasets
    model = make_model(vocab)
    trainer = Trainer(model, vocab, LossSpec(kind="L1"),
                      TrainingConfig(batch_size=16, max_epochs=6, patience=2,
                                     lr=5.0))
    result = trainer.fit(train, validation=val)
    # After restore, evaluating again reproduces (close to) the best loss.
    final_loss = trainer.evaluate(val)
    assert final_loss == pytest.approx(result.best_val_loss, rel=0.05)


def test_fit_without_validation_runs_all_epochs(vocab, datasets):
    train, _ = datasets
    model = make_model(vocab)
    trainer = Trainer(model, vocab, LossSpec(kind="L1"),
                      TrainingConfig(batch_size=16, max_epochs=2))
    result = trainer.fit(train, validation=None)
    assert result.epochs_run == 2
    assert result.val_losses == []
    assert not result.stopped_early


def test_train_step_returns_finite_loss(vocab, datasets):
    train, _ = datasets
    model = make_model(vocab)
    trainer = Trainer(model, vocab, LossSpec(kind="L3", k_nearest=6, noise=16),
                      TrainingConfig(batch_size=8))
    batch = next(train.batches(8, np.random.default_rng(0)))
    loss = trainer.train_step(batch)
    assert np.isfinite(loss)


def test_gradient_clipping_applied(vocab, datasets):
    """With clip_norm tiny, parameters barely move even at high lr."""
    train, _ = datasets
    batch = next(train.batches(16, np.random.default_rng(0)))

    def weight_change(clip):
        model = make_model(vocab, seed=1)
        before = model.proj_weight.data.copy()
        trainer = Trainer(model, vocab, LossSpec(kind="L1"),
                          TrainingConfig(batch_size=16, lr=1e-3,
                                         clip_norm=clip))
        for _ in range(3):
            trainer.train_step(batch)
        return np.abs(model.proj_weight.data - before).sum()

    assert weight_change(1e-6) < weight_change(5.0)


class StopAfter(Callback):
    """Records every ``on_batch_end`` and stops ``fit`` after ``steps``."""

    def __init__(self, steps):
        self.steps = steps
        self.seen = []

    def on_batch_end(self, trainer, step, loss, tokens):
        self.seen.append((step, tokens))
        if len(self.seen) >= self.steps:
            raise StopTraining


def test_result_counts_steps_stopped_by_a_callback(vocab, datasets):
    """A callback's StopTraining must not drop the step it saw, nor the
    tokens of the unfinished epoch."""
    train, _ = datasets
    steps_per_epoch = len(list(train.batches(16)))
    budget = StopAfter(steps_per_epoch + 3)     # stops mid-epoch 2
    trainer = Trainer(make_model(vocab), vocab, LossSpec(kind="L1"),
                      TrainingConfig(batch_size=16, max_epochs=5))
    result = trainer.fit(train, callbacks=[budget])
    assert result.stopped_early
    assert [step for step, _ in budget.seen] == list(range(len(budget.seen)))
    assert result.steps == len(budget.seen) == budget.steps
    assert result.tokens == sum(tokens for _, tokens in budget.seen)
    assert trainer.steps_taken == result.steps


def test_non_finite_loss_fails_before_the_update(vocab, datasets, monkeypatch):
    train, _ = datasets
    batch = next(train.batches(8, np.random.default_rng(0)))
    trainer = Trainer(make_model(vocab), vocab, LossSpec(kind="L1"),
                      TrainingConfig(batch_size=8))
    trainer.train_step(batch)
    before = {k: v.copy() for k, v in trainer.model.state_dict().items()}
    real_loss = trainer_module.sequence_loss

    def poisoned_loss(*args, **kwargs):
        return real_loss(*args, **kwargs) * float("nan")

    monkeypatch.setattr(trainer_module, "sequence_loss", poisoned_loss)
    with pytest.raises(FloatingPointError) as info:
        trainer.train_step(batch)
    message = str(info.value)
    assert "step 1" in message
    assert str(batch.src.shape) in message
    assert str(batch.tgt_out.shape) in message
    for key, value in trainer.model.state_dict().items():
        np.testing.assert_array_equal(value, before[key])
    assert trainer.steps_taken == 1


def test_non_finite_loss_stops_fit(vocab, datasets, monkeypatch):
    train, _ = datasets
    real_loss = trainer_module.sequence_loss
    monkeypatch.setattr(trainer_module, "sequence_loss",
                        lambda *a, **k: real_loss(*a, **k) * float("inf"))
    trainer = Trainer(make_model(vocab), vocab, LossSpec(kind="L1"),
                      TrainingConfig(batch_size=16, max_epochs=2))
    with pytest.raises(FloatingPointError, match="at step 0"):
        trainer.fit(train)
