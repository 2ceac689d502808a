"""Trainer callback API: firing order, counts, metrics, deprecation shim."""

import numpy as np
import pytest

from repro.core import (EncoderDecoder, LossSpec, ModelConfig, Trainer,
                        TrainingConfig)
from repro.data import TrainingDataPipeline
from repro.telemetry import (Callback, HistoryCallback, MetricsRegistry,
                             ProgressLogger, StopTraining)


@pytest.fixture(scope="module")
def datasets(vocab, trips):
    def clean_pairs(originals):
        return TrainingDataPipeline(originals, vocab, dropping_rates=(0.0,),
                                    distorting_rates=(0.0,)).materialize()

    return clean_pairs(trips[:10]), clean_pairs(trips[10:13])


def make_trainer(vocab, registry=None, **config):
    model = EncoderDecoder(ModelConfig(vocab.size, 16, 16, num_layers=1,
                                       dropout=0.0, seed=0))
    defaults = dict(batch_size=16, max_epochs=2, patience=10)
    defaults.update(config)
    return Trainer(model, vocab, LossSpec(kind="L1"),
                   TrainingConfig(**defaults), registry=registry)


class RecordingCallback(Callback):
    """Logs every hook invocation as (hook_name, key_arg)."""

    def __init__(self):
        self.events = []

    def on_fit_start(self, trainer):
        self.events.append(("fit_start", None))

    def on_epoch_start(self, trainer, epoch):
        self.events.append(("epoch_start", epoch))

    def on_batch_end(self, trainer, step, loss, tokens):
        self.events.append(("batch_end", step))
        assert np.isfinite(loss) and tokens > 0

    def on_epoch_end(self, trainer, epoch, logs):
        self.events.append(("epoch_end", epoch))
        assert set(logs) >= {"train_loss", "val_loss", "tokens_per_s",
                             "epoch_time_s", "steps"}

    def on_fit_end(self, trainer, result):
        self.events.append(("fit_end", None))


def test_callback_firing_order_and_counts(vocab, datasets):
    train, val = datasets
    trainer = make_trainer(vocab, max_epochs=2)
    recorder = RecordingCallback()
    result = trainer.fit(train, validation=val, callbacks=[recorder])

    hooks = [name for name, _ in recorder.events]
    assert hooks[0] == "fit_start" and hooks[-1] == "fit_end"
    assert hooks.count("epoch_start") == result.epochs_run == 2
    assert hooks.count("epoch_end") == 2
    assert hooks.count("batch_end") == result.steps

    # Within each epoch: epoch_start, then batches, then epoch_end.
    first_epoch = hooks[1:hooks.index("epoch_end") + 1]
    assert first_epoch[0] == "epoch_start"
    assert set(first_epoch[1:-1]) == {"batch_end"}
    # Batch steps are globally sequential.
    steps = [arg for name, arg in recorder.events if name == "batch_end"]
    assert steps == list(range(result.steps))


def test_multiple_callbacks_run_in_order(vocab, datasets):
    train, _ = datasets
    order = []

    class Tagged(Callback):
        def __init__(self, tag):
            self.tag = tag

        def on_epoch_start(self, trainer, epoch):
            order.append(self.tag)

    trainer = make_trainer(vocab, max_epochs=1)
    trainer.fit(train, callbacks=[Tagged("a"), Tagged("b")])
    assert order == ["a", "b"]


def test_stop_training_from_callback(vocab, datasets):
    train, _ = datasets

    class StopAfterFirstEpoch(Callback):
        def on_epoch_end(self, trainer, epoch, logs):
            raise StopTraining

    trainer = make_trainer(vocab, max_epochs=50)
    result = trainer.fit(train, callbacks=[StopAfterFirstEpoch()])
    assert result.epochs_run == 1
    assert result.stopped_early


def test_history_callback_accumulates_epochs(vocab, datasets):
    train, val = datasets
    trainer = make_trainer(vocab, max_epochs=3)
    history = HistoryCallback()
    trainer.fit(train, validation=val, callbacks=[history])
    assert len(history.history) == 3
    assert [h["epoch"] for h in history.history] == [0, 1, 2]
    assert all(h["val_loss"] is not None for h in history.history)


def test_progress_logger_writes_epoch_lines(vocab, datasets, capsys):
    import io
    train, val = datasets
    stream = io.StringIO()
    trainer = make_trainer(vocab, max_epochs=2)
    trainer.fit(train, validation=val,
                callbacks=[ProgressLogger(stream=stream)])
    text = stream.getvalue()
    assert "epoch   1:" in text and "epoch   2:" in text
    assert "tok/s" in text
    assert "fit done: 2 epochs" in text


def test_trainer_records_registry_metrics(vocab, datasets):
    train, val = datasets
    registry = MetricsRegistry()
    trainer = make_trainer(vocab, registry=registry, max_epochs=2)
    result = trainer.fit(train, validation=val)

    assert registry.counters["train.steps"] == result.steps
    assert registry.counters["train.tokens"] == result.tokens > 0
    assert registry.gauge("train.epoch_loss").history == pytest.approx(
        result.train_losses)
    assert registry.gauge("train.val_loss").history == pytest.approx(
        result.val_losses)
    assert all(v > 0 for v in registry.gauge("train.tokens_per_s").history)
    assert result.tokens_per_s > 0
    span_names = {s.name for s in registry.spans}
    assert {"fit", "fit.epoch"} <= span_names
    assert registry.histogram("fit.epoch").count == result.epochs_run


def test_positional_and_keyword_validation_conflict(vocab, datasets):
    # validation is keyword-only: a positional one is rejected outright.
    train, val = datasets
    trainer = make_trainer(vocab, max_epochs=1)
    with pytest.raises(TypeError):
        trainer.fit(train, val)
    with pytest.raises(TypeError):
        trainer.fit(train, val, validation=val)
    assert trainer.steps_taken == 0
