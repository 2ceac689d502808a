"""Config serialization: to_dict/from_dict equality and checkpoint fidelity."""

import dataclasses
import json

import numpy as np
import pytest

from repro import LossSpec, T2Vec, T2VecConfig, TrainingConfig


def custom_config() -> T2VecConfig:
    """A config where every field differs from its default."""
    return T2VecConfig(
        cell_size=77.0, min_hits=9, embedding_size=12, hidden_size=12,
        num_layers=3, dropout=0.25, rnn_type="lstm",
        loss=LossSpec(kind="L2", k_nearest=4, theta=55.0, noise=8),
        pretrain_cells=False, cell_epochs=7,
        dropping_rates=(0.1, 0.2), distorting_rates=(0.3,),
        training=TrainingConfig(batch_size=11, max_epochs=21, lr=2e-3,
                                clip_norm=3.0, patience=2, eval_batches=4,
                                seed=13),
        val_fraction=0.33, encode_cache_size=123, seed=42,
    )


def test_loss_spec_roundtrip():
    spec = LossSpec(kind="L2", k_nearest=7, theta=42.0, noise=5)
    assert LossSpec.from_dict(spec.to_dict()) == spec


def test_training_config_roundtrip():
    config = TrainingConfig(batch_size=3, max_epochs=5, lr=0.5,
                            clip_norm=1.0, patience=9, eval_batches=2, seed=4)
    assert TrainingConfig.from_dict(config.to_dict()) == config


def test_t2vec_config_roundtrip_including_nested():
    config = custom_config()
    data = config.to_dict()
    assert T2VecConfig.from_dict(data) == config
    # Every declared field appears in the dict.
    assert set(data) == {f.name for f in dataclasses.fields(T2VecConfig)}


def test_t2vec_config_dict_is_json_safe():
    config = custom_config()
    through_json = json.loads(json.dumps(config.to_dict()))
    assert T2VecConfig.from_dict(through_json) == config


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown T2VecConfig"):
        T2VecConfig.from_dict({"cell_sizes": 100.0})
    with pytest.raises(ValueError, match="unknown TrainingConfig"):
        TrainingConfig.from_dict({"batch": 32})
    with pytest.raises(ValueError, match="unknown LossSpec"):
        LossSpec.from_dict({"kind": "L1", "K": 20})


def test_from_dict_drops_retired_prefetch_key():
    """``prefetch_batches`` (a retired field) is dropped, so checkpoints
    that carry it load; any other unknown key still raises."""
    data = dict(TrainingConfig(batch_size=7).to_dict(), prefetch_batches=2)
    assert TrainingConfig.from_dict(data) == TrainingConfig(batch_size=7)
    with pytest.raises(ValueError, match=r"\['prefetch_batche'\]"):
        TrainingConfig.from_dict(dict(data, prefetch_batche=2))


def test_from_dict_defaults_missing_keys():
    """Old checkpoints carry partial configs; missing fields use defaults."""
    config = T2VecConfig.from_dict({
        "cell_size": 50.0, "min_hits": 2,
        "loss": {"kind": "L1", "k_nearest": 3, "theta": 10.0, "noise": 2},
        "seed": 5,
    })
    assert config.cell_size == 50.0
    assert config.loss.kind == "L1"
    assert config.training == TrainingConfig()      # default preserved
    assert config.pretrain_cells is True
    assert config.val_fraction == 0.1


def test_save_load_preserves_every_config_field(trips, tmp_path):
    """The checkpoint roundtrip keeps the full config, so a loaded model
    could be re-fit identically (the old path dropped pretrain_cells,
    rates, val_fraction, and the whole TrainingConfig)."""
    config = T2VecConfig(
        min_hits=3, embedding_size=8, hidden_size=8, num_layers=1,
        dropout=0.0, loss=LossSpec(kind="L1"),
        pretrain_cells=False, cell_epochs=5,
        dropping_rates=(0.0, 0.25), distorting_rates=(0.0, 0.5),
        training=TrainingConfig(batch_size=16, max_epochs=1, lr=5e-4,
                                patience=3, eval_batches=2, seed=11),
        val_fraction=0.2, encode_cache_size=50, seed=3,
    )
    model = T2Vec(config)
    model.fit(trips[:12])
    path = tmp_path / "model.npz"
    model.save(path)
    restored = T2Vec.load(path)
    assert restored.config == config
    assert restored.config.to_dict() == config.to_dict()


def test_load_old_style_partial_checkpoint_meta(trips, tmp_path):
    """Checkpoints written before full-config metadata still load."""
    from repro.nn.serialization import load_checkpoint, save_checkpoint

    config = T2VecConfig(min_hits=3, embedding_size=8, hidden_size=8,
                         num_layers=1, dropout=0.0, loss=LossSpec(kind="L1"),
                         pretrain_cells=False, val_fraction=0.0,
                         training=TrainingConfig(batch_size=16, max_epochs=1))
    model = T2Vec(config)
    model.fit(trips[:12])
    path = tmp_path / "old.npz"
    model.save(path)

    # Rewrite metadata in the pre-redesign shape (hand-rolled subset).
    state, meta = load_checkpoint(path)
    meta["config"] = {
        "cell_size": config.cell_size, "min_hits": config.min_hits,
        "embedding_size": 8, "hidden_size": 8, "num_layers": 1,
        "dropout": 0.0, "rnn_type": "gru",
        "loss": {"kind": "L1", "k_nearest": 10, "theta": 100.0, "noise": 64},
        "seed": 0,
    }
    save_checkpoint(path, state, meta)

    restored = T2Vec.load(path)
    assert restored.config.hidden_size == 8
    assert restored.config.training == TrainingConfig()  # defaulted
    assert restored.vocab.size == model.vocab.size


def test_load_checkpoint_with_retired_training_key(trips, tmp_path):
    """A checkpoint whose metadata still carries ``prefetch_batches``
    loads, with the rest of its TrainingConfig intact."""
    from repro.nn.serialization import load_checkpoint, save_checkpoint

    config = T2VecConfig(min_hits=3, embedding_size=8, hidden_size=8,
                         num_layers=1, dropout=0.0, loss=LossSpec(kind="L1"),
                         pretrain_cells=False, val_fraction=0.0,
                         training=TrainingConfig(batch_size=16, max_epochs=1))
    model = T2Vec(config)
    model.fit(trips[:12])
    path = tmp_path / "retired.npz"
    model.save(path)

    state, meta = load_checkpoint(path)
    meta["config"]["training"]["prefetch_batches"] = 2
    save_checkpoint(path, state, meta)

    restored = T2Vec.load(path)
    assert restored.config == config
    np.testing.assert_array_equal(restored.encode(trips[0]),
                                  model.encode(trips[0]))
