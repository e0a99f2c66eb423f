"""Tests for the trainer and the model zoo."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.markov import MarkovTextSource
from repro.models.config import ModelConfig
from repro.models.float_model import FloatTransformerLM
from repro.training.trainer import TrainConfig, Trainer, lr_at
from repro.training.zoo import ZOO_SPECS, get_pretrained


class TestLrSchedule:
    def test_warmup_ramps_linearly(self):
        cfg = TrainConfig(steps=100, warmup_steps=10, lr=1.0)
        assert lr_at(0, cfg) == pytest.approx(0.1)
        assert lr_at(9, cfg) == pytest.approx(1.0)

    def test_cosine_decays_to_floor(self):
        cfg = TrainConfig(steps=100, warmup_steps=10, lr=1.0)
        assert lr_at(99, cfg) < lr_at(50, cfg) < lr_at(10, cfg)
        assert lr_at(99, cfg) >= 0.1 * cfg.lr - 1e-6


class TestTrainer:
    def _tiny(self):
        config = ModelConfig(
            arch="opt", vocab_size=32, d_model=16, n_heads=2, n_layers=1,
            d_ff=32, max_seq_len=32,
        )
        return FloatTransformerLM(config, seed=0)

    def test_loss_decreases(self):
        model = self._tiny()
        source = MarkovTextSource(vocab_size=32, seed=0)
        result = Trainer(model, TrainConfig(steps=60, batch_size=8, seq_len=16, lr=5e-3, log_every=0)).train(source)
        head = np.mean(result.losses[:10])
        tail = np.mean(result.losses[-10:])
        assert tail < head * 0.8

    def test_vocab_mismatch_rejected(self):
        model = self._tiny()
        with pytest.raises(ValueError):
            Trainer(model, TrainConfig(steps=1, log_every=0)).train(
                MarkovTextSource(vocab_size=64, seed=0)
            )

    def test_seq_len_exceeding_model_rejected(self):
        model = self._tiny()
        with pytest.raises(ValueError):
            Trainer(model, TrainConfig(steps=1, seq_len=64, log_every=0)).train(
                MarkovTextSource(vocab_size=32, seed=0)
            )

    def test_training_is_reproducible(self):
        source = MarkovTextSource(vocab_size=32, seed=0)
        losses = []
        for _ in range(2):
            model = self._tiny()
            result = Trainer(
                model, TrainConfig(steps=10, batch_size=4, seq_len=16, log_every=0)
            ).train(source)
            losses.append(result.losses)
        np.testing.assert_allclose(losses[0], losses[1])


class TestZoo:
    def test_unknown_model_rejected(self):
        with pytest.raises(KeyError):
            get_pretrained("gpt5-mini")

    def test_all_specs_have_required_fields(self):
        for name, spec in ZOO_SPECS.items():
            assert {"config", "train", "source"} <= set(spec)
            assert spec["config"]["arch"] in ("opt", "llama"), name

    def test_cache_roundtrip(self, opt_bundle):
        """Second load must come from cache and be bit-identical."""
        again = get_pretrained("opt-mini")
        assert again.final_loss == opt_bundle.final_loss
        for key, value in opt_bundle.state.items():
            np.testing.assert_array_equal(value, again.state[key])

    def test_bundle_trains_to_near_source_entropy(self, opt_bundle):
        floor = opt_bundle.source.entropy_rate()
        assert opt_bundle.final_loss < floor + 0.25

    def test_model_config_needs_no_checkpoint(self, opt_bundle, monkeypatch):
        import repro.training.zoo as zoo

        monkeypatch.setattr(zoo.np, "load", None)  # any checkpoint read fails
        for name in ZOO_SPECS:
            assert zoo.model_config(name) == ModelConfig(**ZOO_SPECS[name]["config"])
        assert zoo.model_config("opt-mini") == opt_bundle.config
        with pytest.raises(KeyError):
            zoo.model_config("gpt5-mini")

    def test_crash_mid_write_keeps_old_checkpoint(
        self, opt_bundle, tmp_path, monkeypatch
    ):
        """A writer dying inside ``np.savez`` leaves the previous archive in
        place and readable, and no stray file a later load could pick up."""
        import repro.training.zoo as zoo

        source = zoo._cache_path("opt-mini", 0)
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        path = zoo._cache_path("opt-mini", 0)
        path.write_bytes(source.read_bytes())

        def torn_savez(handle, **arrays):
            handle.write(b"PK\x03\x04 half an archive")
            raise KeyboardInterrupt("killed mid-write")

        monkeypatch.setattr(zoo.np, "savez", torn_savez)
        with pytest.raises(KeyboardInterrupt):
            zoo._save_atomic(path, **opt_bundle.state)
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]
        monkeypatch.setattr(zoo, "_train", lambda *a: pytest.fail("retrained"))
        again = zoo.get_pretrained("opt-mini")
        assert again.final_loss == opt_bundle.final_loss
        for key, value in opt_bundle.state.items():
            np.testing.assert_array_equal(value, again.state[key])

    def test_torn_cache_warns_and_is_replaced_whole(
        self, opt_bundle, tmp_path, monkeypatch, caplog
    ):
        import logging

        import repro.training.zoo as zoo

        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        path = zoo._cache_path("opt-mini", 0)
        path.write_bytes(b"not an npz archive")
        monkeypatch.setattr(zoo, "_train", lambda name, seed: opt_bundle)
        with caplog.at_level(logging.WARNING, logger="repro.zoo"):
            zoo.get_pretrained("opt-mini")
        assert any(
            r.levelno == logging.WARNING and "unreadable" in r.getMessage()
            for r in caplog.records
        )
        monkeypatch.setattr(zoo, "_train", lambda *a: pytest.fail("retrained"))
        assert zoo.get_pretrained("opt-mini").final_loss == opt_bundle.final_loss
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]

    def test_unexpected_load_error_is_not_a_silent_retrain(
        self, tmp_path, monkeypatch
    ):
        import repro.training.zoo as zoo

        monkeypatch.setenv("REPRO_CACHE", str(tmp_path))
        zoo._cache_path("opt-mini", 0).write_bytes(b"irrelevant")

        def broken_load(*args, **kwargs):
            raise RuntimeError("not a torn file")

        monkeypatch.setattr(zoo.np, "load", broken_load)
        monkeypatch.setattr(zoo, "_train", lambda *a: pytest.fail("retrained"))
        with pytest.raises(RuntimeError, match="not a torn file"):
            zoo.get_pretrained("opt-mini")

    def test_float_model_reconstruction(self, opt_bundle):
        model = opt_bundle.float_model()
        loss = model.loss(opt_bundle.source.sample_batch(2, 16, key="zcheck"))
        assert np.isfinite(loss.item())
