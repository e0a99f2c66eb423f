"""Model zoo: train-once, cache-on-disk tiny LMs shared by the whole repo.

Stands in for downloading pretrained OPT/LLaMA checkpoints: the first call
trains the requested configuration on its Markov source and caches the
weights under ``$REPRO_CACHE`` (default ``~/.cache/repro``); subsequent
calls (tests, examples, every benchmark) load instantly.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.data.markov import MarkovTextSource
from repro.models.config import ModelConfig
from repro.models.float_model import FloatTransformerLM
from repro.training.trainer import TrainConfig, Trainer
from repro.utils.logging import get_logger

logger = get_logger("zoo")

#: Named configurations. "mini" is for fast unit tests; "tiny" is the
#: workhorse for experiments (OPT-style stands in for OPT-1.3B, LLaMA-style
#: for LLaMA-2-7B / LLaMA-3-8B); "deep" doubles the layer count for
#: depth-sensitive studies (layer-wise sweeps, clean-trace replay).
ZOO_SPECS: dict[str, dict] = {
    "opt-mini": {
        "config": dict(
            arch="opt", vocab_size=64, d_model=32, n_heads=2, n_layers=2,
            d_ff=64, max_seq_len=48, outlier_channels=2,
        ),
        "train": dict(steps=500, batch_size=12, seq_len=32, lr=4e-3, log_every=0),
        "source": dict(vocab_size=64, branching=4, concentration=0.3),
    },
    "llama-mini": {
        "config": dict(
            arch="llama", vocab_size=64, d_model=32, n_heads=2, n_layers=2,
            d_ff=48, max_seq_len=48, outlier_channels=2,
        ),
        "train": dict(steps=500, batch_size=12, seq_len=32, lr=4e-3, log_every=0),
        "source": dict(vocab_size=64, branching=4, concentration=0.3),
    },
    "opt-tiny": {
        "config": dict(
            arch="opt", vocab_size=128, d_model=64, n_heads=4, n_layers=4,
            d_ff=128, max_seq_len=64, outlier_channels=4,
        ),
        "train": dict(steps=1400, batch_size=16, seq_len=48, lr=3e-3, log_every=200),
        "source": dict(vocab_size=128, branching=4, concentration=0.3),
    },
    "llama-tiny": {
        "config": dict(
            arch="llama", vocab_size=128, d_model=64, n_heads=4, n_layers=4,
            d_ff=96, max_seq_len=64, outlier_channels=4,
        ),
        "train": dict(steps=1400, batch_size=16, seq_len=48, lr=3e-3, log_every=200),
        "source": dict(vocab_size=128, branching=4, concentration=0.3),
    },
    "opt-deep": {
        "config": dict(
            arch="opt", vocab_size=128, d_model=64, n_heads=4, n_layers=8,
            d_ff=128, max_seq_len=64, outlier_channels=4,
        ),
        "train": dict(steps=1000, batch_size=16, seq_len=48, lr=3e-3, log_every=200),
        "source": dict(vocab_size=128, branching=4, concentration=0.3),
    },
}


@dataclass
class PretrainedBundle:
    """Everything downstream code needs: config, weights, data source."""

    name: str
    config: ModelConfig
    state: dict[str, np.ndarray]
    source: MarkovTextSource
    final_loss: float

    def float_model(self) -> FloatTransformerLM:
        model = FloatTransformerLM(self.config)
        model.load_state_dict(self.state)
        return model


def cache_dir() -> Path:
    root = os.environ.get("REPRO_CACHE")
    if root:
        return Path(root)
    return Path.home() / ".cache" / "repro"


def _cache_path(name: str, seed: int) -> Path:
    return cache_dir() / f"zoo-{name}-seed{seed}.npz"


def clear_cache() -> None:
    """Delete all cached zoo checkpoints."""
    directory = cache_dir()
    if directory.exists():
        for path in directory.glob("zoo-*.npz"):
            path.unlink()


def model_config(name: str) -> ModelConfig:
    """The :class:`ModelConfig` of zoo model ``name``, built from
    ``ZOO_SPECS`` without touching the checkpoint — exactly the config
    :func:`get_pretrained` attaches to its bundle."""
    if name not in ZOO_SPECS:
        raise KeyError(f"unknown zoo model {name!r}; available: {sorted(ZOO_SPECS)}")
    return ModelConfig(**ZOO_SPECS[name]["config"])


def _train(name: str, seed: int) -> PretrainedBundle:
    spec = ZOO_SPECS[name]
    config = model_config(name)
    source = MarkovTextSource(seed=seed, **spec["source"])
    model = FloatTransformerLM(config, seed=seed)
    trainer = Trainer(model, TrainConfig(**spec["train"]))
    logger.info("training zoo model %s (seed %d)...", name, seed)
    result = trainer.train(source, run_key=f"zoo/{name}")
    logger.info("zoo model %s trained, final loss %.4f", name, result.final_loss)
    return PretrainedBundle(
        name=name,
        config=config,
        state=model.state_dict(),
        source=source,
        final_loss=result.final_loss,
    )


def get_pretrained(name: str, seed: int = 0, use_cache: bool = True) -> PretrainedBundle:
    """Return a trained bundle, training and caching it on first use."""
    config = model_config(name)
    path = _cache_path(name, seed)
    spec = ZOO_SPECS[name]
    if use_cache and path.exists():
        try:
            with np.load(path, allow_pickle=False) as archive:
                meta = json.loads(str(archive["__meta__"]))
                state = {
                    key: archive[key]
                    for key in archive.files
                    if key not in ("__meta__",)
                }
        except _UNREADABLE_ARCHIVE as err:
            logger.warning("cache for %s is unreadable (%s); retraining", name, err)
            meta = {}
            state = {}
        if state and meta.get("spec") == _spec_fingerprint(spec):
            source = MarkovTextSource(seed=seed, **spec["source"])
            return PretrainedBundle(
                name=name,
                config=config,
                state=state,
                source=source,
                final_loss=float(meta["final_loss"]),
            )
        logger.info("cache for %s is stale; retraining", name)
    bundle = _train(name, seed)
    if use_cache:
        path.parent.mkdir(parents=True, exist_ok=True)
        meta = json.dumps(
            {"spec": _spec_fingerprint(spec), "final_loss": bundle.final_loss}
        )
        _save_atomic(path, __meta__=np.asarray(meta), **bundle.state)
    return bundle


#: What reading a torn, truncated or foreign cache file raises; anything
#: else is a real fault and propagates instead of becoming a silent retrain.
_UNREADABLE_ARCHIVE = (
    OSError, ValueError, KeyError, zipfile.BadZipFile, EOFError, json.JSONDecodeError,
)


def _save_atomic(path: Path, **arrays: np.ndarray) -> None:
    """``np.savez`` to a temp file beside ``path``, then rename it into
    place: a reader (another worker on a cold cache) sees the old archive
    or the complete new one, never a torn one. The temp file is written
    through a handle because ``np.savez`` appends ``.npz`` to bare names."""
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez(handle, **arrays)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _spec_fingerprint(spec: dict) -> str:
    return json.dumps(spec, sort_keys=True, default=str)
