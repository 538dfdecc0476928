"""Run configuration: YAML loading, defaults, and canonical hashing."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace

import yaml

from .encoders import MteConfig
from .errors import ConfigError
from .events import DatasetManifest, SplitSpec
from .model import ModelConfig
from .sampling import NegativeSamplingStrategy

__all__ = [
    "TrainConfig", "TraceSpec", "RunConfig", "read_config", "load_config", "run_config_from_dict",
    "fit_time_encoder", "config_hash",
]

_SETTING_ALIASES = {"trans": "transductive", "ind": "inductive"}


@dataclass
class TrainConfig:
    lr: float = 1e-4
    weight_decay: float = 0.0
    epochs: int = 100
    patience: int = 20
    batch_size: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be non-negative")
        if self.epochs < 0:
            raise ConfigError("epochs must be non-negative")
        if self.patience < 1:
            raise ConfigError("patience must be positive")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be positive")


@dataclass
class TraceSpec:
    """Attention tracing: which nodes count as keys and when to snapshot."""

    threshold: float = 150.0
    epochs: list[int] = field(default_factory=list)  # 0 = before training
    layer: int = -1
    probe_batches: int = 5

    def __post_init__(self):
        if self.threshold <= 0:
            raise ConfigError("trace threshold must be positive")
        if self.probe_batches < 1:
            raise ConfigError(f"trace probe_batches must be positive, got {self.probe_batches}")


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    split: SplitSpec = field(default_factory=SplitSpec)
    nss: str = "random"
    setting: str = "transductive"
    trace: TraceSpec | None = None

    def __post_init__(self):
        try:
            self.nss = NegativeSamplingStrategy(self.nss).kind
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        self.setting = _SETTING_ALIASES.get(self.setting, self.setting)
        if self.setting not in ("transductive", "inductive"):
            raise ConfigError(f"setting must be transductive or inductive, got {self.setting!r}")
        if self.trace is not None:
            layers, epochs = self.model.layers, self.train.epochs
            if not -layers <= self.trace.layer < layers:
                raise ConfigError(
                    f"trace layer {self.trace.layer} outside [-{layers}, {layers}) for a {layers}-layer model"
                )
            # train snapshots before training (0), after each epoch and at the end (-1)
            bad = [e for e in self.trace.epochs if not -1 <= e <= epochs]
            if bad:
                raise ConfigError(
                    f"trace epochs {bad} outside -1 (end), 0 (start) and 1..{epochs} for a {epochs}-epoch run"
                )

    def to_dict(self) -> dict:
        out = {
            "model": asdict(self.model),
            "train": asdict(self.train),
            "split": asdict(self.split),
            "nss": self.nss,
            "setting": self.setting,
        }
        if self.trace is not None:
            out["trace"] = asdict(self.trace)
        return out


def run_config_from_dict(raw: dict) -> RunConfig:
    raw = dict(raw or {})
    trace_raw = raw.get("trace")
    try:
        model_raw = dict(raw.get("model") or {})
        mte_raw = model_raw.pop("mte", None)
        if mte_raw is not None:
            model_raw["mte"] = MteConfig(**mte_raw)
        return RunConfig(
            model=ModelConfig(**model_raw),
            train=TrainConfig(**(raw.get("train") or {})),
            split=SplitSpec(**(raw.get("split") or {})),
            nss=raw.get("nss", "random"),
            setting=raw.get("setting", "transductive"),
            trace=TraceSpec(**trace_raw) if trace_raw else None,
        )
    except TypeError as exc:
        raise ConfigError(f"bad config field: {exc}") from exc


def read_config(path) -> dict:
    """The raw mapping of a YAML run config (empty for an empty file)."""
    with open(path) as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"config {path} is not valid YAML: {' '.join(str(exc).split())}") from None
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be a mapping, got {type(raw).__name__}")
    return raw


def load_config(path) -> RunConfig:
    return run_config_from_dict(read_config(path))


def fit_time_encoder(
    run_cfg: RunConfig, duration_seconds: float, manifest: DatasetManifest | None = None, given=()
) -> RunConfig:
    """``run_cfg`` with its time encoder fitted to a dataset.

    Alpha becomes :meth:`MteConfig.smallest_alpha` at the dataset's
    duration, and a manifest's calendar granularity and segment count replace
    the config's unless they are among the ``given`` field names. The CLI
    applies this to configs that leave ``model.mte.alpha`` unset; a config
    that sets alpha is used as written.
    """
    mte = run_cfg.model.mte
    changes = {"alpha": mte.smallest_alpha(duration_seconds)}
    if manifest is not None:
        changes.update({k: getattr(manifest, k) for k in ("granularity", "r_segments") if k not in given})
    return replace(run_cfg, model=replace(run_cfg.model, mte=replace(mte, **changes)))


def config_hash(cfg: RunConfig) -> str:
    canonical = json.dumps(cfg.to_dict(), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]
