"""Run configuration and the seed derivation scheme.

Every training draw flows from config.seed through seed_chain(root, *tags);
the synthetic stream draws from its own StreamSpec.seed. The CLI's --seed
sets both, so one flag reproduces a full run.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .datagen import StreamSpec
from .encoder import DEFAULT_DIM, DEFAULT_TAU, DEFAULT_VOCAB, fnv1a64
from .errors import ConfigError
from .fileio import atomic_write_text

METHODS = (
    "FT",
    "FT+KD",
    "FT+QDC",
    "FT+KD+QDC",
    "FT+REINDEX",
    "FT+KD+REINDEX",
)


def parse_method(method: str) -> tuple[bool, str]:
    """Split a method name into (kd flag, retrieval strategy)."""
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}; choose from {METHODS}")
    kd = "+KD" in method
    if method.endswith("+QDC"):
        return kd, "qdc"
    if method.endswith("+REINDEX"):
        return kd, "reindex"
    return kd, "plain"


def seed_chain(root: int, *tags) -> list[int]:
    """Fold a root seed and purpose tags into a seed-sequence entropy list."""
    if root < 0:
        raise ConfigError("seed must be non-negative")
    parts = [int(root)]
    for tag in tags:
        if isinstance(tag, str):
            parts.append(fnv1a64(tag.encode("utf-8")))
        else:
            parts.append(int(tag))
    return parts


def derive_rng(root: int, *tags) -> np.random.Generator:
    return np.random.default_rng(seed_chain(root, *tags))


@dataclass(frozen=True)
class RunConfig:
    seed: int = 42
    dim: int = DEFAULT_DIM
    vocab_size: int = DEFAULT_VOCAB
    temperature: float = DEFAULT_TAU
    lr: float = 0.5
    wd: float = 0.01
    batch_size: int = 128
    epochs: int = 1
    hard_negatives: int = 7
    k: int = 10
    method: str = "FT+QDC"
    out_dir: str = "out"
    run_id: str | None = None
    stream: StreamSpec = field(default_factory=StreamSpec)
    datasets: tuple[dict, ...] | None = None

    def validate(self) -> None:
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.dim < 1 or self.vocab_size < 1:
            raise ConfigError("dim and vocab_size must be >= 1")
        if not self.temperature > 0:
            raise ConfigError("temperature must be positive")
        if self.lr < 0 or self.wd < 0:
            raise ConfigError("lr and wd must be non-negative")
        if self.lr * self.wd >= 1:
            raise ConfigError("lr * wd must be below 1")
        if self.batch_size < 1 or self.epochs < 1:
            raise ConfigError("batch_size and epochs must be >= 1")
        if self.hard_negatives < 0:
            raise ConfigError("hard_negatives must be >= 0")
        if self.k < 1:
            raise ConfigError("k must be >= 1")


# the JSON types a field's annotation admits, and what cli._load_datasets
# reads of a datasets entry
_JSON_TYPES = {
    "int": int,
    "float": (int, float),
    "str": str,
    "str | None": (str, type(None)),
}
_DATASET_FIELDS = {
    "corpus": "str",
    "queries": "str",
    "qrels": "str",
    "pairs": "str | None",
    "task_id": "int",
}


def _fits(value, kind: str) -> bool:
    """Whether a JSON value fits a field annotated kind; a bool is no
    number, and a float must be finite."""
    if kind == "tuple[int, int]":
        return isinstance(value, list) and len(value) == 2 and all(
            _fits(v, "int") for v in value
        )
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind]):
        return False
    return not isinstance(value, float) or math.isfinite(value)


def _check_fields(kinds: dict[str, str], payload: dict, where: str) -> None:
    """Reject keys outside kinds and values their field does not take."""
    unknown = set(payload) - set(kinds)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    for name, value in payload.items():
        if not _fits(value, kinds[name]):
            raise ConfigError(
                f"{where} field {name} must be {kinds[name]}, got {value!r}"
            )


def config_from_dict(payload: dict) -> RunConfig:
    if not isinstance(payload, dict):
        raise ConfigError("config must be a JSON object")
    payload = dict(payload)
    # configs written before per-cluster drift was removed hold
    # "multi_k": 1, the one translation that remains
    if "multi_k" in payload:
        legacy = payload.pop("multi_k")
        if type(legacy) is not int or legacy != 1:
            raise ConfigError(
                f"multi_k {legacy!r}: per-cluster drift was removed, and "
                "only the legacy value 1 (one translation) is read"
            )
    # configs written before drift used every training query hold the
    # sampling cap that no longer exists
    if "drift_query_cap" in payload:
        legacy = payload.pop("drift_query_cap")
        if type(legacy) is not int or legacy < 1:
            raise ConfigError(
                f"drift_query_cap {legacy!r}: drift now uses every training "
                "query, and only a legacy cap >= 1 is read"
            )
    stream_payload = payload.pop("stream", None)
    datasets = payload.pop("datasets", None)
    _check_fields({f.name: f.type for f in fields(RunConfig)}, payload, "config")

    stream = StreamSpec()
    if stream_payload is not None:
        if not isinstance(stream_payload, dict):
            raise ConfigError("stream must be a JSON object")
        kinds = {f.name: f.type for f in fields(StreamSpec)}
        _check_fields(kinds, stream_payload, "stream")
        stream_payload = dict(stream_payload)
        for key in ("doc_len_range", "query_len_range"):
            if key in stream_payload:
                stream_payload[key] = tuple(stream_payload[key])
        stream = StreamSpec(**stream_payload)

    if datasets is not None:
        if not isinstance(datasets, list) or not datasets or not all(
            isinstance(d, dict) for d in datasets
        ):
            raise ConfigError("datasets must be a non-empty list of path objects")
        for i, entry in enumerate(datasets, start=1):
            _check_fields(_DATASET_FIELDS, entry, f"datasets entry {i}")
        datasets = tuple(dict(d) for d in datasets)

    config = RunConfig(stream=stream, datasets=datasets, **payload)
    config.validate()
    return config


def load_config(path) -> RunConfig:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config is not UTF-8 JSON: {path}") from exc
    return config_from_dict(payload)


def save_config(config: RunConfig, path) -> None:
    text = json.dumps(asdict(config), sort_keys=True, indent=2)
    atomic_write_text(path, text + "\n")


def apply_overrides(config: RunConfig, **overrides) -> RunConfig:
    """CLI flag overrides; None values mean 'keep the config value'."""
    updates = {k: v for k, v in overrides.items() if v is not None}
    if not updates:
        return config
    out = replace(config, **updates)
    out.validate()
    return out
