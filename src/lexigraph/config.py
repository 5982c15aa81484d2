"""Declarative run configuration: one YAML file, environment interpolation.

Secrets never live in the file; ${VAR} references and *_env indirections are
resolved from the process environment at load time and are excluded from the
config hash recorded in run manifests.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_type_hints

import yaml

from .chat import HttpChatClient, StubChatClient
from .embeddings import DeterministicEmbedder, HttpEmbeddingProvider
from .errors import ParameterError, from_json
from .hierarchy import HierarchyConfig
from .nmfk import NmfkConfig

_ENV_REF = re.compile(r"\$\{([A-Za-z_][A-Za-z0-9_]*)\}")
# keys of the `nmfk:` and `hierarchy:` sections, each also a flat Config field;
# NmfkConfig.base_seed comes from the top-level `seed`
_NMFK_KEYS = tuple(f.name for f in fields(NmfkConfig) if f.name != "base_seed")
_HIERARCHY_KEYS = tuple(f.name for f in fields(HierarchyConfig) if f.name != "nmfk")


def _interpolate(value):
    if isinstance(value, str):
        return _ENV_REF.sub(lambda m: os.environ.get(m.group(1), ""), value)
    if isinstance(value, dict):
        return {k: _interpolate(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_interpolate(v) for v in value]
    return value


@dataclass
class Config:
    output_dir: str = "out"
    seed: int = 0
    # hierarchy / nmfk
    max_depth: int = 2
    min_cluster_size: int = 100
    keywords_per_topic: int = 50
    vocab_min_df: int = 5
    vocab_max_df_ratio: float = 0.8
    k_min: int = 1
    k_max: int = 10
    n_perturbations: int = 20
    noise_epsilon: float = 0.015
    silhouette_threshold: float = 0.7
    nmf_max_iters: int = 300
    nmf_tol: float = 1e-6
    # chunking
    chunk_size: int = 300
    chunk_overlap: int = 50
    # embedding provider
    embedding_provider: str = "deterministic"  # deterministic | http
    embedding_dim: int = 256
    embedding_endpoint: str = ""
    embedding_model: str = ""
    embedding_api_key_env: str = ""
    # chat client
    chat_provider: str = "stub"  # stub | http
    chat_endpoint: str = ""
    chat_model: str = ""
    chat_api_key_env: str = ""
    chat_stub_reply: str = ""
    # retrieval
    top_k: int = 5
    score_threshold: float = 0.15

    def nmfk_config(self) -> NmfkConfig:
        return NmfkConfig(base_seed=self.seed, **{k: getattr(self, k) for k in _NMFK_KEYS})

    def hierarchy_config(self) -> HierarchyConfig:
        return HierarchyConfig(nmfk=self.nmfk_config(), **{k: getattr(self, k) for k in _HIERARCHY_KEYS})

    def embedding(self):
        if self.embedding_provider == "deterministic":
            return DeterministicEmbedder(dim=self.embedding_dim)
        return HttpEmbeddingProvider(dim=self.embedding_dim, **self._http("embedding"))

    def chat(self):
        if self.chat_provider == "stub":
            return StubChatClient(reply=self.chat_stub_reply)
        return HttpChatClient(**self._http("chat"))

    def _http(self, service: str) -> dict:
        """The endpoint, model and api key (read from the variable that
        `*_api_key_env` names) of `service`'s http client, "embedding" or "chat"."""
        provider, endpoint, model, key_env = (getattr(self, f"{service}_{k}")
                                              for k in ("provider", "endpoint", "model", "api_key_env"))
        if provider != "http":
            raise ParameterError(f"unknown {service} provider {provider!r}")
        if not endpoint or not model:
            raise ParameterError(f"http {service} provider needs endpoint and model")
        return {"endpoint": endpoint, "model": model, "api_key": os.environ.get(key_env) if key_env else None}

    def config_hash(self) -> str:
        """Stable digest of the declarative settings (never of secret values);
        `output_dir` says where a run writes, not how, and is left out."""
        settings = {k: v for k, v in self.__dict__.items() if k != "output_dir"}
        canon = json.dumps(settings, sort_keys=True, ensure_ascii=True)
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


_FIELD_TYPES = get_type_hints(Config)
# a number PyYAML reads as a string: an exponent without a dot or a sign, as in 1e-6
_BARE_EXPONENT = re.compile(r"([+-]?[0-9]+)(?:\.([0-9]*))?[eE]([+-]?)([0-9]+)")

_NESTED_MAP = {
    **{("hierarchy", k): k for k in _HIERARCHY_KEYS},
    **{("nmfk", k): k for k in _NMFK_KEYS},
    # embedding.<key> and chat.<key> set the field <section>_<key>, as `_http` reads them
    **{tuple(f.split("_", 1)): f for f in _FIELD_TYPES if f.startswith(("embedding_", "chat_"))},
    ("chunking", "size"): "chunk_size",
    ("chunking", "overlap"): "chunk_overlap",
    ("retrieval", "top_k"): "top_k",
    ("retrieval", "score_threshold"): "score_threshold",
}


def load_config(path: str | Path | None) -> Config:
    """Read the YAML config; a missing path or an empty document gives pure
    defaults.

    A file that is not UTF-8 or not YAML, a document that is not a mapping
    (`[]`, `false` and `0` among them), an unknown key, or a value whose
    type is not its field's by the rule of `errors.from_json` (an int field
    takes an int but not a bool, a float field a float or an int, read as a
    float) is a ParameterError naming the file, on one line; so are
    hierarchy and NMFk values that `HierarchyConfig` or `NmfkConfig` refuse.
    """
    cfg = Config()
    if path is None:
        return cfg
    try:
        data = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ParameterError(f"{path}: not a YAML config: {' '.join(str(exc).split())}") from exc
    if data is None:  # an empty document holds no setting
        data = {}
    if not isinstance(data, dict):
        raise ParameterError(f"{path}: config must be a mapping")

    def set_checked(name: str, attr: str, value) -> None:
        expected = _FIELD_TYPES[attr]
        try:
            setattr(cfg, attr, from_json(expected, value))
        except TypeError as exc:
            m = _BARE_EXPONENT.fullmatch(value) if expected is float and isinstance(value, str) else None
            hint = f"; YAML reads it as a string, write {m[1]}.{m[2] or 0}e{m[3] or '+'}{m[4]}" if m else ""
            raise ParameterError(
                f"{path}: config key {name} must be {expected.__name__}, got {value!r:.50}{hint}") from exc

    for key, value in _interpolate(data).items():
        if isinstance(value, dict):
            for sub, subval in value.items():
                attr = _NESTED_MAP.get((key, sub))
                if attr is None:
                    raise ParameterError(f"{path}: unknown config key {key}.{sub}")
                set_checked(f"{key}.{sub}", attr, subval)
        elif key in _FIELD_TYPES:
            set_checked(key, key, value)
        else:
            raise ParameterError(f"{path}: unknown config key {key}")
    try:
        cfg.hierarchy_config()
    except ParameterError as exc:
        raise ParameterError(f"{path}: {exc}") from exc
    return cfg
