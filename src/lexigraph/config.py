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
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .chat import HttpChatClient, StubChatClient
from .embeddings import DeterministicEmbedder, HttpEmbeddingProvider
from .errors import ParameterError
from .hierarchy import HierarchyConfig
from .nmfk import NmfkConfig

_ENV_REF = re.compile(r"\$\{([A-Za-z_][A-Za-z0-9_]*)\}")


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
    corpus: str = ""
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
    raw: dict = field(default_factory=dict, repr=False)

    def nmfk_config(self, base_seed: int | None = None) -> NmfkConfig:
        return NmfkConfig(
            k_min=self.k_min,
            k_max=self.k_max,
            n_perturbations=self.n_perturbations,
            noise_epsilon=self.noise_epsilon,
            silhouette_threshold=self.silhouette_threshold,
            base_seed=self.seed if base_seed is None else base_seed,
            nmf_max_iters=self.nmf_max_iters,
            nmf_tol=self.nmf_tol,
        )

    def hierarchy_config(self, base_seed: int | None = None) -> HierarchyConfig:
        return HierarchyConfig(
            nmfk=self.nmfk_config(base_seed),
            max_depth=self.max_depth,
            min_cluster_size=self.min_cluster_size,
            keywords_per_topic=self.keywords_per_topic,
            vocab_min_df=self.vocab_min_df,
            vocab_max_df_ratio=self.vocab_max_df_ratio,
        )

    def embedding(self):
        if self.embedding_provider == "deterministic":
            return DeterministicEmbedder(dim=self.embedding_dim)
        if self.embedding_provider == "http":
            if not self.embedding_endpoint or not self.embedding_model:
                raise ParameterError("http embedding provider needs endpoint and model")
            key = os.environ.get(self.embedding_api_key_env) if self.embedding_api_key_env else None
            return HttpEmbeddingProvider(
                endpoint=self.embedding_endpoint, model=self.embedding_model,
                dim=self.embedding_dim, api_key=key,
            )
        raise ParameterError(f"unknown embedding provider {self.embedding_provider!r}")

    def chat(self):
        if self.chat_provider == "stub":
            return StubChatClient(reply=self.chat_stub_reply)
        if self.chat_provider == "http":
            if not self.chat_endpoint or not self.chat_model:
                raise ParameterError("http chat provider needs endpoint and model")
            key = os.environ.get(self.chat_api_key_env) if self.chat_api_key_env else None
            return HttpChatClient(endpoint=self.chat_endpoint, model=self.chat_model, api_key=key)
        raise ParameterError(f"unknown chat provider {self.chat_provider!r}")

    def config_hash(self) -> str:
        """Stable digest of the declarative settings (never of secret values)."""
        payload = {k: v for k, v in self.__dict__.items() if k != "raw"}
        canon = json.dumps(payload, sort_keys=True, ensure_ascii=True)
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


_FLAT_KEYS = {f.name for f in Config.__dataclass_fields__.values()} - {"raw"}

_NESTED_MAP = {
    ("hierarchy", "max_depth"): "max_depth",
    ("hierarchy", "min_cluster_size"): "min_cluster_size",
    ("hierarchy", "keywords_per_topic"): "keywords_per_topic",
    ("hierarchy", "vocab_min_df"): "vocab_min_df",
    ("hierarchy", "vocab_max_df_ratio"): "vocab_max_df_ratio",
    ("nmfk", "k_min"): "k_min",
    ("nmfk", "k_max"): "k_max",
    ("nmfk", "n_perturbations"): "n_perturbations",
    ("nmfk", "noise_epsilon"): "noise_epsilon",
    ("nmfk", "silhouette_threshold"): "silhouette_threshold",
    ("nmfk", "nmf_max_iters"): "nmf_max_iters",
    ("nmfk", "nmf_tol"): "nmf_tol",
    ("chunking", "size"): "chunk_size",
    ("chunking", "overlap"): "chunk_overlap",
    ("embedding", "provider"): "embedding_provider",
    ("embedding", "dim"): "embedding_dim",
    ("embedding", "endpoint"): "embedding_endpoint",
    ("embedding", "model"): "embedding_model",
    ("embedding", "api_key_env"): "embedding_api_key_env",
    ("chat", "provider"): "chat_provider",
    ("chat", "endpoint"): "chat_endpoint",
    ("chat", "model"): "chat_model",
    ("chat", "api_key_env"): "chat_api_key_env",
    ("chat", "stub_reply"): "chat_stub_reply",
    ("retrieval", "top_k"): "top_k",
    ("retrieval", "score_threshold"): "score_threshold",
}


def load_config(path: str | Path | None) -> Config:
    """Read the YAML config; a missing path gives pure defaults."""
    cfg = Config()
    if path is None:
        return cfg
    data = yaml.safe_load(Path(path).read_text(encoding="utf-8")) or {}
    if not isinstance(data, dict):
        raise ParameterError(f"{path}: config must be a mapping")
    data = _interpolate(data)
    cfg.raw = data
    for key, value in data.items():
        if isinstance(value, dict):
            for sub, subval in value.items():
                attr = _NESTED_MAP.get((key, sub))
                if attr is None:
                    raise ParameterError(f"{path}: unknown config key {key}.{sub}")
                setattr(cfg, attr, subval)
        elif key in _FLAT_KEYS:
            setattr(cfg, key, value)
        else:
            raise ParameterError(f"{path}: unknown config key {key}")
    return cfg
