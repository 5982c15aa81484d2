"""Declarative run configuration: one YAML file, environment interpolation.

`output_dir` and `seed` are top-level keys; every other setting has one
spelling, under its section. A ${VAR} reference takes the variable's value
at load time (an unset variable is an error, an empty one a value) and is
hashed like any setting; a secret goes only through an
`*_api_key_env` key, whose value `Config` never holds."""

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
from .chunking import DEFAULT_OVERLAP, DEFAULT_SIZE, check_window
from .embeddings import DEFAULT_DIM, DeterministicEmbedder, HttpEmbeddingProvider
from .errors import ParameterError, from_json
from .hierarchy import HierarchyConfig
from .nmfk import NmfkConfig
from .rag import DEFAULT_SCORE_THRESHOLD, DEFAULT_TOP_K
from .vectorstore import check_top_k

_ENV_REF = re.compile(r"\$\{([A-Za-z_][A-Za-z0-9_]*)\}")
# keys of the `nmfk:` and `hierarchy:` sections, each also a flat Config field;
# NmfkConfig.base_seed comes from the top-level `seed`
_NMFK_KEYS = tuple(f.name for f in fields(NmfkConfig) if f.name != "base_seed")
_HIERARCHY_KEYS = tuple(f.name for f in fields(HierarchyConfig) if f.name != "nmfk")


def _interpolate(value, path):
    if isinstance(value, str):
        return _ENV_REF.sub(lambda m: _env_value(m.group(1), path), value)
    if isinstance(value, dict):  # no setting takes a list, so none is interpolated
        return {k: _interpolate(v, path) for k, v in value.items()}
    return value


def _env_value(name: str, path) -> str:
    """The value of variable `name`, which may be empty; an unset one is refused."""
    if name not in os.environ:
        raise ParameterError(f"{path}: environment variable {name} is not set (${{{name}}})")
    return os.environ[name]


@dataclass
class Config:
    output_dir: str = "out"
    seed: int = 0
    # hierarchy / nmfk, at the defaults of HierarchyConfig and NmfkConfig
    max_depth: int = HierarchyConfig.max_depth
    min_cluster_size: int = HierarchyConfig.min_cluster_size
    keywords_per_topic: int = HierarchyConfig.keywords_per_topic
    vocab_min_df: int = HierarchyConfig.vocab_min_df
    vocab_max_df_ratio: float = HierarchyConfig.vocab_max_df_ratio
    k_min: int = NmfkConfig.k_min
    k_max: int = NmfkConfig.k_max
    n_perturbations: int = NmfkConfig.n_perturbations
    noise_epsilon: float = NmfkConfig.noise_epsilon
    silhouette_threshold: float = NmfkConfig.silhouette_threshold
    nmf_max_iters: int = NmfkConfig.nmf_max_iters
    nmf_tol: float = NmfkConfig.nmf_tol
    # chunking
    chunk_size: int = DEFAULT_SIZE
    chunk_overlap: int = DEFAULT_OVERLAP
    # embedding provider
    embedding_provider: str = "deterministic"  # deterministic | http
    embedding_dim: int = DEFAULT_DIM
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
    top_k: int = DEFAULT_TOP_K
    score_threshold: float = DEFAULT_SCORE_THRESHOLD

    def hierarchy_config(self) -> HierarchyConfig:
        nmfk = NmfkConfig(base_seed=self.seed, **{k: getattr(self, k) for k in _NMFK_KEYS})
        return HierarchyConfig(nmfk=nmfk, **{k: getattr(self, k) for k in _HIERARCHY_KEYS})

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
        `*_api_key_env` names, which must be set; an empty one sends no key)
        of `service`'s http client, "embedding" or "chat"."""
        provider, endpoint, model, key_env = (getattr(self, f"{service}_{k}")
                                              for k in ("provider", "endpoint", "model", "api_key_env"))
        if provider != "http":
            raise ParameterError(f"unknown {service} provider {provider!r}")
        if not endpoint or not model:
            raise ParameterError(f"http {service} provider needs endpoint and model")
        if key_env and key_env not in os.environ:
            raise ParameterError(f"environment variable {key_env} is not set ({service}.api_key_env)")
        return {"endpoint": endpoint, "model": model, "api_key": os.environ[key_env] if key_env else None}

    def config_hash(self) -> str:
        """Stable digest of every setting, interpolated ${VAR} values included;
        `output_dir` says where a run writes, not how, and is left out."""
        settings = {k: v for k, v in self.__dict__.items() if k != "output_dir"}
        canon = json.dumps(settings, sort_keys=True, ensure_ascii=True)
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


_FIELD_TYPES = get_type_hints(Config)
# a number PyYAML reads as a string: an exponent without a dot or a sign, as in 1e-6
_BARE_EXPONENT = re.compile(r"([+-]?[0-9]+)(?:\.([0-9]*))?[eE]([+-]?)([0-9]+)")

# (section, key) -> field; only `output_dir` and `seed` are top-level keys
_SECTION_KEYS = {
    **{("hierarchy", k): k for k in _HIERARCHY_KEYS},
    **{("nmfk", k): k for k in _NMFK_KEYS},
    # embedding.<key> and chat.<key> set the field <section>_<key>, as `_http` reads them
    **{tuple(f.split("_", 1)): f for f in _FIELD_TYPES if f.startswith(("embedding_", "chat_"))},
    ("chunking", "size"): "chunk_size",
    ("chunking", "overlap"): "chunk_overlap",
    ("retrieval", "top_k"): "top_k",
    ("retrieval", "score_threshold"): "score_threshold",
}
_SECTIONS = {section for section, _ in _SECTION_KEYS}


def load_config(path: str | Path | None) -> Config:
    """Read the YAML config; a missing path or an empty document gives pure
    defaults.

    A file that is not UTF-8, not YAML or nested too deep to parse, a
    document or a section that is not a mapping, an unknown key (a section's
    key at the top level too), or a value whose type is not its field's by
    the rule of `errors.from_json` (an int field takes an int but not a
    bool, a float field a float or an int, read as a float) is a
    ParameterError naming the file, on one line; so are an `output_dir`
    that names no file, a ${VAR} whose variable is not set, an http
    provider's `api_key_env` that names one, and values that
    `HierarchyConfig`, `NmfkConfig`, `check_window`, `check_top_k`, the
    embedding provider or the chat client refuse.
    """
    cfg = Config()
    if path is None:
        return cfg
    try:
        data = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, yaml.YAMLError, RecursionError) as exc:
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

    for key, value in _interpolate(data, path).items():
        if key in ("output_dir", "seed"):
            set_checked(key, key, value)
        elif key not in _SECTIONS:
            raise ParameterError(f"{path}: unknown config key {key}")
        elif not isinstance(value, dict):
            raise ParameterError(f"{path}: config section {key} must be a mapping, got {value!r:.50}")
        else:
            for sub, subval in value.items():
                attr = _SECTION_KEYS.get((key, sub))
                if attr is None:
                    raise ParameterError(f"{path}: unknown config key {key}.{sub}")
                set_checked(f"{key}.{sub}", attr, subval)
    try:
        os.fsencode(cfg.output_dir)
    except UnicodeEncodeError as exc:  # a lone surrogate, as a YAML "\ud800" escape reads
        raise ParameterError(f"{path}: config key output_dir names no file: {exc.reason}") from exc
    try:
        cfg.hierarchy_config()
        check_window(cfg.chunk_size, cfg.chunk_overlap)
        check_top_k(cfg.top_k)
        cfg.embedding()
        cfg.chat()
    except ParameterError as exc:
        raise ParameterError(f"{path}: {exc}") from exc
    return cfg
