import re
from pathlib import Path

import pytest

from lexigraph.config import Config, load_config
from lexigraph.errors import ExternalServiceError, ParameterError
from lexigraph.hierarchy import HierarchyConfig
from lexigraph.nmfk import NmfkConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_configuration_block_loads(tmp_path):
    section = README.read_text(encoding="utf-8").split("## Configuration", 1)[1]
    block = re.search(r"```yaml\n(.*?)```", section, re.S).group(1)
    path = tmp_path / "readme.yaml"
    path.write_text(block, encoding="utf-8")
    cfg = load_config(path)
    assert (cfg.seed, cfg.k_max, cfg.nmf_tol, cfg.chunk_size) == (42, 30, 1e-6, 300)
    assert cfg.hierarchy_config().nmfk.base_seed == 42


def test_config_defaults_agree_with_the_dataclasses():
    assert Config().hierarchy_config() == HierarchyConfig(nmfk=NmfkConfig(k_min=1, k_max=10))


@pytest.mark.parametrize("text, message", [
    # PyYAML reads an exponent without a dot as a string
    pytest.param("nmfk:\n  nmf_tol: 1e-6\n", "config key nmfk.nmf_tol must be float, got '1e-6'; "
                 "YAML reads it as a string, write 1.0e-6", id="float-read-as-string"),
    pytest.param("seed: '5'\n", "config key seed must be int, got '5'", id="seed-string"),
    pytest.param("seed: true\n", "config key seed must be int, got True", id="seed-bool"),
    pytest.param("retrieval:\n  top_k: '5'\n", "config key retrieval.top_k must be int, got '5'",
                 id="nested-int"),
    pytest.param("chat:\n  stub_reply: 5\n", "config key chat.stub_reply must be str, got 5",
                 id="nested-str"),
    pytest.param("nmfk: 5\n", "config section nmfk must be a mapping, got 5", id="section-not-a-mapping"),
])
def test_value_of_the_wrong_type_is_rejected(tmp_path, text, message):
    path = tmp_path / "typed.yaml"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParameterError) as info:
        load_config(path)
    assert str(info.value) == f"{path}: {message}"


def test_int_is_taken_for_a_float_field(tmp_path):
    path = tmp_path / "typed.yaml"
    path.write_text("retrieval:\n  score_threshold: 1\nnmfk:\n  nmf_tol: 1.0e-6\n", encoding="utf-8")
    cfg = load_config(path)
    assert (cfg.score_threshold, cfg.nmf_tol) == (1, 1e-6)


def test_section_key_at_the_top_level_is_unknown(tmp_path):
    # a flat spelling beside the section's would leave the later one to win
    path = tmp_path / "flat.yaml"
    path.write_text("k_min: 3\nnmfk:\n  k_min: 2\n", encoding="utf-8")
    with pytest.raises(ParameterError) as info:
        load_config(path)
    assert str(info.value) == f"{path}: unknown config key k_min"


def test_unset_variable_is_refused_and_an_empty_one_is_a_value(tmp_path, monkeypatch):
    # an unset ${VAR} read as "" would pass for a setting nobody wrote
    path = tmp_path / "env.yaml"
    path.write_text("chat:\n  stub_reply: \"a${LX_TEST_UNSET}b\"\n", encoding="utf-8")
    monkeypatch.delenv("LX_TEST_UNSET", raising=False)
    with pytest.raises(ParameterError) as info:
        load_config(path)
    assert str(info.value) == f"{path}: environment variable LX_TEST_UNSET is not set (${{LX_TEST_UNSET}})"
    monkeypatch.setenv("LX_TEST_UNSET", "")
    assert load_config(path).chat_stub_reply == "ab"


def test_api_key_variable_set_to_empty_sends_no_key(tmp_path, monkeypatch):
    path = tmp_path / "key.yaml"
    path.write_text("embedding:\n  provider: http\n  endpoint: http://127.0.0.1:9/e\n  model: m\n"
                    "  api_key_env: LX_TEST_KEY\n", encoding="utf-8")

    def sent_headers(key: str) -> dict:
        monkeypatch.setenv("LX_TEST_KEY", key)
        provider = load_config(path).embedding()
        sent = []

        class Session:
            def post(self, endpoint, json, headers, timeout):
                sent.append(headers)
                raise OSError("not sent")

        provider._session = Session()
        monkeypatch.setattr("time.sleep", lambda s: None)
        with pytest.raises(ExternalServiceError):
            provider.embed(["x"])
        return sent[0]

    assert "Authorization" not in sent_headers("")
    assert sent_headers("k")["Authorization"] == "Bearer k"


def test_deterministic_and_stub_providers_never_read_the_key_variable(tmp_path, monkeypatch):
    path = tmp_path / "key.yaml"
    path.write_text("embedding:\n  api_key_env: LX_TEST_UNSET\nchat:\n  api_key_env: LX_TEST_UNSET\n",
                    encoding="utf-8")
    monkeypatch.delenv("LX_TEST_UNSET", raising=False)
    cfg = load_config(path)
    assert cfg.embedding_api_key_env == cfg.chat_api_key_env == "LX_TEST_UNSET"


def test_interpolated_values_are_hashed_and_api_keys_are_not(tmp_path, monkeypatch):
    path = tmp_path / "env.yaml"
    path.write_text("embedding:\n  api_key_env: LX_TEST_KEY\nchat:\n  stub_reply: ${LX_TEST_REPLY}\n",
                    encoding="utf-8")

    def hash_with(key: str, reply: str) -> str:
        monkeypatch.setenv("LX_TEST_KEY", key)
        monkeypatch.setenv("LX_TEST_REPLY", reply)
        return load_config(path).config_hash()

    assert hash_with("a", "r") == hash_with("b", "r")
    assert hash_with("a", "r") != hash_with("a", "s")
