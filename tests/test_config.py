import re
from pathlib import Path

import pytest

from lexigraph.config import Config, load_config
from lexigraph.errors import ParameterError
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
    pytest.param("nmf_tol: 1e-6\n", "config key nmf_tol must be float, got '1e-6'; "
                 "YAML reads it as a string, write 1.0e-6", id="float-read-as-string"),
    pytest.param("seed: '5'\n", "config key seed must be int, got '5'", id="seed-string"),
    pytest.param("seed: true\n", "config key seed must be int, got True", id="seed-bool"),
    pytest.param("retrieval:\n  top_k: '5'\n", "config key retrieval.top_k must be int, got '5'",
                 id="nested-int"),
    pytest.param("chat:\n  stub_reply: 5\n", "config key chat.stub_reply must be str, got 5",
                 id="nested-str"),
])
def test_value_of_the_wrong_type_is_rejected(tmp_path, text, message):
    path = tmp_path / "typed.yaml"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParameterError) as info:
        load_config(path)
    assert str(info.value) == f"{path}: {message}"


def test_int_is_taken_for_a_float_field(tmp_path):
    path = tmp_path / "typed.yaml"
    path.write_text("score_threshold: 1\nnmf_tol: 1.0e-6\n", encoding="utf-8")
    cfg = load_config(path)
    assert (cfg.score_threshold, cfg.nmf_tol) == (1, 1e-6)
