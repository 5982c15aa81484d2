import re
from pathlib import Path

from lexigraph.config import Config, load_config
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
