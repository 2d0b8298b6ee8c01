"""Config file parsing."""

from pathlib import Path

import pytest
import yaml

from hybridmas import config

YAML_FILES = sorted((Path(__file__).parent / "data").rglob("*.y*ml"))


@pytest.mark.parametrize("path", YAML_FILES, ids=lambda path: path.name)
def test_yaml_loader_builds_what_the_pure_python_loader_builds(path):
    text = path.read_text(encoding="utf-8")
    assert yaml.load(text, Loader=config._YAML_LOADER) == yaml.load(text, Loader=yaml.SafeLoader)
