"""Config file parsing."""

from decimal import Decimal
from pathlib import Path

import pytest
import yaml

from hybridmas import config
from hybridmas.core import ModelProfile, Pricing, SamplingParams

YAML_FILES = sorted((Path(__file__).parent / "data").rglob("*.y*ml"))


@pytest.mark.parametrize("path", YAML_FILES, ids=lambda path: path.name)
def test_yaml_loader_builds_what_the_pure_python_loader_builds(path):
    text = path.read_text(encoding="utf-8")
    assert yaml.load(text, Loader=config._YAML_LOADER) == yaml.load(text, Loader=yaml.SafeLoader)


NAN, INF = float("nan"), float("inf")
RATE = Decimal("2.5")


@pytest.mark.parametrize(
    "make",
    [
        lambda: SamplingParams(temperature=NAN),
        lambda: SamplingParams(temperature=INF),
        lambda: Pricing(Decimal("NaN"), RATE, RATE),
        lambda: Pricing(RATE, Decimal("Infinity"), RATE),
        lambda: Pricing(RATE, RATE, Decimal("-Infinity")),
        lambda: ModelProfile("e", "edge", 100, param_count=NAN, efficiency=1.0),
        lambda: ModelProfile("e", "edge", 100, param_count=1.0, efficiency=INF),
        lambda: ModelProfile("c", "cloud", 100, param_count=INF,
                             pricing=Pricing(RATE, RATE, RATE)),
    ],
    ids=["temperature-nan", "temperature-inf", "prefill-nan", "cached-inf", "generated-minus-inf",
         "param_count-nan", "efficiency-inf", "cloud-param_count-inf"],
)
def test_non_finite_numbers_are_rejected(make):
    with pytest.raises(ValueError, match="finite"):
        make()
