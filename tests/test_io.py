"""Strict JSON decoding and feature-table parsing."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pytest

from esdgait.errors import ValidationError
from esdgait.io import from_json, read_features, write_features


@dataclass(frozen=True)
class Inner:
    rate: float
    label: str = "x"

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValidationError("rate must be >= 0")


@dataclass(frozen=True)
class Outer:
    count: int
    flag: bool = False
    choice: int | str = "auto"
    limit: float | None = None
    values: tuple[float, ...] = ()
    items: list = field(default_factory=list)
    inners: dict[str, Inner] = field(default_factory=dict)
    renamed: int = field(default=0, metadata={"key": "alias"})


def test_decodes_every_supported_shape():
    value = {
        "count": 3,
        "flag": True,
        "choice": 4,
        "limit": 2,
        "values": [1, 2.5],
        "items": [1, "a"],
        "inners": {"a": {"rate": 1}},
        "alias": 7,
    }
    out = from_json(Outer, value, "top")
    assert out == Outer(3, True, 4, 2.0, (1.0, 2.5), [1, "a"], {"a": Inner(1.0)}, 7)
    assert type(out.limit) is float and type(out.inners["a"].rate) is float
    assert from_json(Outer, {"count": 1, "choice": "sqrt", "limit": None}, "").choice == "sqrt"


@pytest.mark.parametrize(
    "value, message",
    [
        ({"count": True}, "top.count: expected int, got True"),
        ({"count": 1.0}, "top.count: expected int, got 1.0"),
        ({"count": 1, "flag": 1}, "top.flag: expected bool, got 1"),
        ({"count": 1, "choice": 2.5}, "top.choice: expected int | str, got 2.5"),
        ({"count": 1, "limit": "1"}, "top.limit: expected float, got '1'"),
        ({"count": 1, "limit": float("inf")}, "top.limit: expected float, got inf"),
        ({"count": 1, "values": [1, "2"]}, r"top.values\[1\]: expected float"),
        ({"count": 1, "values": 2}, "top.values: expected list, got 2"),
        ({"count": 1, "inners": []}, "top.inners: expected object"),
        ({"count": 1, "inners": {"a": {"rate": -1}}}, "top.inners.a: rate must be >= 0"),
        ({"count": 1, "inners": {"a": {}}}, "top.inners.a.rate: missing required field"),
        ({"count": 1, "renamed": 2}, "top.renamed: unknown key"),
        ({}, "top.count: missing required field"),
        ([1], "top: expected object"),
    ],
)
def test_rejections_name_the_key_path(value, message):
    with pytest.raises(ValidationError, match=message):
        from_json(Outer, value, "top")


def test_non_numeric_feature_cell_names_file_and_line(tmp_path):
    path = tmp_path / "features.csv"
    write_features(path, np.ones((2, 2)), ("a", "b"), ["x", "y"])
    lines = path.read_text().splitlines()
    lines[2] = "1.0,abc,y"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match=r"features.csv:3: .*'abc'"):
        read_features(path)
