"""Strict JSON decoding, feature-table parsing and record text."""

from __future__ import annotations

import hashlib
import math
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import esdgait.io as eio
from esdgait import experiments
from esdgait.errors import ValidationError
from esdgait.io import from_json, read_features, write_features

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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


def percent_e(values) -> str:
    return "\n".join("%.8e" % v for v in values) + "\n"


def signed(values):
    return st.tuples(values, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])


SAMPLE_VALUES = st.one_of(
    st.floats(width=64),
    st.floats(min_value=-10.0, max_value=10.0),
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e-300, 1e300,
         9.999999999999999e299, 1.7976931348623157e308, -1.7976931348623157e308,
         math.inf, -math.inf, math.nan]
    ),
    # exact powers of ten and their neighbours
    signed(st.integers(-310, 308).map(lambda k: float(f"1e{k}"))),
    signed(st.integers(-310, 308).map(lambda k: math.nextafter(float(f"1e{k}"), 0.0))),
    # 9.999999995eN and its neighbours carry into the next exponent, or not
    signed(st.integers(-300, 299).map(lambda k: float(f"9.999999995e{k}"))),
    signed(st.integers(-300, 299).map(lambda k: math.nextafter(float(f"9.999999995e{k}"), 0.0))),
    # the double nearest a decimal half-way point d.dddddddd5eN
    signed(
        st.tuples(st.integers(100_000_000, 999_999_999), st.integers(-300, 299)).map(
            lambda t: float(f"{t[0] // 100_000_000}.{t[0] % 100_000_000:08d}5e{t[1]}")
        )
    ),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(SAMPLE_VALUES, max_size=40), st.integers(1, 9))
def test_sample_text_equals_percent_e(values, block_rows):
    # small blocks put block boundaries inside short arrays, so a block
    # that falls back (nan, subnormal) sits next to one that does not
    with mock.patch.object(eio, "_FORMAT_BLOCK_ROWS", block_rows):
        assert eio._format_samples(np.array(values, dtype=float)) == percent_e(values)


def test_sample_text_across_magnitudes_and_blocks():
    rng = np.random.default_rng(5)
    size = 3 * eio._FORMAT_BLOCK_ROWS + 17
    magnitudes = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-300, 300, size)
    mantissas = rng.integers(100_000_000, 1_000_000_000, size)
    halfway = np.array(
        [float(f"{m // 100_000_000}.{m % 100_000_000:08d}5e{k}")
         for m, k in zip(mantissas, rng.integers(-12, 12, size))]
    )
    walk = rng.normal(0.0, 1e-9, size)
    walk[eio._FORMAT_BLOCK_ROWS + 3] = math.nan  # the second block falls back alone
    for values in (magnitudes, halfway, walk):
        assert eio._format_samples(values) == percent_e(values)
    assert eio._format_samples(np.empty(0)) == percent_e([])


# sha256 of the first record's .sig.csv for each shipped config at its own
# seed, as written by the per-sample "%.8e" join
SHIPPED_RECORD_DIGESTS = {
    "mood": "86f550259c62ef252fa018427102fa8599f4b017860454244bc85226f93382ef",
    "persons": "c64ccffcf8f95f86341d0b3248369932f84b90b1b1b06b6bfb2ec0362d478094",
    "legshake": "63d3e9368d5f673475966f89757b8bc9f8377bf935fdac044dc18bc65f545bee",
}


@pytest.mark.parametrize("name", sorted(SHIPPED_RECORD_DIGESTS))
def test_simulated_record_bytes_are_pinned(name, tmp_path):
    config = experiments.load_config(CONFIGS / f"{name}.json")
    plan = experiments.build_plans(config)[0]
    signal = tmp_path / "rec_0000.sig.csv"
    eio.write_record(experiments.synthesize_record(plan), signal, tmp_path / "rec_0000.meta.json")
    assert hashlib.sha256(signal.read_bytes()).hexdigest() == SHIPPED_RECORD_DIGESTS[name]


@pytest.mark.parametrize("text", ["", "\n\n", "# only a comment\n"])
def test_record_without_samples_names_the_file(tmp_path, text):
    signal, meta = tmp_path / "r.sig.csv", tmp_path / "r.meta.json"
    signal.write_text(text)
    meta.write_text('{"sample_rate": 10000.0}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's "input contained no data" must not show
        with pytest.raises(ValidationError, match=f"^{re.escape(str(signal))}: no samples$"):
            eio.read_record(signal, meta)
