"""Strict JSON decoding, feature-table parsing and record text."""

from __future__ import annotations

import csv
import hashlib
import math
import re
import tracemalloc
import warnings
from dataclasses import dataclass, field
from io import StringIO
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
from esdgait.simkit import SignalRecord

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


@pytest.mark.parametrize("fault", [ValueError, KeyboardInterrupt])
def test_interrupted_write_keeps_the_old_file(tmp_path, fault):
    """A chunk iterator that raises partway leaves the old file as it was
    and no temp file beside it."""
    path = tmp_path / "model.rfj"
    path.write_bytes(b"old bytes\n")

    def chunks():
        yield b"new "
        raise fault

    with pytest.raises(fault):
        eio._atomic_write(path, chunks())
    assert path.read_bytes() == b"old bytes\n"
    assert [p.name for p in tmp_path.iterdir()] == ["model.rfj"]


def test_feature_rows_are_csv_writer_lines(tmp_path):
    """Quoted names and labels, non-ASCII text, a signed zero and subnormal
    cells: the bytes csv.writer gives the whole table, and a read returns
    every cell, name and label as written."""
    names = ("plain", "a,comma", 'a "quote"', "new\nline", "föhn")
    labels = ["x,y", '"q"', "line\nbreak", "日本"]
    matrix = np.array([
        [-0.0, 1e-300, 5e-324, 0.1, 1.0],
        [1.7976931348623157e308, -5e-324, 2.0, -1e-300, 3.0],
        [0.0, 1 / 3, -2.5, 1e16, 4.0],
        [7.0, 8.0, 9.0, 10.0, 11.0],
    ])
    write_features(tmp_path / "features.csv", matrix, names, labels)
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([*names, "label"])
    for row, label in zip(matrix, labels):
        writer.writerow([*(repr(float(v)) for v in row), label])
    assert (tmp_path / "features.csv").read_bytes() == buf.getvalue().encode("utf-8")
    read, read_names, read_labels = read_features(tmp_path / "features.csv")
    assert read.tobytes() == matrix.tobytes() and read.dtype == np.float64
    assert (read_names, read_labels) == (names, labels)


@pytest.mark.parametrize("cell", ["1_000", " 2.5 ", "\u0661", "-0.0", "5e-324", "1e-400", "+.5"])
def test_feature_cells_parse_as_float_does(tmp_path, cell):
    path = tmp_path / "features.csv"
    path.write_text(f"a,b,label\n{cell},1.0,x\n", encoding="utf-8")
    assert read_features(path)[0][0, 0].tobytes() == np.float64(float(cell)).tobytes()


@pytest.mark.parametrize(
    "cell, message",
    [
        ("0x10", "could not convert string to float: '0x10'"),
        ("1__0", "could not convert string to float: '1__0'"),
        ("", "could not convert string to float: ''"),
        ("1e500", "not a finite feature value: '1e500'"),
        ("-inf", "not a finite feature value: '-inf'"),
        ("nan", "not a finite feature value: 'nan'"),
    ],
)
def test_bad_feature_cells_name_the_line_and_the_cell(tmp_path, cell, message):
    path = tmp_path / "features.csv"
    path.write_text(f"a,b,label\n1.0,2.0,x\n1.0,{cell},y\n", encoding="utf-8")
    with pytest.raises(ValidationError) as caught:
        read_features(path)
    assert str(caught.value) == f"{path}:3: {message}"


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


def text_and_parsed(values) -> tuple[str, np.ndarray]:
    """The record text of `values`, joined from its blocks, and the floats
    its lines parse to as the blocks fill them in."""
    x = np.array(values, dtype=float)
    parsed = np.empty(x.size)
    return b"".join(eio._text_blocks(x, parsed)).decode("ascii"), parsed


def sample_text(values) -> str:
    return text_and_parsed(values)[0]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(SAMPLE_VALUES, max_size=40), st.integers(1, 9))
def test_sample_text_equals_percent_e(values, block_rows):
    # small blocks put block boundaries inside short arrays, so a block
    # that falls back (nan, subnormal) sits next to one that does not
    with mock.patch.object(eio, "_FORMAT_BLOCK_ROWS", block_rows):
        assert sample_text(values) == percent_e(values)


def bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


# 9-digit decimals d.dddddddd x 10**e around the fast path's edge: the
# stored value is mant / 10**k with k = 8 - e, exact only while |k| <= 22
NEAR_FAST_PATH_EDGE = signed(
    st.tuples(st.integers(100_000_000, 999_999_999), st.integers(-18, 34)).map(
        lambda t: float(f"{t[0]}e{t[1] - 8}")
    )
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    st.lists(st.one_of(SAMPLE_VALUES, NEAR_FAST_PATH_EDGE), min_size=1, max_size=40),
    st.integers(1, 9),
)
def test_stored_samples_equal_the_parsed_text(values, block_rows):
    with mock.patch.object(eio, "_FORMAT_BLOCK_ROWS", block_rows):
        text, parsed = text_and_parsed(values)
    assert bits(parsed) == bits([float(line) for line in text.splitlines()])


def nudged(value: float):
    """`value` moved up to four doubles either way."""

    def step(n: int) -> float:
        v = value
        for _ in range(abs(n)):
            v = math.nextafter(v, math.inf if n > 0 else 0.0)
        return v

    return st.integers(-4, 4).map(step)


# the table path's edges: either side of 1e-99 and of 9.999999995e99,
# where a three-digit exponent sends the block to Python's %, and the carry
# at 9.999999995eN for N = -99, 98 and 99
FAST_PATH_EDGES = signed(
    st.one_of(
        nudged(1e-99),
        nudged(9.999999995e99),
        nudged(9.999999995e-99),
        nudged(9.999999995e98),
        st.floats(-101.0, -98.0).map(lambda k: 10.0**k),
        st.floats(98.0, 100.5).map(lambda k: 10.0**k),
    )
)
# samples of a simulated record's magnitude
ORDINARY_SAMPLES = st.floats(min_value=-1e-6, max_value=1e-6)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    st.lists(st.one_of(ORDINARY_SAMPLES, FAST_PATH_EDGES), min_size=1, max_size=40),
    st.integers(1, 9),
)
def test_fast_path_edges_among_ordinary_samples(values, block_rows):
    with mock.patch.object(eio, "_FORMAT_BLOCK_ROWS", block_rows):
        text, parsed = text_and_parsed(values)
    assert text == percent_e(values)
    assert bits(parsed) == bits([float(line) for line in text.splitlines()])


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
        assert sample_text(values) == percent_e(values)
    assert sample_text(np.empty(0)) == percent_e([])


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
    # a comment is no sample: the line is refused, not skipped
    reason = ":1: not a sample value: '# only a comment'" if text.strip() else ": no samples"
    signal, meta = tmp_path / "r.sig.csv", tmp_path / "r.meta.json"
    signal.write_text(text)
    meta.write_text('{"sample_rate": 10000.0}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no warning may show before the error
        with pytest.raises(ValidationError, match=f"^{re.escape(f'{signal}{reason}')}$"):
            eio.read_record(signal, meta)


def test_a_record_named_dash_is_a_file_not_stdin(tmp_path, monkeypatch):
    # only `detect -` means stdin; a manifest entry "-" is a path
    monkeypatch.chdir(tmp_path)
    Path("-").write_text("1.5\n-2.0\n")
    Path("m.json").write_text('{"sample_rate": 10000.0}')
    assert eio.read_record("-", "m.json").samples.tolist() == [1.5, -2.0]


def test_open_text_names_the_path_of_every_input_fault(tmp_path):
    text = tmp_path / "t.txt"
    text.write_bytes(b"ok\n\xff\n")
    faults = {
        tmp_path / "absent": "no such file or directory",
        tmp_path: "is a directory",
        text / "x": "not a directory",
    }
    for path, reason in faults.items():
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: {reason}$"):
            with eio.open_text(path):
                pass
    with pytest.raises(ValidationError, match=f"^{re.escape(str(text))}: not valid UTF-8$"):
        with eio.open_text(text) as fh:
            fh.read()


def test_write_record_holds_one_block_of_text(tmp_path):
    record = SignalRecord(np.random.default_rng(9).normal(0.0, 1e-9, 200_000), 10_000.0, {})
    tracemalloc.start()
    try:
        eio.write_record(record, tmp_path / "r.sig.csv", tmp_path / "r.meta.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the parsed floats and one block's work (about 1 MB); the whole text is 3.1 MB
    assert peak < record.samples.nbytes + 1_500_000
    assert eio.read_signal(tmp_path / "r.sig.csv")[0].size == 200_000


def test_sidecar_holds_tag_key_and_parsed_text(tmp_path):
    rng = np.random.default_rng(8)
    values = rng.normal(0.0, 1e-9, 2 * eio._FORMAT_BLOCK_ROWS + 5)
    values[:4] = [0.0, -0.0, 1e-20, -3.5e40]  # k = 28 and k = -32 parse their own text
    signal = tmp_path / "r.sig.csv"
    eio.write_record(SignalRecord(values, 10_000.0, {}), signal, tmp_path / "r.meta.json")
    text = signal.read_bytes()
    data = (tmp_path / "r.sig.csv.f8").read_bytes()
    parsed = [float(line) for line in text.splitlines()]
    assert data[:16] == eio._SIDECAR_TAG
    assert data[16:48] == hashlib.sha256(text + data[48:]).digest()
    assert np.frombuffer(data[48:], "<f8").view(np.uint64).tolist() == bits(parsed)
    assert bits(eio.read_signal(signal)[0]) == bits(parsed)
    assert bits(eio.read_record(signal, tmp_path / "r.meta.json").samples) == bits(parsed)
