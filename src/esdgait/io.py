"""File formats shared by the toolkit.

One signal record is a two-file pair: `<name>.sig.csv` holds one decimal
sample per line (no header) and `<name>.meta.json` holds the labels. A
batch of records is listed in a `dataset.json` manifest. Feature tables
are `features.csv` (header + one row per record, trailing label column)
with a `features.meta.json` sidecar recording the extraction settings.

All writers go through a temp file in the target directory followed by an
atomic rename, so readers never observe partial files.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import json
import os
import sys
import tempfile
import types
import typing
import warnings
from io import StringIO
from pathlib import Path

import numpy as np

from .dsp import MfccConfig
from .errors import ValidationError
from .simkit import SignalRecord

META_KEYS = (
    "sample_rate",
    "person_id",
    "mood",
    "plant_type",
    "location",
    "activity",
    "seed",
    "generator_params",
)


def atomic_write_text(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def atomic_write_json(path, obj) -> None:
    atomic_write_text(path, dump_json(obj))


def open_text(path, **options):
    """Open a user-supplied path for reading UTF-8 text. A directory there
    is bad input, so it raises ValidationError rather than an OSError."""
    try:
        return open(path, encoding="utf-8", **options)
    except IsADirectoryError:
        raise ValidationError(f"{path}: is a directory") from None


def read_json(path):
    with open_text(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise ValidationError(f"{path}: not valid JSON ({exc})") from None


def from_json(cls, value, where: str):
    """Strictly decode a parsed JSON value into `cls`, a dataclass or a type.

    Field annotations give the expected JSON types: unknown keys and missing
    required fields are errors; `int` refuses bools and fractions; `float`
    takes any finite number and stores a float; `bool` and `str` must match
    exactly. `tuple[X, ...]`, `list`, `dict[str, X]`, unions such as
    `X | None` and nested dataclasses are decoded recursively. Value rules
    live in each class's `__post_init__`, or, when an error must name a
    path inside a field, in the field's metadata "check": check(value, path)
    runs on the decoded value. A field whose metadata sets "key" is read
    from that JSON key instead of its name. Every error is a
    ValidationError naming the key path, starting from `where`.
    """
    origin = typing.get_origin(cls) or cls
    args = typing.get_args(cls)
    if dataclasses.is_dataclass(origin):
        if not isinstance(value, dict):
            _fail(where, f"expected object, got {value!r}")
        fields = {f.metadata.get("key", f.name): f for f in dataclasses.fields(origin) if f.init}
        kwargs = {}
        for key, item in value.items():
            if key not in fields:
                _fail(_at(where, key), "unknown key")
            name = fields[key].name
            kwargs[name] = from_json(_type_hints(origin)[name], item, _at(where, key))
            if "check" in fields[key].metadata:
                fields[key].metadata["check"](kwargs[name], _at(where, key))
        for key, f in fields.items():
            if key not in value and f.default is f.default_factory is dataclasses.MISSING:
                _fail(_at(where, key), "missing required field")
        try:
            return origin(**kwargs)
        except ValidationError as exc:
            raise type(exc)(f"{where}: {exc}" if where else str(exc)) from None
    if origin in (types.UnionType, typing.Union):
        if value is None and type(None) in args:
            return None
        arms = [arm for arm in args if arm is not type(None)]
        if len(arms) == 1:
            return from_json(arms[0], value, where)
        for arm in arms:
            try:
                return from_json(arm, value, where)
            except ValidationError:
                pass
        _fail(where, f"expected {cls}, got {value!r}")
    if origin in (list, tuple, dict):
        if not isinstance(value, dict if origin is dict else list):
            _fail(where, f"expected {'object' if origin is dict else 'list'}, got {value!r}")
        if not args:
            return origin(value)
        if origin is dict:
            return {k: from_json(args[1], v, _at(where, k)) for k, v in value.items()}
        return origin(from_json(args[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    if origin is float and type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)  # any finite number
    if origin is not float and type(value) is origin:  # exact: a bool is no int, an int no bool
        return value
    _fail(where, f"expected {origin.__name__}, got {value!r}")


_type_hints = functools.cache(typing.get_type_hints)


def _at(where: str, key) -> str:
    return f"{where}.{key}" if where else str(key)


def _fail(where: str, message: str):
    raise ValidationError(f"{where}: {message}" if where else message)


def mfcc_fingerprint(config: MfccConfig) -> str:
    """Stable digest of the feature-extraction settings, stored alongside
    features and inside trained models so mismatches fail loudly."""
    blob = json.dumps(config.to_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def write_record(record: SignalRecord, signal_path, meta_path) -> None:
    atomic_write_text(signal_path, _format_samples(record.samples))
    meta = {key: None for key in META_KEYS}
    meta.update(record.labels)
    meta["sample_rate"] = record.sample_rate
    atomic_write_json(meta_path, meta)


def read_record(signal_path, meta_path) -> SignalRecord:
    # the open only vets the path: np.loadtxt parses a file it opens by name
    # in blocks, and a handle line by line at about 1.6x the time
    with open_text(signal_path), warnings.catch_warnings():
        # an empty file is reported below, naming the file
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            samples = np.atleast_1d(np.loadtxt(signal_path, dtype=float))
        except ValueError as exc:
            raise ValidationError(_bad_sample(signal_path, exc)) from None
    if samples.size == 0:
        raise ValidationError(f"{signal_path}: no samples")
    meta = read_json(meta_path)
    if "sample_rate" not in meta:
        raise ValidationError(f"{meta_path}: missing sample_rate")
    labels = {k: v for k, v in meta.items() if k != "sample_rate"}
    return SignalRecord(samples=samples, sample_rate=float(meta["sample_rate"]), labels=labels)


def _bad_sample(path, exc: ValueError) -> str:
    """Name the first line of a signal file that is not one number; only
    called once np.loadtxt has failed, so good files are read once."""
    with open(path, encoding="utf-8", errors="replace") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            try:
                if text:
                    float(text)
            except ValueError:
                return f"{path}:{line_no}: not a sample value: {text!r}"
    return f"{path}: {exc}"


# Record text is "%.8e" per sample, one per line. _format_samples writes it
# with numpy in blocks of this many rows, which bounds its temporaries.
_FORMAT_BLOCK_ROWS = 8192
# 10**k for k in [-300, 308], each correctly rounded
_POW10_MIN = -300
_POW10 = np.array([float(f"1e{k}") for k in range(_POW10_MIN, 309)])
# One output row before the keep-mask: a 4-byte head (pad, "-", lead digit,
# "."), two 4-digit groups, and an 8-byte tail ("e", exponent sign, three
# exponent digits, newline, two pads). The tables hold the bytes of each
# part in native order, so a row is assembled by whole-word gathers.
_ROW = np.dtype([("head", "u4"), ("hi", "u4"), ("lo", "u4"), ("exp", "u8")])
_HEAD = np.frombuffer(b"".join(b"\0-%d." % d for d in range(10)), dtype="u4")
_DIGITS4 = np.arange(10_000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")
_DIGITS4 = _DIGITS4.astype(np.uint8).view("u4").ravel()  # "%04d" % i as one word
_EXP_MIN = -300
_EXP = np.frombuffer(b"".join(b"e%+04d\n\0\0" % e for e in range(_EXP_MIN, 302)), dtype="u8")
# bytes every row keeps; the sign (byte 1) and the exponent's hundreds
# digit (byte 14) are set per row
_KEEP = np.frombuffer(b"\0" + b"\1" * 17 + b"\0\0", dtype=bool)


def _format_samples(samples) -> str:
    """Record text: each sample as "%.8e" on its own line, byte for byte
    what Python's % operator gives for every float64."""
    x = np.asarray(samples, dtype=float).ravel()
    if x.size == 0:
        return "\n"
    return "".join(
        _format_block(x[i : i + _FORMAT_BLOCK_ROWS]) for i in range(0, x.size, _FORMAT_BLOCK_ROWS)
    )


def _format_block(x: np.ndarray) -> str:
    a = np.abs(x)
    nonzero = a != 0.0
    if not (np.all(np.isfinite(a)) and np.all((a[nonzero] >= 1e-300) & (a[nonzero] <= 1e300))):
        return "".join("%.8e\n" % v for v in x)
    a = np.where(nonzero, a, 1.0)
    # scale to a 9-digit mantissa m = a * 10**k in [1e8, 1e9); log10 may
    # miss the decimal exponent by one, which the second scaling corrects
    # (10**308 suffices for a >= 1e-300, even where log10 rounds below -300)
    k = np.minimum(8 - np.floor(np.log10(a)).astype(np.int64), 308)
    m = a * _POW10[k - _POW10_MIN]
    k += (m < 1e8).astype(np.int64) - (m >= 1e9)
    m = a * _POW10[k - _POW10_MIN]
    mant = np.rint(m).astype(np.int64)
    exp = 8 - k
    carry = mant >= 1_000_000_000  # 9.999999995eN rounds to 1.00000000e(N+1)
    mant[carry] //= 10
    exp[carry] += 1
    mant[~nonzero] = 0
    exp[~nonzero] = 0
    # m carries at most a few ulps of scaling error (< 1e-6 at 1e9), so
    # rint rounds it correctly unless it is this close to a half-way point
    for i in np.flatnonzero((np.abs(m - np.floor(m) - 0.5) < 1e-4) & nonzero):
        text = "%.8e" % a[i]
        mant[i] = int(text[0] + text[2:10])
        exp[i] = int(text[11:])
    lead, rest = np.divmod(mant, 100_000_000)
    hi, lo = np.divmod(rest, 10_000)
    rows = np.empty(x.size, dtype=_ROW)
    rows["head"] = _HEAD[lead]
    rows["hi"] = _DIGITS4[hi]
    rows["lo"] = _DIGITS4[lo]
    rows["exp"] = _EXP[exp - _EXP_MIN]
    keep = np.empty((x.size, _ROW.itemsize), dtype=bool)
    keep[:] = _KEEP
    keep[:, 1] = np.signbit(x)
    keep[:, 14] = np.abs(exp) >= 100
    return rows.view(np.uint8)[keep.ravel()].tobytes().decode("ascii")


def write_manifest(path, entries: list[dict]) -> None:
    """entries: [{"signal_path": ..., "meta_path": ...}] with paths relative
    to the manifest's directory."""
    for entry in entries:
        if set(entry) != {"signal_path", "meta_path"}:
            raise ValidationError(f"bad manifest entry keys: {sorted(entry)}")
    atomic_write_json(path, entries)


def read_manifest(path) -> list[dict]:
    """Returns entries with paths resolved against the manifest location."""
    base = Path(path).parent
    entries = read_json(path)
    if not isinstance(entries, list):
        raise ValidationError(f"{path}: manifest must be a list")
    resolved = []
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict) or "signal_path" not in entry or "meta_path" not in entry:
            raise ValidationError(f"{path}: each entry needs signal_path and meta_path")
        for key in ("signal_path", "meta_path"):
            if not isinstance(entry[key], str):
                raise ValidationError(f"{path}: [{index}].{key}: expected str, got {entry[key]!r}")
        resolved.append(
            {
                "signal_path": str(base / entry["signal_path"]),
                "meta_path": str(base / entry["meta_path"]),
            }
        )
    return resolved


def write_features(path, matrix: np.ndarray, feature_names, labels) -> None:
    """features.csv: header of feature names plus "label"; float cells are
    written with repr() so they round-trip exactly."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[1] != len(feature_names):
        raise ValidationError("feature matrix must be (records, names)")
    if matrix.shape[0] != len(labels):
        raise ValidationError("one label per feature row required")
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([*feature_names, "label"])
    for row, label in zip(matrix, labels):
        writer.writerow([*(repr(float(v)) for v in row), str(label)])
    atomic_write_text(path, buf.getvalue())


def read_features(path) -> tuple[np.ndarray, tuple[str, ...], list[str]]:
    try:
        with open_text(path, newline="") as fh:
            return _parse_features(path, csv.reader(fh))
    except UnicodeDecodeError:
        raise ValidationError(f"{path}: not valid UTF-8") from None


def _parse_features(path, reader) -> tuple[np.ndarray, tuple[str, ...], list[str]]:
    try:
        header = next(reader)
    except StopIteration:
        raise ValidationError(f"{path}: empty features file") from None
    if not header or header[-1] != "label":
        raise ValidationError(f"{path}: last column must be 'label'")
    names = tuple(header[:-1])
    rows, labels = [], []
    for line_no, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise ValidationError(f"{path}:{line_no}: expected {len(header)} cells")
        try:
            rows.append([float(v) for v in row[:-1]])
        except ValueError as exc:
            raise ValidationError(f"{path}:{line_no}: {exc}") from None
        labels.append(row[-1])
    if not rows:
        raise ValidationError(f"{path}: no feature rows")
    return np.asarray(rows, dtype=float), names, labels
