"""File formats shared by the toolkit.

One signal record is a two-file pair: `<name>.sig.csv` holds one decimal
sample per line (no header) and `<name>.meta.json` holds the labels. A
batch of records is listed in a `dataset.json` manifest. Feature tables
are `features.csv` (header + one row per record, trailing label column)
with a `features.meta.json` sidecar recording the extraction settings.

`simulate` writes the signal text with numpy, in blocks of lines. Each
line is built as a 16-byte row of four uint32 words gathered from tables:
`[sign or NUL, lead digit, ".", d1]`, `[d2..d5]`, `[d6 d7 d8 "e"]` and
`[exponent sign, two exponent digits, newline]`; one `bytes.replace` strips
the NULs of positive lines. That covers every block whose samples are 0 or
lie in [1e-99, 9.999999995e99), where "%.8e" has a two-digit exponent; any
other block (nan, inf, a three-digit exponent) is formatted by Python's %.

`simulate` also writes `<name>.sig.csv.f8` next to each signal: the
samples as float64 under a sha256 key of the signal's bytes, so readers of
an unchanged record skip the text parse (see `open_signal`, the one reader).

All writers go through a temp file in the target directory followed by an
atomic rename, so readers never observe partial files.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import os
import re
import sys
import time
import types
import typing
from pathlib import Path

import numpy as np

from .dsp import MfccConfig
from .errors import ValidationError, cut, shown
from .simkit import SignalRecord


def atomic_write_text(path, text: str) -> None:
    _atomic_write(path, [text.encode("utf-8")])


def _atomic_write(path, chunks, digest=None) -> None:
    """Write the byte chunks (bytes or contiguous arrays) one after another,
    each added to `digest` as it is written when a hash object is given."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # the umask applies, as in open()
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
                if digest is not None:
                    digest.update(chunk)
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


@contextlib.contextmanager
def open_text(path, **options):
    """Open a user-supplied path for reading UTF-8 text, as a context manager.
    A path that is missing, a directory or under a file, and text read in the
    `with` that is not UTF-8, are bad input: ValidationError names the path."""
    try:
        fh = open(path, encoding="utf-8", **options)
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        raise ValidationError(f"{path}: {exc.strerror.lower()}") from None
    with fh:
        try:
            yield fh
        except UnicodeDecodeError:
            raise ValidationError(f"{path}: not valid UTF-8") from None


def read_json(path, object_hook=None):
    with open_text(path) as fh:
        try:
            return json.load(fh, object_hook=object_hook)
        except ValidationError:  # from object_hook, as it wrote it
            raise
        except ValueError as exc:  # a JSONDecodeError, or an int past Python's digit limit
            raise ValidationError(f"{path}: not valid JSON ({exc})") from None
        except RecursionError:
            raise ValidationError(f"{path}: JSON nested deeper than the parser can go") from None


def from_json(cls, value, where: str):
    """Strictly decode a parsed JSON value into `cls`, a dataclass or a type.

    Field annotations give the expected JSON types: unknown keys and missing
    required fields are errors; `int` refuses bools and fractions; `float`
    takes any finite number and stores a float; `bool` and `str` must match
    exactly, and a `str` (a dict key too) must not hold a lone surrogate
    (JSON's "\\ud800"), which UTF-8 cannot encode. `tuple[X, ...]`,
    `list`, `dict[str, X]`, unions such as `X | None` and nested
    dataclasses are decoded recursively. Value rules live in each class's
    `__post_init__`. A field whose metadata sets "key" is read from that
    JSON key instead of its name. Every error is a ValidationError naming
    the key path, starting from `where`, each key in it `cut`; a
    `__post_init__` error that starts with a path inside its object
    (`key.sub: message`, key one of its fields) continues that path.
    """
    origin = typing.get_origin(cls) or cls
    args = typing.get_args(cls)
    if dataclasses.is_dataclass(origin):
        if not isinstance(value, dict):
            _fail(where, f"expected object, got {shown(value)}")
        fields = {f.metadata.get("key", f.name): f for f in dataclasses.fields(origin) if f.init}
        kwargs = {}
        for key, item in value.items():
            if key not in fields:
                _fail(_at(where, key), "unknown key")
            name = fields[key].name
            kwargs[name] = from_json(_type_hints(origin)[name], item, _at(where, key))
        for key, f in fields.items():
            if key not in value and f.default is f.default_factory is dataclasses.MISSING:
                _fail(_at(where, key), "missing required field")
        try:
            return origin(**kwargs)
        except ValidationError as exc:
            inner = str(exc).partition(":")[0]
            joint = "." if inner.partition(".")[0] in fields and " " not in inner else ": "
            raise type(exc)(f"{where}{joint}{exc}" if where else str(exc)) from None
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
        _fail(where, f"expected {cls}, got {shown(value)}")
    if origin in (list, tuple, dict):
        if not isinstance(value, dict if origin is dict else list):
            _fail(where, f"expected {'object' if origin is dict else 'list'}, got {shown(value)}")
        if not args:
            return origin(value)
        if origin is dict:
            return {from_json(args[0], k, where): from_json(args[1], v, _at(where, k))
                    for k, v in value.items()}
        return origin(from_json(args[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    if origin is float and type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)  # any finite number
    if origin is str and type(value) is str and _SURROGATE.search(value):  # JSON's "\ud800"
        _fail(where, f"{shown(value)} holds a lone surrogate, which is not text")
    if origin is not float and type(value) is origin:  # exact: a bool is no int, an int no bool
        return value
    _fail(where, f"expected {origin.__name__}, got {shown(value)}")


_type_hints = functools.cache(typing.get_type_hints)
_SURROGATE = re.compile("[\ud800-\udfff]")  # in a str, every surrogate is a lone one


def _at(where: str, key: str) -> str:
    return f"{where}.{cut(key)}" if where else cut(key)


def _fail(where: str, message: str):
    raise ValidationError(f"{where}: {message}" if where else message)


def mfcc_fingerprint(config: MfccConfig) -> str:
    """Stable digest of the feature-extraction settings, stored alongside
    features and inside trained models so mismatches fail loudly."""
    blob = json.dumps(config.to_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def write_record(record: SignalRecord, signal_path, meta_path) -> None:
    """Write the signal text a block at a time, then its sidecar, then the labels."""
    x = np.asarray(record.samples, dtype=float).ravel()
    parsed = np.empty(x.size)
    digest = hashlib.sha256()
    _atomic_write(signal_path, _text_blocks(x, parsed), digest)
    stored = parsed.astype("<f8", copy=False)
    digest.update(stored)
    _atomic_write(f"{signal_path}.f8", [_SIDECAR_TAG, digest.digest(), stored])
    atomic_write_json(meta_path, {**record.labels, "sample_rate": record.sample_rate})


# A sidecar, `<signal>.f8`, holds this tag, a key, and one little-endian
# float64 per line of the signal file: the float that line parses to. The key
# is the sha256 of the signal file's bytes followed by the float64 bytes, so
# it also fails when the samples change after writing.
_SIDECAR_TAG = b"esdgait f8 v1\n\0\0"
_SIDECAR_HEAD = len(_SIDECAR_TAG) + hashlib.sha256().digest_size


def file_blocks(fh):
    """The bytes of a file open for binary reading, from where it stands,
    64 KiB at a time."""
    return iter(functools.partial(fh.read, 1 << 16), b"")


def _matches(sidecar, signal_path) -> bool:
    """Whether the sidecar, open at its start, provably belongs to the signal
    text as it is now: the tag matches, the key is the sha256 of the text
    and the samples, and the payload is whole float64s, one finite sample
    per line (and at least one). Both files are hashed a block at a time; a
    text that cannot be read raises OSError."""
    head, digest, lines = sidecar.read(_SIDECAR_HEAD), hashlib.sha256(), 0
    with open(signal_path, "rb") as text:
        for block in file_blocks(text):
            digest.update(block)
            lines += np.count_nonzero(np.frombuffer(block, np.uint8) == 10)  # b"\n", 5x bytes.count
    for block in file_blocks(sidecar):  # only the last read may be short
        if len(block) % 8 or not np.isfinite(np.frombuffer(block, "<f8")).all():
            return False
        digest.update(block)
    return (head == _SIDECAR_TAG + digest.digest() and lines > 0
            and sidecar.tell() == _SIDECAR_HEAD + 8 * lines)


# A file's times are kept to a grain: the kernel's clock tick (at most 10 ms)
# where the file system keeps nanoseconds, a second or two (FAT) where it
# keeps seconds, and a ctime in whole seconds may come from such a system.
_FINE_GRAIN_NS = 100_000_000
_SECONDS_GRAIN_NS = 2_000_000_000


class Stamp(typing.NamedTuple):
    """A signal text and its sidecar as stat'ed before a read that found the
    sidecar to match: each file's (inode, size, mtime_ns, ctime_ns)."""

    text: tuple
    sidecar: tuple


def _settled(stamp: Stamp | None, now_ns: int) -> bool:
    """Whether both stamped files were last changed more than a grain before `now_ns`."""
    if stamp is None:
        return False
    ctimes = [stat[3] for stat in stamp]
    grain = _SECONDS_GRAIN_NS if any(t % 10**9 == 0 for t in ctimes) else _FINE_GRAIN_NS
    return max(ctimes) < now_ns - grain


def open_signal(signal_path, stamp: Stamp | None = None, whole: bool = False):
    """A signal's samples as chunks, and a Stamp or None: the one reader of
    a record's samples. It opens the sidecar once, stats both files (the
    sidecar through the open file) and, unless they stat as `stamp`, checks
    that the sidecar matches the text (`_matches`). A hit gives the
    sidecar's samples _SAMPLE_CHUNK_LINES at a time, or when `whole` as one
    array read from the file, not copied; a miss gives the text parsed by
    `sample_chunks`, whose errors name `signal_path`.

    A hit whose files were both last changed more than a grain before this
    read began gets a Stamp. Passed back with a later read, it skips the
    text read and the sha256 while both files still stat as stamped (git's
    racy-clean rule, on ctime): a change after the stamp lands at least a
    grain after the files' last change, so it gives them a new ctime. The
    rule trusts that the files' clock is this machine's, and that a sidecar
    is replaced, never rewritten in place."""
    began, sidecar = time.time_ns(), None
    try:
        sidecar = open(f"{signal_path}.f8", "rb")
        stats = os.stat(signal_path), os.fstat(sidecar.fileno())
        now = Stamp(*((s.st_ino, s.st_size, s.st_mtime_ns, s.st_ctime_ns) for s in stats))
        if now == stamp or _matches(sidecar, signal_path):
            sidecar.seek(_SIDECAR_HEAD)
            return _chunks(signal_path, sidecar, whole), now if _settled(now, began) else None
    except OSError:
        pass
    if sidecar is not None:
        sidecar.close()
    return _chunks(signal_path, None, whole), None


def _chunks(signal_path, sidecar, whole: bool):
    """`open_signal`'s chunks: the text parsed when `sidecar` is None, else
    the samples of the sidecar, open at its first sample."""
    if sidecar is None:
        with open_text(signal_path) as lines:
            yield from sample_chunks(lines, signal_path)
        return
    with sidecar:
        if whole:
            yield np.fromfile(sidecar, dtype="<f8")
        while block := sidecar.read(8 * _SAMPLE_CHUNK_LINES):  # one chunk in memory at a time
            yield np.frombuffer(block, "<f8", count=len(block) // 8)


def read_signal(signal_path, stamp: Stamp | None = None) -> tuple[np.ndarray, Stamp | None]:
    """A signal's samples in one array, and its Stamp: `open_signal`'s chunks
    joined, where a sidecar hit's one array is returned as it was read."""
    chunks, stamp = open_signal(signal_path, stamp, whole=True)
    if not (chunks := list(chunks)):
        raise ValidationError(f"{signal_path}: no samples")
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks), stamp


def read_meta(meta_path) -> tuple[float, dict]:
    """A record's sample rate and labels."""
    meta = read_json(meta_path)
    if not isinstance(meta, dict):
        raise ValidationError(f"{meta_path}: expected a JSON object")
    where = f"{meta_path}: sample_rate"
    if "sample_rate" not in meta:
        _fail(where, "missing required field")
    sample_rate = from_json(float, meta["sample_rate"], where)
    if sample_rate <= 0:
        _fail(where, f"must be positive, got {sample_rate!r}")
    labels = {  # a str label must be text: featurize writes it out
        k: from_json(str, v, f"{meta_path}: {cut(k)}") if type(v) is str else v
        for k, v in meta.items() if k != "sample_rate"
    }
    return sample_rate, labels


def read_record(signal_path, meta_path, stamp: Stamp | None = None) -> SignalRecord:
    """A record's samples, read as `read_signal` given `stamp`, and labels."""
    samples, _ = read_signal(signal_path, stamp)
    sample_rate, labels = read_meta(meta_path)
    return SignalRecord(samples=samples, sample_rate=sample_rate, labels=labels)


# lines of signal text parsed at a time, and samples per chunk of
# sample_chunks; any value gives the same samples and the same errors
_SAMPLE_CHUNK_LINES = 2500


def sample_chunks(source, name):
    """The samples of the open text stream `source`, named `name` in errors,
    in chunks of _SAMPLE_CHUNK_LINES samples (the last may be shorter)
    whatever its blank lines, so a streaming reader pushes the same chunks
    as a per-line one would. The grammar: every line that is not blank
    holds, stripped, one finite number that float() accepts. The first line
    that does not ends the read with a ValidationError `<name>:<line>: ...`,
    raised after every full chunk before it has been yielded.
    """
    if hasattr(source, "reconfigure"):  # bytes that are not UTF-8 become lone surrogates
        source.reconfigure(errors="surrogateescape")
    pending, error, line_no = np.empty(0), None, 0
    while error is None and (chunk := list(itertools.islice(source, _SAMPLE_CHUNK_LINES))):
        try:
            values = np.array(chunk, dtype=float)
            if not np.all(np.isfinite(values)):
                raise ValueError
        except ValueError:  # a blank line, a bad value or a non-finite one: go line by line
            values = []
            for number, line in enumerate(chunk, start=line_no + 1):
                if not (text := line.strip()):
                    continue
                try:
                    value = float(text)
                except ValueError:  # a lone surrogate stands for a bad byte
                    utf8 = not _SURROGATE.search(text)
                    error = f"{name}:{number}: " + (
                        f"not a sample value: {shown(text)}" if utf8 else "not valid UTF-8")
                    break
                if not math.isfinite(value):
                    error = f"{name}:{number}: not a finite sample value: {shown(text)}"
                    break
                values.append(value)
            values = np.array(values)
        line_no += len(chunk)
        pending = np.concatenate([pending, values])
        while pending.size >= _SAMPLE_CHUNK_LINES:
            yield pending[:_SAMPLE_CHUNK_LINES]
            pending = pending[_SAMPLE_CHUNK_LINES:]
    if error is not None:
        raise ValidationError(error)
    if pending.size:
        yield pending


# Record text is "%.8e" per sample, one per line. _text_blocks writes it
# with numpy in blocks of this many rows, which bounds its temporaries.
_FORMAT_BLOCK_ROWS = 8192
# A block takes the table path when every sample is 0 or has a two-digit
# decimal exponent: at least 1e-99 and below 9.999999995e99, the least
# double whose "%.8e" is 1.00000000e+100. Any other block (nan, inf, a
# three-digit exponent) is formatted by Python's %.
_FAST_MIN, _FAST_MAX = 1e-99, 9.999999995e99
# 10**k for k in [-300, 308], each correctly rounded
_POW10_MIN = -300
_POW10 = np.array([float(f"1e{k}") for k in range(_POW10_MIN, 309)])
# A line is four native-order uint32 words, each gathered from a table:
# [sign or NUL, lead digit, ".", d1], [d2 d3 d4 d5], [d6 d7 d8 "e"] and
# [exponent sign, two exponent digits, "\n"]. The NUL that stands for a
# positive sign is stripped from the block's bytes by one bytes.replace.
_LEAD = np.frombuffer(
    b"".join(b"%s%d.%d" % (sign, d // 10, d % 10) for sign in (b"\0", b"-") for d in range(100)),
    dtype="u4",
)
_DIGITS4 = np.arange(10_000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")
_DIGITS4 = _DIGITS4.astype(np.uint8).view("u4").ravel()  # "%04d" % i as one word
_TAIL = np.frombuffer(b"".join(b"%03de" % d for d in range(1000)), dtype="u4")
_EXPONENT = np.frombuffer(b"".join(b"%+03d\n" % e for e in range(-99, 100)), dtype="u4")


def _text_blocks(x: np.ndarray, parsed: np.ndarray):
    """Record text for the float64 samples `x`, a block of bytes at a time.
    The text is each sample as "%.8e" on its own line, byte for byte what
    Python's % operator gives for every float64; as each block is made,
    `parsed` (the size of `x`) takes the floats its lines parse to."""
    if x.size == 0:
        yield b"\n"
    for i in range(0, x.size, _FORMAT_BLOCK_ROWS):
        yield _format_block(x[i : i + _FORMAT_BLOCK_ROWS], parsed[i : i + _FORMAT_BLOCK_ROWS])


def _format_block(x: np.ndarray, parsed: np.ndarray) -> bytes:
    """One block's text; fills `parsed` with the float each line parses to."""
    a = np.abs(x)
    low, high = a.min(), a.max()  # nan if any sample is
    if not (high < _FAST_MAX and (low >= _FAST_MIN or np.all(a[a != 0.0] >= _FAST_MIN))):
        lines = [b"%.8e\n" % v for v in x]
        parsed[:] = [float(line) for line in lines]
        return b"".join(lines)
    zeros = np.flatnonzero(a == 0.0) if low == 0.0 else []
    a[zeros] = 1.0
    # scale to a 9-digit mantissa m = a * 10**(8 - e) in [1e8, 1e9), where
    # e is the decimal exponent; log10 may miss it by one, and only the
    # lines it missed are scaled again
    e = np.floor(np.log10(a)).astype(np.int64)
    m = a * _POW10[8 - _POW10_MIN - e]
    missed = np.flatnonzero((m < 1e8) | (m >= 1e9))
    e[missed] += np.where(m[missed] < 1e8, -1, 1)
    m[missed] = a[missed] * _POW10[8 - _POW10_MIN - e[missed]]
    mant = np.rint(m)
    # m carries at most a few ulps of scaling error (< 1e-6 at 1e9), so
    # rint rounds it correctly unless it is this close to a half-way point
    for i in np.flatnonzero(np.abs(m - mant) > 0.5 - 1e-4):
        text = "%.8e" % a[i]
        mant[i] = int(text[0] + text[2:10])
        e[i] = int(text[11:])
    carry = np.flatnonzero(mant >= 1e9)  # 9.999999995eN rounds to 1.00000000e(N+1)
    mant[carry] = 1e8
    e[carry] += 1
    mant[zeros] = 0.0
    e[zeros] = 0
    # the line's value is mant / 10**k, k = 8 - e: with 0 <= k <= 22 that
    # is one correctly rounded division of exact operands, and with
    # -22 <= k < 0 one multiplication (Clinger's fast path), so it equals
    # the parse
    k = 8 - e
    scale = _POW10[np.minimum(np.abs(k), 22) - _POW10_MIN]
    np.divide(mant, scale, out=parsed)
    large = np.flatnonzero(k < 0)
    parsed[large] = mant[large] * scale[large]
    np.copysign(parsed, x, out=parsed)
    for i in np.flatnonzero(np.abs(k) > 22):
        parsed[i] = float("%.8e" % x[i])
    digits = mant.astype(np.int32)
    head = digits // 10_000_000  # lead digit and d1
    rest = digits - head * 10_000_000
    mid = rest // 1000
    rows = np.empty((x.size, 4), dtype=np.uint32)
    rows[:, 0] = _LEAD[head + 100 * np.signbit(x)]
    rows[:, 1] = _DIGITS4[mid]
    rows[:, 2] = _TAIL[rest - mid * 1000]
    rows[:, 3] = _EXPONENT[e + 99]
    return rows.tobytes().replace(b"\0", b"")


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
        resolved.append({})
        for key in ("signal_path", "meta_path"):
            where = f"{path}: [{index}].{key}"
            if "\0" in from_json(str, entry[key], where):
                _fail(where, f"{shown(entry[key])} holds a NUL, which no path can")
            resolved[-1][key] = str(base / entry[key])
    return resolved


def write_features(path, matrix: np.ndarray, feature_names, labels) -> None:
    """features.csv: header of feature names plus "label"; float cells are
    written with repr() so they round-trip exactly."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[1] != len(feature_names):
        raise ValidationError("feature matrix must be (records, names)")
    if matrix.shape[0] != len(labels):
        raise ValidationError("one label per feature row required")
    # writerow returns what its file's write returns: here each line's UTF-8 bytes
    writer = csv.writer(types.SimpleNamespace(write=str.encode), lineterminator="\n")
    rows = ([*map(repr, row.tolist()), str(label)] for row, label in zip(matrix, labels))
    _atomic_write(path, map(writer.writerow, itertools.chain([[*feature_names, "label"]], rows)))


def read_features(path) -> tuple[np.ndarray, tuple[str, ...], list[str]]:
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty features file") from None
        if not header or header[-1] != "label":
            raise ValidationError(f"{path}: last column must be 'label'")
        seen = set()
        for name in header:
            if name in seen:
                raise ValidationError(f"{path}: duplicate column {shown(name)}")
            seen.add(name)
        names = tuple(header[:-1])
        rows, labels = [], []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValidationError(f"{path}:{line_no}: expected {len(header)} cells")
            try:  # numpy parses each str cell as float() does, errors too
                values = np.array(row[:-1], dtype=float)
            except ValueError:  # float()'s wording, naming the first cell it refuses
                for cell in row[:-1]:
                    try:
                        float(cell)
                    except ValueError:
                        message = f"could not convert string to float: {shown(cell)}"
                        raise ValidationError(f"{path}:{line_no}: {message}") from None
            if not np.isfinite(values).all():
                cell = row[int(np.argmin(np.isfinite(values)))]
                raise ValidationError(f"{path}:{line_no}: not a finite feature value: {shown(cell)}")
            rows.append(values)
            labels.append(row[-1])
        if not rows:
            raise ValidationError(f"{path}: no feature rows")
        return np.array(rows), names, labels
