"""The record sidecar: `simulate` stores each record's samples next to its
text, `featurize` and `detect` read them instead of parsing the text, and
any sidecar that does not provably match the text is ignored."""

from __future__ import annotations

import hashlib
import json
import shutil
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

import esdgait.io as eio
from esdgait.cli import main
from esdgait.errors import ValidationError

CONFIG = {
    "seed": 5,
    "task": "legshake",
    "dataset": {
        "shake_frequencies": [5.5],
        "onsets": [1.5],
        "duration": 4.0,
        "snr_db": 10.0,
        "samples_per_cell": 2,
        "noise_only": 1,
    },
}


def run_main(argv: list[str]) -> tuple[str, int, str]:
    """stdout, exit code and stderr of one in-process command."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*argv, "--quiet"])
    return out.getvalue(), code, err.getvalue()


@pytest.fixture(scope="module")
def simulated(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("sidecar")
    (root / "config.json").write_text(json.dumps(CONFIG))
    assert run_main(["simulate", "--config", str(root / "config.json"), "--out", str(root)])[1] == 0
    return root


def signals(root: Path) -> list[Path]:
    return [Path(e["signal_path"]) for e in eio.read_manifest(root / "dataset.json")]


def featurize(root: Path, out: Path, *options: str) -> tuple[str, int, str]:
    return run_main(["featurize", str(root / "dataset.json"), "--config",
                     str(root / "config.json"), "--out", str(out), *options])


def detect_all(root: Path) -> list[tuple[str, int, str]]:
    return [run_main(["detect", str(s), "--config", str(root / "config.json")])
            for s in signals(root)]


def test_hit_path_parses_no_text(simulated, tmp_path):
    open_text = eio.open_text

    def refuse_signals(path, **options):
        # the text parse reads a signal only through open_text
        if str(path).endswith(".sig.csv"):
            raise AssertionError("the record text was parsed")
        return open_text(path, **options)

    with mock.patch.object(eio, "open_text", refuse_signals):
        fast_features = featurize(simulated, tmp_path / "fast")
        fast_detect = detect_all(simulated)
    assert fast_features[1] == 0
    assert any('"type": "open"' in out for out, _, _ in fast_detect)
    # the same bytes as parsing the text, with every sidecar gone
    copy = tmp_path / "copy"
    shutil.copytree(simulated, copy)
    for sidecar in copy.rglob("*.f8"):
        sidecar.unlink()
    with mock.patch.object(eio, "open_text", refuse_signals), pytest.raises(AssertionError):
        featurize(copy, tmp_path / "guarded")  # the guard sees a text parse
    assert featurize(copy, tmp_path / "slow")[1] == 0
    features = "features.csv"
    assert (tmp_path / "fast" / features).read_bytes() == (tmp_path / "slow" / features).read_bytes()
    slow_detect = [(out, code, err.replace(str(copy), str(simulated)))
                   for out, code, err in detect_all(copy)]
    assert fast_detect == slow_detect


def test_a_sidecar_hit_is_not_copied(tmp_path):
    samples = np.random.default_rng(3).normal(size=160_000)
    signal, meta = tmp_path / "long.sig.csv", tmp_path / "long.meta.json"
    rewrite(signal, samples)
    tracemalloc.start()
    try:
        record = eio.read_record(signal, meta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert record.samples.size == samples.size
    assert peak < 1.5 * record.samples.nbytes  # a copy would hold the samples twice


def test_chunks_of_a_sidecar_hit_stream_from_the_file(tmp_path):
    """A path's chunks are the sidecar's samples 2,500 at a time, bit for
    bit, and reading them holds one chunk, not the record."""
    samples = np.random.default_rng(4).normal(size=1_000_000)
    signal = tmp_path / "long.sig.csv"
    rewrite(signal, samples)
    stored = eio.read_signal(signal)[0]
    tracemalloc.start()
    try:
        sizes, matches, size = [], 0, eio._SAMPLE_CHUNK_LINES
        for index, chunk in enumerate(eio.open_signal(signal)[0]):
            sizes.append(chunk.size)
            expected = stored[index * size : (index + 1) * size]
            matches += np.array_equal(chunk.view(np.uint64), expected.view(np.uint64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes == [size] * 400 and matches == 400
    assert peak < 1_000_000  # the record's samples are 8 MB


def flip_a_digit(signal: Path, sidecar: Path) -> None:
    lines = signal.read_text().splitlines(keepends=True)
    lines[3] = lines[3][:4] + str((int(lines[3][4]) + 1) % 10) + lines[3][5:]
    signal.write_text("".join(lines))


def cut_the_tail(signal: Path, sidecar: Path) -> None:
    sidecar.write_bytes(sidecar.read_bytes()[:-5])


def bad_tag(signal: Path, sidecar: Path) -> None:
    data = bytearray(sidecar.read_bytes())
    data[3] ^= 1
    sidecar.write_bytes(bytes(data))


def one_sample_more(signal: Path, sidecar: Path) -> None:
    sidecar.write_bytes(sidecar.read_bytes() + np.float64(1.0).tobytes())


def one_sample_less(signal: Path, sidecar: Path) -> None:
    sidecar.write_bytes(sidecar.read_bytes()[:-8])


def nan_payload(signal: Path, sidecar: Path) -> None:
    data = bytearray(sidecar.read_bytes())
    data[-8:] = np.float64(np.nan).tobytes()
    sidecar.write_bytes(bytes(data))


def changed_payload(signal: Path, sidecar: Path) -> None:
    data = bytearray(sidecar.read_bytes())
    data[-8:] = np.float64(0.5).tobytes()
    sidecar.write_bytes(bytes(data))


def rewrite(signal: Path, samples) -> None:
    # not a SignalRecord: it refuses the samples these cases write
    record = SimpleNamespace(samples=np.asarray(samples), sample_rate=10_000.0, labels={})
    eio.write_record(record, signal, signal.with_name(signal.name[:-8] + ".meta.json"))


def nan_written(signal: Path, sidecar: Path) -> None:
    samples = eio.read_signal(signal)[0].copy()
    samples[3] = np.nan
    rewrite(signal, samples)


def empty_written(signal: Path, sidecar: Path) -> None:
    rewrite(signal, [])


def empty_forged(signal: Path, sidecar: Path) -> None:
    signal.write_bytes(b"")
    sidecar.write_bytes(eio._SIDECAR_TAG + hashlib.sha256(b"").digest())


def directory(signal: Path, sidecar: Path) -> None:
    sidecar.unlink()
    sidecar.mkdir()


def deleted(signal: Path, sidecar: Path) -> None:
    sidecar.unlink()


def bad_sample(signal: Path, sidecar: Path) -> None:
    signal.write_text(signal.read_text().replace("\n", "\nbanana\n", 1))


MISSES = [deleted, flip_a_digit, cut_the_tail, bad_tag, one_sample_more, one_sample_less,
          nan_payload, changed_payload, nan_written, empty_written, empty_forged, directory,
          bad_sample]


def trailing_bytes(count: int):
    """A spoiler that appends `count` zero bytes: part of a float64, which a
    whole-float read would drop while the key still matched."""

    def spoil(signal: Path, sidecar: Path) -> None:
        sidecar.write_bytes(sidecar.read_bytes() + bytes(count))

    spoil.__name__ = f"{count}_trailing_bytes"
    return spoil


PARTIAL_FLOATS = [trailing_bytes(count) for count in range(1, 8)]


def read_outcome(signal: Path, stamp: eio.Stamp | None = None) -> tuple:
    try:
        record = eio.read_record(signal, signal.with_name(signal.name[:-8] + ".meta.json"), stamp)
    except ValidationError as exc:
        return "error", str(exc)
    return "samples", record.samples.view(np.uint64).tolist()


@pytest.mark.parametrize("spoil", MISSES + PARTIAL_FLOATS,
                         ids=[f.__name__ for f in MISSES + PARTIAL_FLOATS])
def test_a_sidecar_that_does_not_match_is_ignored(simulated, tmp_path, spoil):
    signal = tmp_path / "records" / "rec_0000.sig.csv"
    shutil.copytree(simulated / "records", signal.parent)
    sidecar = signal.with_name(signal.name + ".f8")
    spoil(signal, sidecar)
    with mock.patch.object(eio, "open_signal", wraps=eio.open_signal) as spy, \
            mock.patch.object(eio, "sample_chunks", wraps=eio.sample_chunks) as parse:
        outcome = read_outcome(signal), run_main(["detect", str(signal)])
    assert spy.call_count == 2  # both readers looked at the sidecar
    assert parse.call_count == 2  # and both parsed the text
    if sidecar.is_dir():
        sidecar.rmdir()
    else:
        sidecar.unlink(missing_ok=True)
    assert (read_outcome(signal), run_main(["detect", str(signal)])) == outcome


# ------------------------------------------------------------ a second read


def settled_stamp(signal: Path) -> eio.Stamp:
    """The stamp of a first read of `signal`, once its files are old enough
    to get one: a grain after their last change, two seconds for a ctime
    that falls on a whole second."""
    deadline = time.monotonic() + 10
    while (stamp := eio.read_signal(signal)[1]) is None:
        assert time.monotonic() < deadline, "the record never got a stamp"
        time.sleep(0.05)
    return stamp


def test_a_second_read_of_an_unchanged_record_hashes_nothing(simulated, tmp_path):
    signal = tmp_path / "records" / "rec_0000.sig.csv"
    shutil.copytree(simulated / "records", signal.parent)
    stamp = settled_stamp(signal)
    first = eio.read_signal(signal)[0]
    with mock.patch.object(eio, "_matches", side_effect=AssertionError), \
            mock.patch.object(eio, "sample_chunks", side_effect=AssertionError):
        samples, again = eio.read_signal(signal, stamp)
    assert again == stamp
    assert samples.view(np.uint64).tolist() == first.view(np.uint64).tolist()


@pytest.mark.parametrize("spoil", MISSES, ids=[f.__name__ for f in MISSES])
def test_a_change_between_two_reads_is_verified(simulated, tmp_path, spoil):
    """Whatever changes after a first read, same-size rewrites of the text
    (flip_a_digit) and of the sidecar (changed_payload) among it, the
    second read gives what a read without the stamp gives."""
    signal = tmp_path / "records" / "rec_0000.sig.csv"
    shutil.copytree(simulated / "records", signal.parent)
    stamp = settled_stamp(signal)
    spoil(signal, signal.with_name(signal.name + ".f8"))
    assert read_outcome(signal, stamp) == read_outcome(signal)


def test_a_racily_fresh_record_gets_no_stamp_and_is_hashed_again(tmp_path):
    signal = tmp_path / "fresh.sig.csv"
    rewrite(signal, [1.0, 2.0, 3.0])
    with mock.patch.object(eio, "_FINE_GRAIN_NS", 60 * 10**9):  # changed less than a grain ago
        samples, stamp = eio.read_signal(signal)
    assert samples.tolist() == [1.0, 2.0, 3.0] and stamp is None
    with mock.patch.object(eio, "_matches", wraps=eio._matches) as spy:
        assert eio.read_signal(signal, stamp)[0].tolist() == [1.0, 2.0, 3.0]
    assert spy.call_count == 1


def test_featurize_hashes_each_record_once(simulated, tmp_path):
    """The scan verifies each record's sidecar and stamps it (a grain of 0
    settles every stamp at once); the second read trusts the stamp. So each
    record is read twice, hashed once and never parsed as text."""
    records = [str(s) for s in signals(simulated)]
    parsed, open_text = [], eio.open_text

    def watched_open_text(path, **options):
        if str(path).endswith(".sig.csv"):
            parsed.append(path)
        return open_text(path, **options)

    with mock.patch.object(eio, "_FINE_GRAIN_NS", 0), \
            mock.patch.object(eio, "_SECONDS_GRAIN_NS", 0), \
            mock.patch.object(eio, "_matches", wraps=eio._matches) as hashes, \
            mock.patch.object(eio, "open_signal", wraps=eio.open_signal) as reads, \
            mock.patch.object(eio, "open_text", watched_open_text):
        assert featurize(simulated, tmp_path / "features", "--jobs", "1")[1] == 0
    assert sorted(call.args[1] for call in hashes.call_args_list) == sorted(records)
    assert sorted(call.args[0] for call in reads.call_args_list) == sorted(records * 2)
    assert parsed == []


def test_a_ctime_on_a_whole_second_waits_two_seconds():
    # a file system that keeps seconds (FAT keeps two) may hide a change for that long
    now = 1_700_000_000 * 10**9

    def stamp(*ages_ns):
        return eio.Stamp(*((1, 2, now - age, now - age) for age in ages_ns))

    fine = 150_000_001
    assert eio._settled(stamp(fine, 10**9 + fine), now)
    assert not eio._settled(stamp(fine, 50_000_000), now)
    assert not eio._settled(stamp(10**9, fine), now)  # the text's ctime is on a whole second
    assert eio._settled(stamp(3 * 10**9, 2 * 10**9 + 1), now)
    assert not eio._settled(None, now)
