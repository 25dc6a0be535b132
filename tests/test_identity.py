"""tools/identity.py's tree comparison: one byte that differs, or a file on
one side only, fails it naming that file; equal trees pass."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "identity.py"
_spec = importlib.util.spec_from_file_location("identity", TOOL)
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)

FILES = {
    "dataset.json": b'[{"meta_path": "records/rec_0000.meta.json"}]\n',
    "records/rec_0000.sig.csv": b"1.00000000e+00\n",
    "records/rec_0000.sig.csv.f8": bytes(56),
}


def tree(root: Path, files: dict[str, bytes]) -> Path:
    for name, data in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(data)
    return root


def test_equal_trees_pass(tmp_path):
    a, b = tree(tmp_path / "a", FILES), tree(tmp_path / "b", FILES)
    assert identity.first_difference(a, b) is None
    identity.same(a, b)
    identity.same(a / "dataset.json", b / "dataset.json")


@pytest.mark.parametrize("name", sorted(FILES))
@pytest.mark.parametrize("at", [0, -1])
def test_one_byte_fails_naming_its_file(tmp_path, name, at):
    edited = bytearray(FILES[name])
    edited[at] ^= 1
    a, b = tree(tmp_path / "a", FILES), tree(tmp_path / "b", {**FILES, name: bytes(edited)})
    assert identity.first_difference(a, b) == (a / name, b / name)
    with pytest.raises(SystemExit, match=f"^identity: {a / name} and {b / name} differ$"):
        identity.same(a, b)


@pytest.mark.parametrize("extra", ["records/rec_0001.sig.csv", "empty"])
def test_an_entry_on_one_side_only_fails_naming_it(tmp_path, extra):
    a, b = tree(tmp_path / "a", FILES), tree(tmp_path / "b", FILES)
    if extra == "empty":
        (b / extra).mkdir()
    else:
        (b / extra).write_bytes(b"")
    assert identity.first_difference(a, b) == (a / extra, b / extra)
    assert identity.first_difference(b, a) == (b / extra, a / extra)


def test_out_is_the_only_argument_and_must_be_new(tmp_path, capsys):
    for argv in ([], [str(tmp_path / "new"), "--jobs"], ["--jobs"], [str(tmp_path)]):
        assert identity.main(argv) == 2
        assert capsys.readouterr().err == (
            "usage: python tools/identity.py OUT (a path that does not exist)\n")
    assert not (tmp_path / "new").exists()
