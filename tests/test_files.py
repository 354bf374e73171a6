"""Atomic whole-file writes: all of the file or none of it, never a temp file."""

import pytest

from contradist.files import write_atomic


def test_writes_str_and_bytes_chunks_and_replaces_the_old_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    write_atomic(path, ["é,", b"\x00\n"])
    assert path.read_bytes() == "é,".encode("utf-8") + b"\x00\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


@pytest.mark.parametrize("old", [None, "old\n"])
def test_failure_midway_leaves_no_partial_file_and_no_temp_file(tmp_path, old):
    path = tmp_path / "out.txt"
    if old is not None:
        path.write_text(old)

    def chunks():
        yield "first half\n"
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        write_atomic(path, chunks())
    assert [p.name for p in tmp_path.iterdir()] == ([] if old is None else ["out.txt"])
    if old is not None:
        assert path.read_text() == old


def test_missing_directory_raises_and_writes_nothing(tmp_path):
    with pytest.raises(FileNotFoundError):
        write_atomic(tmp_path / "missing" / "out.txt", ["x"])
    assert list(tmp_path.iterdir()) == []
