import os
import stat

import pytest

from qepi.files import atomic_write

PIECES = ["S_bar,lambda,delta\r\n", "", "0.1,0.5,é\r\n" * 3, "0.2,0.5,1e-300\r\n" * 2000]


def test_streamed_pieces_write_the_bytes_of_their_join(tmp_path):
    streamed, joined = tmp_path / "streamed.csv", tmp_path / "joined.csv"
    atomic_write(streamed, iter(PIECES))
    atomic_write(joined, ["".join(PIECES)])
    assert streamed.read_bytes() == joined.read_bytes() == "".join(PIECES).encode("utf-8")
    assert sorted(os.listdir(tmp_path)) == ["joined.csv", "streamed.csv"]


class _PieceError(RuntimeError):
    pass


def _pieces_then_raise(count):
    for i in range(count):
        yield f"row {i}\r\n" * 1000
    raise _PieceError("no next piece")


@pytest.mark.parametrize("existing", [False, True])
@pytest.mark.parametrize("pieces, error", [
    (lambda: _pieces_then_raise(0), _PieceError),
    (lambda: _pieces_then_raise(3), _PieceError),
    (lambda: ["a\r\n", b"bytes are not text\r\n"], TypeError)],
    ids=["raises-first", "raises-after-three", "unwritable-piece"])
def test_failed_piece_leaves_no_temporary_and_the_old_bytes(tmp_path, existing,
                                                           pieces, error):
    target = tmp_path / "out.csv"
    if existing:
        target.write_bytes(b"old,bytes\r\n")
    with pytest.raises(error):
        atomic_write(target, pieces())
    assert os.listdir(tmp_path) == (["out.csv"] if existing else [])
    if existing:
        assert target.read_bytes() == b"old,bytes\r\n"


def _with_umask(mask, fn):
    old = os.umask(mask)
    try:
        return fn()
    finally:
        os.umask(old)


def test_new_file_gets_the_mode_of_open_under_the_umask(tmp_path):
    target, opened = tmp_path / "new.csv", tmp_path / "opened.csv"
    _with_umask(0o022, lambda: atomic_write(target, ["a\r\n"]))
    _with_umask(0o022, lambda: opened.write_text("a\r\n"))
    assert stat.S_IMODE(target.stat().st_mode) == stat.S_IMODE(opened.stat().st_mode) == 0o644
    _with_umask(0o077, lambda: atomic_write(tmp_path / "private.csv", ["a\r\n"]))
    assert stat.S_IMODE((tmp_path / "private.csv").stat().st_mode) == 0o600
    assert sorted(os.listdir(tmp_path)) == ["new.csv", "opened.csv", "private.csv"]


def test_replaced_file_keeps_its_mode(tmp_path):
    target = tmp_path / "out.csv"
    target.write_bytes(b"old,bytes\r\n")
    target.chmod(0o640)
    _with_umask(0o022, lambda: atomic_write(target, ["new,bytes\r\n"]))
    assert target.read_bytes() == b"new,bytes\r\n"
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
