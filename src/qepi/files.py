"""Report and CSV files: atomic writes and CSV text from formatted fields."""

from __future__ import annotations

import os
import stat
from collections.abc import Iterable


def _create_temporary(directory: str) -> tuple[int, str]:
    """Create and open a new file under a fresh random name in directory.

    It is created with mode 0o666, which the kernel reduces by the process
    umask as open(path, "w") would; a name that already exists is drawn again.
    """
    while True:
        tmp = os.path.join(directory, f".tmp-qepi-{os.urandom(8).hex()}")
        try:
            return os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), tmp
        except FileExistsError:
            continue


def atomic_write(path, pieces: Iterable[str]) -> None:
    """Write the text pieces to path, one after another, through a temporary
    file in the same directory, which replaces path after the last piece.

    The text is never joined, so a generator of pieces keeps only one of
    them alive at a time.  If producing or writing a piece raises, the
    temporary is removed and an existing file at path keeps its bytes.
    The replaced file has the mode open(path, "w") would give it: an
    existing file keeps its mode, and a new one gets 0o666 less the umask,
    which is applied by the kernel and never read or set here.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        mode = None
    fd, tmp = _create_temporary(directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            if mode is not None:
                os.fchmod(fd, mode)
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def csv_text(rows) -> str:
    """CSV text of rows of formatted fields, as csv.writer writes it.

    The fields must need no quoting (no comma, quote or line break), which
    holds for numbers and plain names; rows end in csv's \\r\\n.
    """
    return "".join([",".join(row) + "\r\n" for row in rows])


def _grid_csv(header, s_values, lam_values, cell: str, values):
    """CSV text of a table over an S_bar x lambda grid: its header row, then
    one block of rows per S_bar.

    Row (S_bar, lambda) reads S_bar and lambda as %.10g and then the
    %-template cell, filled with that point's values; values[i] is a float
    array of block i's values, every lambda's in turn (as many per lambda
    as cell takes).  The lambda text is formatted once, into a template of
    one block whose S_bar text is spliced in by one str.replace, so a block
    costs one % fill of its own values, and only one block lives as a
    string at a time.
    """
    block = "".join(f"\0,{lam:.10g},{cell}\r\n" for lam in lam_values.tolist())
    yield csv_text([header])
    for s, row in zip(s_values.tolist(), values):
        yield block.replace("\0", f"{s:.10g}") % tuple(row.tolist())
