"""Report and CSV files: atomic writes and CSV text from formatted fields."""

from __future__ import annotations

import os
import tempfile
from collections.abc import Iterable


def atomic_write(path, pieces: Iterable[str]) -> None:
    """Write the text pieces to path, one after another, through a temporary
    file in the same directory, which replaces path after the last piece.

    The text is never joined, so a generator of pieces keeps only one of
    them alive at a time.  If producing or writing a piece raises, the
    temporary is removed and an existing file at path keeps its bytes.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-qepi-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
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
