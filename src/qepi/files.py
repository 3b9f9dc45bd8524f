"""Report and CSV files: atomic writes and CSV text from formatted fields."""

from __future__ import annotations

import os
import tempfile


def atomic_write(path, data: str) -> None:
    """Write data to path through a temporary file in the same directory.

    A failed write leaves neither a partial file at path nor the temporary.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-qepi-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(data)
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
