"""CSV text built in bulk, byte for byte what ``csv.writer(fh, lineterminator="\\n")``
writes.

The reports are mostly rows of numbers behind a text label.  Numbers never
need quoting, so only labels and ids go through ``csv``, each distinct one
once; the rows are joined with ``","`` at C speed.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Iterable, Sequence


def quote_fields(values: Iterable[str]) -> list[str]:
    """Each value as ``csv.writer`` writes it as one field of a row of two or
    more fields.  (A row of one empty field is written ``""``; here an empty
    value stays empty.)"""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    fields = []
    for value in values:
        buf.seek(0)
        buf.truncate()
        writer.writerow((value, ""))
        fields.append(buf.getvalue()[:-2])  # the trailing ",\n"
    return fields


def write_labelled_rows(
    path: str | Path, header: Sequence[str], labels: Sequence[str], rows: Iterable[Iterable[str]]
) -> None:
    """A CSV file of the header row, then each label followed by its row.

    Every row has at least one field, and its fields need no quoting
    (numbers or empty strings): they are joined as given.  The labels are
    quoted by ``quote_fields``.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        fh.writelines(f"{label},{','.join(row)}\n"
                      for label, row in zip(quote_fields(labels), rows))
