"""The CSV table format: every CSV table the program reads or writes.

Tables are UTF-8, in the ``csv`` module's default dialect, with ``"\\n"``
line ends on output.

Input tables (cities, survey axes, node attributes) are read by
``read_keyed_rows``: a header row that must name the required columns, then
one row per key, a repeated key being a ``DataError``.  Errors name the file
and the physical line on which the offending row ends, so a quoted field
spanning several lines still points into the file.  ``row_floats`` reads the
numeric fields of a row: a short row, a non-numeric field, NaN or an
infinity is a ``DataError`` with the file and line.

Report tables are written by ``write_rows``, which is ``csv.writer``: a
float (numpy ``float64`` included) is written as its ``repr``, an int as its
digits and ``None`` as an empty field.  The large reports are mostly rows of
numbers behind a text label; ``write_labelled_rows`` writes those byte for
byte as ``write_rows`` would, but quotes only the labels and ids through
``csv`` (``quote_fields``, each distinct one once) and joins the rows with
``","`` at C speed.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import DataError, utf8_input


def read_keyed_rows(
    path: str | Path, what: str, key: str, columns: Iterable[str]
) -> Iterator[tuple[int, dict]]:
    """``(line, row)`` for each row of the ``what`` file at ``path``, its
    fields keyed by the header.  The header must name ``key`` and every one
    of ``columns``; a ``key`` value seen on an earlier row is a DataError.
    A short row has ``None`` for its missing fields."""
    with utf8_input(path), open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        required = {key, *columns}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise DataError(f"{what} file must have columns {sorted(required)}")
        seen = set()
        for row in reader:
            if row[key] in seen:
                raise DataError(f"{path} line {reader.line_num}: {what} file lists "
                                f"{row[key]!r} twice")
            seen.add(row[key])
            yield reader.line_num, row


def row_floats(path: str | Path, line: int, row: dict, keys: Sequence[str]) -> tuple[float, ...]:
    """The named fields of a row from ``read_keyed_rows`` as finite floats; a
    short row, a non-numeric field, NaN or an infinity is a DataError naming
    the file and line."""
    try:
        if None in row.values():
            raise ValueError("too few fields")
        values = tuple(float(row[k]) for k in keys)
        for k, v in zip(keys, values):
            if not math.isfinite(v):
                raise ValueError(f"{k} is not a finite number: {row[k]!r}")
    except ValueError as exc:
        raise DataError(f"{path} line {line}: {exc}") from exc
    return values


def write_rows(path: str | Path, header: Sequence[str], rows: Iterable[Iterable]) -> None:
    """A CSV file of the header row, then each row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


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
