"""CSV ingestion and serialization of interval samples.

Two column layouts are supported: mid/spr pairs (``mid_y, spr_y, mid_x1,
spr_x1, ...``) and endpoint pairs (``inf_y, sup_y, inf_x1, sup_x1, ...``).
Floats are written with full precision, so writing and re-ingesting a sample
reproduces it exactly.  Ingest parses, and checks the header, the cells and the
endpoint pairs; a value's own rules are :class:`IntervalSample`'s to check.

The dialect is the ``csv`` module's default (``"`` quotes; LF, CRLF or CR line
ends; blank or whitespace-only lines skipped), with any cell that ``float`` reads
as finite, ``1_000`` and non-ASCII digits too. One ``np.loadtxt`` pass parses a
clean file; any other goes to the per-cell row loop, which alone raises parse errors.
"""

from __future__ import annotations

import csv
import warnings
from pathlib import Path

import numpy as np

from .errors import EmptyFile, InvertedInterval, MalformedHeader, NonNumericCell
from .intervals import IntervalSample, default_variable_names

FORMAT_MIDSPR = "midspr"
FORMAT_INFSUP = "infsup"
FORMATS = (FORMAT_MIDSPR, FORMAT_INFSUP)


def validate_format(fmt: str) -> str:
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")
    return fmt


def expected_header(k: int, fmt: str) -> list[str]:
    validate_format(fmt)
    pre = ("mid", "spr") if fmt == FORMAT_MIDSPR else ("inf", "sup")
    return [f"{p}_{name}" for name in default_variable_names(k) for p in pre]


def _rows(fh):
    """The non-blank csv rows of ``fh``.  A row the csv module refuses (a
    cell over its field size limit, say) is a :class:`MalformedHeader` that
    names it: the header, or the data row in the numbering of the other
    parse errors."""
    j = 0
    try:
        for row in csv.reader(fh):
            if any(cell.strip() for cell in row):
                yield row
                j += 1
    except csv.Error as exc:
        raise MalformedHeader(f"{f'data row {j}' if j else 'the header'} cannot be read: {exc}") from None


def ingest(path, fmt: str = FORMAT_MIDSPR) -> IntervalSample:
    """Read a headed CSV file in the module's dialect; only the row loop raises parse errors."""
    validate_format(fmt)
    path = Path(path)
    with open(path, newline="") as fh:
        rows = _rows(fh)
        header = next(rows, None)
        if header is None:
            raise EmptyFile(f"{path} has no content")
        header = [cell.strip() for cell in header]
        if len(header) < 4 or len(header) % 2 != 0:
            raise MalformedHeader(f"expected pairs of columns for y and k regressors, got {header}")
        k = len(header) // 2 - 1
        if header != expected_header(k, fmt):
            raise MalformedHeader(f"expected header {expected_header(k, fmt)}, got {header}")
        values = _fast_values(fh, len(header)) if fh.seekable() else None
        if values is None:
            if fh.seekable():  # the fast pass read on: restart after the header
                fh.seek(0)
                rows = _rows(fh)
                next(rows)
            data, unreadable = [], None
            try:
                data.extend(rows)
            except MalformedHeader as exc:  # named after the bad rows before it
                unreadable = exc
    if values is None:
        if not data and unreadable is None:
            raise EmptyFile(f"{path} has a header but no data rows")
        values = np.empty((len(data), len(header)))
        for j, row in enumerate(data, start=1):
            if len(row) != len(header):
                raise MalformedHeader(f"data row {j} has {len(row)} cells, expected {len(header)}")
            for c, cell in enumerate(row):
                try:
                    values[j - 1, c] = float(cell)
                except ValueError:
                    raise NonNumericCell(j, header[c], cell) from None
        bad = np.argwhere(~np.isfinite(values))
        if bad.size:
            j, c = bad[0]
            raise NonNumericCell(int(j) + 1, header[c], data[j][c])
        if unreadable is not None:
            raise unreadable
    first, second = values[:, 0::2], values[:, 1::2]
    if fmt == FORMAT_MIDSPR:
        mid, spr = first, second
    else:
        with np.errstate(over="ignore"):
            mid = (first + second) / 2.0
            spr = (second - first) / 2.0
        bad = np.argwhere((first > second) | ~np.isfinite(mid) | ~np.isfinite(spr))
        if bad.size:
            j, v = bad[0]
            lo, hi = first[j, v], second[j, v]
            if lo > hi:
                detail = f"inf {lo} exceeds sup {hi}"
            else:
                what = "spread" if np.isfinite(mid[j, v]) else "midpoint"
                detail = f"the {what} of inf {lo} and sup {hi} overflows"
            raise InvertedInterval(int(j) + 1, default_variable_names(k)[v], detail)
    return IntervalSample(mid[:, 0], spr[:, 0], mid[:, 1:], spr[:, 1:])


def _fast_values(fh, width: int):
    """The rows left in ``fh`` from one ``np.loadtxt`` pass; None leaves them to the row loop."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            values = np.loadtxt(fh, delimiter=",", ndmin=2, quotechar='"', comments=None)
        except (ValueError, Warning):
            return None
    return values if values.shape[1] == width and np.isfinite(values).all() else None


def write_sample(sample: IntervalSample, path, fmt: str = FORMAT_MIDSPR) -> None:
    """Write an interval sample as CSV in the requested layout."""
    validate_format(fmt)
    mid = np.column_stack([sample.mid_y, sample.mid_x])
    spr = np.column_stack([sample.spr_y, sample.spr_x])
    cells = np.empty((sample.n, 2 * mid.shape[1]))
    cells[:, 0::2], cells[:, 1::2] = (mid, spr) if fmt == FORMAT_MIDSPR else (mid - spr, mid + spr)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(expected_header(sample.k, fmt))
        writer.writerows([repr(c) for c in row] for row in cells.tolist())
