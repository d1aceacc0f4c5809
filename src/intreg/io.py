"""CSV ingestion and serialization of interval samples.

Two column layouts are supported: mid/spr pairs (``mid_y, spr_y, mid_x1,
spr_x1, ...``) and endpoint pairs (``inf_y, sup_y, inf_x1, sup_x1, ...``).
Floats are written with full precision, so writing and re-ingesting a sample
reproduces it exactly.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .errors import EmptyFile, InvertedInterval, MalformedHeader, NonNumericCell
from .intervals import IntervalSample

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
    header = [f"{pre[0]}_y", f"{pre[1]}_y"]
    for i in range(1, k + 1):
        header += [f"{pre[0]}_x{i}", f"{pre[1]}_x{i}"]
    return header


def ingest(path, fmt: str = FORMAT_MIDSPR) -> IntervalSample:
    """Read an interval sample from a headed CSV file."""
    validate_format(fmt)
    path = Path(path)
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if any(cell.strip() for cell in row)]
    if not rows:
        raise EmptyFile(f"{path} has no content")
    header = [cell.strip() for cell in rows[0]]
    if len(header) < 4 or len(header) % 2 != 0:
        raise MalformedHeader(f"expected pairs of columns for y and k regressors, got {header}")
    k = len(header) // 2 - 1
    if header != expected_header(k, fmt):
        raise MalformedHeader(f"expected header {expected_header(k, fmt)}, got {header}")
    data = rows[1:]
    if not data:
        raise EmptyFile(f"{path} has a header but no data rows")
    variables = ["y"] + [f"x{i}" for i in range(1, k + 1)]
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
    first, second = values[:, 0::2], values[:, 1::2]
    if fmt == FORMAT_MIDSPR:
        mid, spr = first, second
        for j in range(len(data)):
            for v in range(k + 1):
                if spr[j, v] < 0.0:
                    raise InvertedInterval(j + 1, variables[v], f"negative spread {spr[j, v]}")
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
            raise InvertedInterval(int(j) + 1, variables[v], detail)
    return IntervalSample(mid[:, 0], spr[:, 0], mid[:, 1:], spr[:, 1:])


def write_sample(sample: IntervalSample, path, fmt: str = FORMAT_MIDSPR) -> None:
    """Write an interval sample as CSV in the requested layout."""
    validate_format(fmt)
    k = sample.k
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(expected_header(k, fmt))
        for j in range(sample.n):
            if fmt == FORMAT_MIDSPR:
                cells = [sample.mid_y[j], sample.spr_y[j]]
                for i in range(k):
                    cells += [sample.mid_x[j, i], sample.spr_x[j, i]]
            else:
                cells = [sample.mid_y[j] - sample.spr_y[j], sample.mid_y[j] + sample.spr_y[j]]
                for i in range(k):
                    cells += [
                        sample.mid_x[j, i] - sample.spr_x[j, i],
                        sample.mid_x[j, i] + sample.spr_x[j, i],
                    ]
            writer.writerow([repr(float(c)) for c in cells])
