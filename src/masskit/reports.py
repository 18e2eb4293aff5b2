"""Deterministic report files: canonical JSON, JSON lines and CSV tables.

Byte-identical output for identical input is a hard invariant of the
command layer.  JSON is dumped with sorted keys and fixed indentation,
every CSV number goes through one %.12g format, and each file lands via
write-to-temporary plus atomic rename.  The run ledger, and the one field
exempt from the invariant (run_manifest.json's wall_clock), live in `cli`.
"""
from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .errors import InternalFault

CSV_FORMAT = "%.12g"


def to_plain(obj):
    """Recursive numpy-to-builtin conversion for JSON emission."""
    if isinstance(obj, dict):
        return {str(k): to_plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return to_plain(obj.tolist())
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def canonical_json(obj):
    """Sorted keys, two-space indent, trailing newline; non-finite refused."""
    try:
        text = json.dumps(to_plain(obj), sort_keys=True, indent=2,
                          allow_nan=False)
    except ValueError as exc:
        raise InternalFault("report contains a non-finite number: %s" % exc)
    return text + "\n"


def write_bytes(path, data):
    """Write-then-rename so readers never observe a partial file."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".masskit-",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_text(path, text):
    write_bytes(path, text.encode("utf-8"))


def write_json(path, obj):
    write_text(path, canonical_json(obj))


def write_json_lines(path, records):
    """One compact sorted-key JSON object per line."""
    lines = []
    for rec in records:
        try:
            lines.append(json.dumps(to_plain(rec), sort_keys=True,
                                    separators=(",", ":"), allow_nan=False))
        except ValueError as exc:
            raise InternalFault("log record contains a non-finite number: %s"
                               % exc)
    write_text(path, "\n".join(lines) + "\n")


def csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    return CSV_FORMAT % float(value)


def write_csv(path, header, rows):
    """Header row plus %.12g-formatted data rows, newline-terminated."""
    lines = [",".join(str(h) for h in header)]
    width = len(lines[0].split(","))
    for row in rows:
        cells = [csv_cell(c) for c in row]
        if len(cells) != width:
            raise InternalFault("csv row width %d != header width %d"
                                % (len(cells), width))
        lines.append(",".join(cells))
    write_text(path, "\n".join(lines) + "\n")
