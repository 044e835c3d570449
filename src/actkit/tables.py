"""The table formats behind every load_*/save_* table of the package,
and the error boundary of every loader.

Tables are UTF-8 CSV written by csv.writer; float cells, numpy floats
included, carry 9 significant digits and other cells are written as
they are.  The readers skip blank lines and raise ValueError prefixed
with path:line for every malformed row.

Every file loader of the package is wrapped in names_file: whatever
goes wrong while it reads its input is a ValueError whose message
starts with the file's path (tables and JSON lines add the line), and
a file that cannot be opened is the OSError open raised.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import zipfile

import numpy as np

_FLOATS = (float, np.floating)
_LOAD_ERRORS = (ValueError, TypeError, KeyError, EOFError, zipfile.BadZipFile)


def names_file(load):
    """Decorate a loader load(path, ...) so that every error its input
    causes names the file: a ValueError, TypeError, KeyError (shown by
    its key), EOFError or BadZipFile is raised again as ValueError
    prefixed with path, unless its message starts with path already
    (path:line, or a file inside a path directory).  OSError passes."""
    @functools.wraps(load)
    def loader(path, *args, **kwargs):
        try:
            return load(path, *args, **kwargs)
        except _LOAD_ERRORS as exc:
            name = f"{path}"
            msg = str(exc.args[0] if isinstance(exc, KeyError) and exc.args
                      else exc)
            if not msg.startswith(name):
                raise ValueError(f"{name}: {msg}") from exc
            if not isinstance(exc, ValueError):
                raise ValueError(msg) from exc
            raise
    return loader


def write_table(path, rows, header=None) -> None:
    """Write equally wide rows of cells as a CSV table, after header if
    one is given."""
    # format column by column: one comprehension per column, not per row
    cols = [[f"{c:.9g}" if isinstance(c, _FLOATS) else c for c in col]
            for col in zip(*rows, strict=True)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        writer.writerows(zip(*cols))


def read_table(path, types, header=None, key=0):
    """Read a CSV table; returns (header row or None, data rows as tuples).

    types holds one converter per column; a trailing ... repeats the one
    before it for any further columns.  When header is given the first
    row is the header and must begin with those names.  The first row
    must fit types and every row must be as wide as the first.  The
    first key cells of a row, converted, may not repeat.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        recs = [(reader.line_num, rec) for rec in reader if rec]
    if not recs:
        if header is not None:
            raise ValueError(f"{path}: no header, expected {','.join(header)}")
        return None, []
    ln, first = recs[0]
    if header is not None and first[:len(header)] != list(header):
        raise ValueError(f"{path}:{ln}: expected header {','.join(header)}, "
                         f"got {','.join(first)}")
    open_ended = types[-1] is ...
    fixed = tuple(types[:-1] if open_ended else types)
    extra = len(first) - len(fixed)
    if extra < 0 or (extra and not open_ended):
        raise ValueError(f"{path}:{ln}: expected {len(fixed)} columns, "
                         f"got {len(first)}")
    convs = fixed + fixed[-1:] * extra
    names = recs.pop(0)[1] if header is not None else None
    for ln, rec in recs:
        if len(rec) != len(convs):
            raise ValueError(f"{path}:{ln}: expected {len(convs)} cells, "
                             f"got {len(rec)}")
    # convert column by column; only a failure walks the rows for its line
    try:
        cols = [list(map(f, col))
                for f, col in zip(convs, zip(*[rec for _, rec in recs]))]
    except ValueError:
        for ln, rec in recs:
            try:
                for f, c in zip(convs, rec):
                    f(c)
            except ValueError as exc:
                raise ValueError(f"{path}:{ln}: {exc}") from None
        raise
    keys = list(zip(*cols[:key]))
    if len(set(keys)) < len(keys):
        seen = {}
        for (ln, _), k in zip(recs, keys):
            if seen.setdefault(k, ln) != ln:
                raise ValueError(f"{path}:{ln}: duplicate "
                                 f"{','.join(map(str, k))} (first on line "
                                 f"{seen[k]})")
    return names, list(zip(*cols))


def finite_float(cell) -> float:
    """read_table and argparse converter for a float that must be finite."""
    v = float(cell)
    if not math.isfinite(v):
        raise ValueError(f"non-finite value {cell!r}")
    return v


def read_json_lines(path, fields):
    """Yield (line number, object) for every non-blank line of a JSON
    lines file; every object must hold fields."""
    fields = set(fields)
    with open(path, encoding="utf-8") as fh:
        for ln, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{ln}: {exc}") from None
            if not isinstance(rec, dict):
                raise ValueError(f"{path}:{ln}: expected a JSON object, "
                                 f"got {type(rec).__name__}")
            missing = fields - rec.keys()
            if missing:
                raise ValueError(f"{path}:{ln}: missing fields {sorted(missing)}")
            yield ln, rec


@names_file
def read_npy(path) -> np.ndarray:
    """The array of a .npy file; a .npz archive in its place raises
    ValueError."""
    with open(path, "rb") as fh:
        data = np.load(fh)
        if not isinstance(data, np.ndarray):
            raise ValueError("expected a .npy array, got a .npz archive")
    return data
