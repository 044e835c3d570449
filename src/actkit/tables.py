"""The table formats behind every load_*/save_* table of the package,
and the error boundary of every loader.

Tables are UTF-8 CSV written by csv.writer; float cells, numpy floats
included, carry 9 significant digits and other cells are written as
they are.  The readers skip blank lines and raise ValueError prefixed
with path:line for every malformed row.

JSON documents, JSON lines and the JSON strings of .npz files are
decoded here, and their records checked against one field -> Kind map.

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
import operator
import re
import reprlib
import zipfile
from typing import Callable, NamedTuple

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


class Kind(NamedTuple):
    """The JSON type of a record field: what names it in errors, fits
    says if every value of a list has it; fields not required may be
    left out."""
    what: str
    fits: Callable[[list], bool]
    required: bool = True


def list_of(item: Kind, what: str, length: int | None = None) -> Kind:
    """The kind of lists of item values, each length long if given."""
    return Kind(what, lambda vs: set(map(type, vs)) <= {list} and (
        length is None or set(map(len, vs)) <= {length}) and item.fits(
        [v for value in vs for v in value]))


def one_of(*values) -> Kind:
    """The kind whose values are the given ones alone."""
    types, allowed = set(map(type, values)), set(values)
    return Kind("one of " + ", ".join(map(repr, values)),
                lambda vs: set(map(type, vs)) <= types and set(vs) <= allowed)


# JSON integers only, not 1.0 or true; a number may be NaN
INT = Kind("an integer", lambda vs: set(map(type, vs)) <= {int})
NUMBER = Kind("a number", lambda vs: set(map(type, vs)) <= {int, float})
STR = Kind("a string", lambda vs: set(map(type, vs)) <= {str})
STRS = list_of(STR, "a list of strings")
INT_PAIRS = list_of(list_of(INT, "", 2), "a list of [integer, integer] pairs")
STR_PAIRS = list_of(list_of(STR, "", 2), "a list of [string, string] pairs")


def check_records(records, fields, where, span=None) -> list:
    """records, each a JSON object with a value of its kind for every
    field of fields (name -> Kind) and, with span = (start, end), an end
    field not below the start field.  Checked column by column, like
    read_table's cells; a ValueError "where: ..." names the first rule
    broken, which for one record says what is wrong with it."""
    others = set(map(type, records)) - {dict}
    if others:
        raise ValueError(f"{where}: expected a JSON object, got "
                         f"{others.pop().__name__}")
    cols = {name: [rec[name] for rec in records if name in rec]
            for name in fields}
    missing = [name for name, kind in fields.items()
               if kind.required and len(cols[name]) < len(records)]
    if missing:
        raise ValueError(f"{where}: missing fields {sorted(missing)}")
    for name, kind in fields.items():
        if not kind.fits(cols[name]):
            raise ValueError(f"{where}: {name} must be {kind.what}, got "
                             f"{reprlib.repr(cols[name][0])}")
    if span and not all(map(operator.le, cols[span[0]], cols[span[1]])):
        raise ValueError(f"{where}: {span[1]} before {span[0]}")
    return records


# a "}", a comma and a "{" within one line
_TWO_OBJECTS = re.compile(r"\}[ \t]*,[ \t]*\{")


def _one_parse(path) -> list:
    """The values of a JSON lines file from one json.loads of its
    non-blank lines joined into an array; ValueError unless that yields
    one value per line and _TWO_OBJECTS matches no line, for then every
    top-level comma is a join, between a "}" and a "{" of two lines."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    lines = [line for line in text.split("\n") if line.strip()]
    records = json.loads("[" + ",".join(lines) + "]")
    if len(records) != len(lines) or _TWO_OBJECTS.search(text):
        raise ValueError("not one JSON value per line")
    return records


def read_json_lines(path, fields, span=None) -> list:
    """The records of a JSON lines file, one per non-blank line: one parse
    and one check_records of them all, and only for a file that fails,
    check_records([rec], fields, "path:line", span) line by line."""
    try:
        return check_records(_one_parse(path), fields, path, span)
    except ValueError:
        records = []
    with open(path, encoding="utf-8") as fh:
        for ln, line in enumerate(fh, 1):
            if line.strip():
                where = f"{path}:{ln}"
                records += check_records([parse_json(line, where)], fields,
                                         where, span)
    return records


def parse_json(text, where, fields=None):
    """Decode the JSON document text; errors start with where, the file
    or file entry it comes from.  With fields it is a list of records
    that pass check_records; the first bad one is named "entry i"."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where}: invalid JSON: {exc}") from None
    if fields is not None:
        if type(doc) is not list:
            raise ValueError(f"{where}: expected a JSON list, got "
                             f"{type(doc).__name__}")
        try:
            check_records(doc, fields, where)
        except ValueError:
            for i, rec in enumerate(doc):
                check_records([rec], fields, f"{where}: entry {i}")
    return doc


@names_file
def read_json(path, fields=None):
    """parse_json of the UTF-8 file path."""
    with open(path, encoding="utf-8") as fh:
        return parse_json(fh.read(), path, fields)


@names_file
def read_npy(path) -> np.ndarray:
    """The array of a .npy file; a .npz archive in its place raises
    ValueError."""
    with open(path, "rb") as fh:
        data = np.load(fh)
        if not isinstance(data, np.ndarray):
            raise ValueError("expected a .npy array, got a .npz archive")
    return data
