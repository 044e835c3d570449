"""The shared CSV table format: golden bytes of every writer, malformed
input rejected by every loader with path:line, and csv used in one
module only."""

import pathlib
import re

import numpy as np
import pytest

from actkit import tables
from actkit.composites import save_predictions_csv
from actkit.corpus import (AttributeVocab, WeightMatrix, load_vocab,
                           load_weights_csv, save_vocab, save_weights_csv)
from actkit.posefeat import (PARTS, JointTrackSet, load_tracks_csv,
                             save_tracks_csv)
from actkit.psinfer import (HandHypothesisSet, load_hand_hypotheses_csv,
                            load_placements_csv, save_hand_hypotheses_csv,
                            save_placements_csv)
from actkit.temporal import (Detection, load_detections_csv,
                             load_segments_jsonl, save_detections_csv)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "actkit"

# ---------------------------------------------------------------------------
# golden bytes: what every writer puts on disk for a small fixed input

_TRACK_LINES = [
    "frame,part,x,y",
    "7,head,0.333333333,0.666666667", "7,torso,1.66666667,2",
    "7,r_shoulder,3,3.33333333", "7,l_shoulder,4.33333333,4.66666667",
    "7,r_elbow,5.66666667,6", "7,l_elbow,7,7.33333333",
    "7,r_wrist,8.33333333,8.66666667", "7,l_wrist,9.66666667,10",
    "7,r_hand,11,11.3333333", "7,l_hand,12.3333333,12.6666667",
    "8,head,1,1.33333333", "8,torso,2.33333333,2.66666667",
    "8,r_shoulder,3.66666667,4", "8,l_shoulder,5,5.33333333",
    "8,r_elbow,6.33333333,6.66666667", "8,l_elbow,7.66666667,8",
    "8,r_wrist,9,9.33333333", "8,l_wrist,10.3333333,10.6666667",
    "8,r_hand,11.6666667,12", "8,l_hand,13,13.3333333",
]

GOLDEN = {
    "detections": (
        save_detections_csv,
        lambda: [Detection("v1", "wash", 0, 29, 0.5),
                 Detection("v,2", "cut board", 6, 35, -1 / 3)],
        b'video,attribute,start,end,score\r\nv1,wash,0,29,0.5\r\n'
        b'"v,2",cut board,6,35,-0.333333333\r\n'),
    "hand_hypotheses": (
        save_hand_hypotheses_csv,
        lambda: HandHypothesisSet([[1.5, 2], [3, 1 / 3]], [0.5, -0.25]),
        b'x,y,score\r\n1.5,2,0.5\r\n3,0.333333333,-0.25\r\n'),
    "placements": (
        save_placements_csv,
        lambda: {"torso": (3, 4), "head": (np.int64(3), 1)},
        b'part,x,y\r\ntorso,3,4\r\nhead,3,1\r\n'),
    "tracks": (
        save_tracks_csv,
        lambda: JointTrackSet((np.arange(40.0).reshape(10, 2, 2) + 1) / 3,
                              first_frame=7),
        ("\r\n".join(_TRACK_LINES) + "\r\n").encode()),
    "weights": (
        save_weights_csv,
        lambda: WeightMatrix([[1 / 3, 2 / 3], [0, 1e-12]], ("c0", "c1"),
                             ("wash", "cut board")),
        b'composite,wash,cut board\r\nc0,0.333333333,0.666666667\r\n'
        b'c1,0,1e-12\r\n'),
    "vocab": (
        save_vocab,
        lambda: AttributeVocab.from_pairs([("wash", "activity"),
                                           ("Cut-Board", "object")]),
        b'wash,activity\r\ncut board,object\r\n'),
    "predictions": (
        save_predictions_csv,
        lambda: [("seq2", "c0", 0.25), ("seq1", "c1", np.float32(-0.1)),
                 ("seq1", "c0", 1)],
        b'sequence,composite,score\r\nseq1,c0,1\r\n'
        b'seq1,c1,-0.100000001\r\nseq2,c0,0.25\r\n'),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_writer_golden_bytes(tmp_path, name):
    save, make, want = GOLDEN[name]
    path = tmp_path / f"{name}.csv"
    save(make(), path)
    assert path.read_bytes() == want


# ---------------------------------------------------------------------------
# malformed input: every loader raises ValueError naming path:line

# loader, header line (None: headerless), good rows, a row with a cell
# that does not parse, and a row repeating a key (None: rows have no key)
LOADERS = {
    "detections": (load_detections_csv, "video,attribute,start,end,score",
                   ["v,a,0,9,0.5", "v,a,5,14,0.25"], "v,a,zero,9,0.5",
                   None),
    "hand_hypotheses": (load_hand_hypotheses_csv, "x,y,score",
                        ["1,2,0.5", "3,4,0.25"], "1,two,0.5", None),
    "placements": (load_placements_csv, "part,x,y",
                   ["torso,3,4", "head,3,1"], "neck,3.5,1", "torso,5,6"),
    "tracks": (load_tracks_csv, "frame,part,x,y",
               [f"0,{part},1.5,2" for part in PARTS], "1,head,1.5,y",
               "0,torso,7,7"),
    "weights": (load_weights_csv, "composite,wash,cut",
                ["c0,0.5,0.5", "c1,1,0"], "c2,0.5,half", "c0,0,1"),
    # labels are normalized before the key check
    "vocab": (load_vocab, None, ["wash,activity", "Cut,object"],
              "stir,verb", "WASH,activity"),
}

# rows whose cells parse as floats but hold values the table forbids
BAD_VALUES = {
    "weights": [("c2,nan,0.5", "non-finite value 'nan'"),
                ("c2,0.5,inf", "non-finite value 'inf'"),
                ("c2,-inf,0.5", "non-finite value '-inf'"),
                ("c2,0.5,-0.25", "negative weight '-0.25'")],
    "tracks": [("1,head,nan,2", "non-finite value 'nan'"),
               ("1,head,1.5,inf", "non-finite value 'inf'"),
               ("1,head,-inf,2", "non-finite value '-inf'")],
}


def _malformed_cases():
    for name, (load, header, rows, bad_cell, dup) in LOADERS.items():
        head = [header] if header else []
        first = rows[0].split(",")
        cases = {
            "short row": (head + rows + [",".join(first[:-1])], "expected"),
            "long row": (head + rows + [rows[0] + ",1"], "expected"),
            "unparsable cell": (head + rows + [bad_cell], ""),
        }
        if header:
            cases["wrong header"] = (["bogus" + header[1:]] + rows,
                                     "expected header")
            cases["missing header"] = (rows, "expected header")
        if dup:
            cases["duplicate key"] = (head + rows + [dup], "duplicate")
        for i, (row, words) in enumerate(BAD_VALUES.get(name, ())):
            cases[f"bad value {i}"] = (head + rows + [row], words)
        for case, (lines, words) in cases.items():
            bad_line = 1 if "header" in case else len(lines)
            yield pytest.param(load, head + rows, lines, bad_line, words,
                               id=f"{name}-{case}")


@pytest.mark.parametrize("load, good, lines, bad_line, words",
                         _malformed_cases())
def test_loader_rejects_malformed_row_by_path_and_line(
        tmp_path, load, good, lines, bad_line, words):
    path = tmp_path / "table.csv"
    path.write_text("\n".join(good) + "\n\n")       # blank rows are skipped
    load(path)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="^" + re.escape(
            f"{path}:{bad_line}: {words}")):
        load(path)


@pytest.mark.parametrize("name", [n for n in LOADERS if LOADERS[n][1]])
def test_loader_rejects_empty_table_naming_path(tmp_path, name):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: ")):
        LOADERS[name][0](path)


def test_duplicate_key_names_both_lines(tmp_path):
    path = tmp_path / "parts.csv"
    path.write_text("part,x,y\ntorso,3,4\n\nhead,3,1\ntorso,5,6\n")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}:5: duplicate torso (first on line 2)")):
        load_placements_csv(path)


def test_read_table_open_ended_columns(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("id,a,b,c\nr0,1,2,3\n")
    assert tables.read_table(path, (str, int, ...), ("id",)) == (
        ["id", "a", "b", "c"], [("r0", 1, 2, 3)])
    path.write_text("id\nr0\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:1: expected 2 ")):
        tables.read_table(path, (str, int, ...), ("id",))


@pytest.mark.parametrize("line, words", [
    ("not json", "Expecting value"),
    ("[1]", "expected a JSON object, got list"),
    ('{"start": 0}', "missing fields ['end']"),
    ('{"start": "zero", "end": 5}', "invalid literal"),
])
def test_segments_bad_line_names_file_and_line(tmp_path, line, words):
    path = tmp_path / "segs.jsonl"
    path.write_text('{"start": 0, "end": 9}\n\n' + line + "\n")
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}:3: ")) as err:
        load_segments_jsonl(path)
    assert words in str(err.value)


def test_csv_is_imported_by_tables_only():
    users = sorted(p.name for p in SRC.glob("*.py")
                   if re.search(r"^\s*(import csv|from csv import)",
                                p.read_text(encoding="utf-8"), re.M))
    assert users == ["tables.py"]
