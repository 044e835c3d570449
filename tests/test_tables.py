"""The shared CSV table format: golden bytes of every writer, malformed
input rejected by every loader with path:line, and csv used in one
module only.  The error boundary: every loader's error names its file,
on the command line too, and no loader goes without it.  JSON records:
every field of every JSON record format is type-checked, and JSON is
decoded in tables only."""

import importlib
import inspect
import json
import pathlib
import pkgutil
import re
import shutil

import numpy as np
import pytest

import actkit
from actkit import cli, experiment, tables
from actkit.attributes import (TrainConfig, load_annotations,
                               load_models_npz, save_annotations,
                               save_models_npz, train_linear_ova)
from actkit.composites import (PstConfig, load_pst_config,
                               save_pst_config, save_predictions_csv)
from actkit.corpus import (AttributeVocab, ScriptCorpus, WeightMatrix,
                           load_lexicon, load_script_corpus, load_vocab,
                           load_weights_csv, save_script_corpus, save_vocab,
                           save_weights_csv)
from actkit.posefeat import (PARTS, JointTrackSet, build_codebook_set,
                             load_codebook_set, load_tracks_csv,
                             save_codebook_set, save_tracks_csv)
from actkit.psinfer import (HandHypothesisSet, load_grids,
                            load_hand_hypotheses_csv, load_placements_csv,
                            save_hand_hypotheses_csv, save_placements_csv)
from actkit.synth import SyntheticConfig, gen_synthetic, load_bundle, \
    save_bundle
from actkit.temporal import (Detection, Segment, load_detections_csv,
                             load_segments_jsonl, save_detections_csv,
                             save_segments_jsonl)

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
    ('{"start": "zero", "end": 5}', "start must be an integer, got 'zero'"),
])
def test_segments_bad_line_names_file_and_line(tmp_path, line, words):
    path = tmp_path / "segs.jsonl"
    path.write_text('{"start": 0, "end": 9}\n\n' + line + "\n")
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}:3: ")) as err:
        load_segments_jsonl(path)
    assert words in str(err.value)


def test_segments_one_parse_equals_line_walk(tmp_path, monkeypatch):
    segs = [Segment(10 * i, 10 * i + 9, i / 3) for i in range(30)]
    path = tmp_path / "segs.jsonl"
    save_segments_jsonl(segs, path)
    lines = path.read_text().splitlines(keepends=True)
    # blank lines anywhere, whitespace around records, CRLF endings, and
    # a line without its optional score
    path.write_text("\n \t\n" + "".join(lines[:15]) + "\n\n"
                    + "".join(" " + ln.rstrip("\n") + "\t\r\n"
                              for ln in lines[15:]) + '{"start": 300, '
                    '"end": 309}\n  \n')
    assert len(tables._one_parse(path)) == 31
    fast = load_segments_jsonl(path)

    def decline(path):
        raise ValueError("declined")
    monkeypatch.setattr(tables, "_one_parse", decline)
    assert load_segments_jsonl(path) == fast == segs + [Segment(300, 309)]


def test_csv_is_imported_by_tables_only():
    users = sorted(p.name for p in SRC.glob("*.py")
                   if re.search(r"^\s*(import csv|from csv import)",
                                p.read_text(encoding="utf-8"), re.M))
    assert users == ["tables.py"]


def test_json_is_decoded_by_tables_only():
    decode = re.compile(r"\bjson\.loads?\(|^\s*from json import", re.M)
    users = {p.name: len(decode.findall(p.read_text(encoding="utf-8")))
             for p in SRC.glob("*.py")}
    assert sorted(name for name, n in users.items() if n) == \
        ["experiment.py", "tables.py"]
    # a config error is a ConfigError (exit 1), not a loader's ValueError
    assert users["experiment.py"] == len(decode.findall(
        inspect.getsource(experiment.load_config)))


# ---------------------------------------------------------------------------
# JSON record fields: every field of every JSON record format is checked
# for its JSON type, and the error names the file, the line or entry and
# the field

def _json_lines(make, load):
    """A JSON lines format: two records from make(), the second changed."""
    def write(tmp_path, change):
        recs = [make(0), make(1)]
        change(recs[1])
        path = tmp_path / "records.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in recs))
        return lambda: load(path), f"{path}:2: "
    return write


def _sequences_entry(tmp_path, change):
    _bundle(tmp_path)
    path = tmp_path / "sequences.json"
    meta = json.loads(path.read_text())
    change(meta[0])
    path.write_text(json.dumps(meta))
    return lambda: load_bundle(tmp_path), f"{path}: entry 0: "


def _codebook_entry(tmp_path, change):
    path = tmp_path / "cb.npz"
    _codebooks(path)
    with np.load(path) as data:
        header = json.loads(str(data["header"]))
    change(header[0])
    _npz(header=json.dumps(header))(path)
    return lambda: load_codebook_set(path), f"{path}: header: entry 0: "


def _model_strings(tmp_path, change):
    """labels and skipped, the JSON strings of a model file, as a record."""
    path = tmp_path / "m.npz"
    _models(path)
    rec = {"labels": ["a0"], "skipped": []}
    change(rec)
    _npz(**{key: json.dumps(rec[key]) if key in rec else None
            for key in ("labels", "skipped")})(path)
    return lambda: load_models_npz(path), f"{path}: "


_INT, _STR = ("int", ["20", 1.9, 0.0, True]), ("str", [5])
# format writer, its fields with the kind each must have, and the values
# each kind rejects ("missing": the field is left out)
JSON_RECORDS = {
    "annotations": (_json_lines(lambda i: {
        "video": "v", "start_frame": 30 * i, "end_frame": 30 * i + 29,
        "attributes": ["a0"], "composite": "c"}, load_annotations), {
        "video": _STR, "start_frame": _INT, "end_frame": _INT,
        "composite": _STR, "attributes": ("strs", [[5], "a0"])}),
    "segments": (_json_lines(lambda i: {
        "start": 10 * i, "end": 10 * i + 9, "score": 0.5},
        load_segments_jsonl), {
        "start": _INT, "end": _INT,
        "score": ("optional number", ["0.5", True, None])}),
    "sequences": (_sequences_entry, {
        "sequence_id": ("str", [5, ["x"]]), "composite": _STR,
        "split": ("split", ["tset", 5]), "offset": _INT,
        "num_intervals": ("int", ["10", 10.0, True]),
        "intervals": ("int pairs", [5, [[0, "29"]], [[1.9, 29]],
                                    [[0.0, 29]], [[True, 29]]])}),
    "codebook header": (_codebook_entry, {
        "length": _INT, "sub_feature": _STR, "dim": _INT, "size": _INT,
        "seed": ("int", ["0", 0.5, 0.0, True])}),
    "models": (_model_strings, {
        "labels": ("strs", [[5], "a0"]),
        "skipped": ("str pairs", [[["a0", 5]], [["a0"]], "a0"])}),
}


def _field_cases():
    for name, (write, fields) in JSON_RECORDS.items():
        for field, (kind, values) in fields.items():
            if not kind.startswith("optional"):
                yield pytest.param(name, field, "missing",
                                   id=f"{name}-{field}-missing")
            for value in values:
                yield pytest.param(name, field, value,
                                   id=f"{name}-{field}-{json.dumps(value)}")


@pytest.mark.parametrize("name, field, value", _field_cases())
def test_json_record_field_error_names_file_entry_and_field(
        tmp_path, name, field, value):
    write, _ = JSON_RECORDS[name]
    (tmp_path / "good").mkdir()
    load, _ = write(tmp_path / "good", lambda rec: None)
    load()
    load, where = write(tmp_path, lambda rec: rec.pop(field)
                        if value == "missing" else rec.update({field: value}))
    with pytest.raises(ValueError) as err:
        load()
    message = str(err.value)
    assert message.startswith(where) and field in message[len(where):], \
        message


@pytest.mark.parametrize("record", [
    {"start": 1.9, "end": 3}, {"start": True, "end": 7.99}])
def test_segment_misreads_name_start(tmp_path, record):
    path = tmp_path / "s.jsonl"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(ValueError, match="^" + re.escape(
            f"{path}:1: start must be an integer, got ")):
        load_segments_jsonl(path)


# ---------------------------------------------------------------------------
# the error boundary: whatever a loader's input does wrong, the ValueError
# starts with the file's path, and the command that reads it exits 2


def _models(path):
    """A model file over 3-bin histograms with the one label a0."""
    X = np.array([[1.0, 0.0, 0.0], [0.9, 0.1, 0.0],
                  [0.0, 1.0, 0.0], [0.1, 0.0, 0.9]])
    save_models_npz(train_linear_ova(X, [{"a0"}, {"a0"}, set(), set()],
                                     ("a0",), TrainConfig(epochs=50)), path)


def _annotations(path):
    save_annotations([{"video": "v", "start_frame": 0, "end_frame": 29,
                       "attributes": ["a0"], "composite": "c"}], path)


def _corpus(path):
    save_script_corpus(ScriptCorpus({"salad": [["wash the cucumber"]]}),
                       path)


def _codebooks(path):
    rng = np.random.default_rng(5)
    save_codebook_set(build_codebook_set({(20, "a"): rng.normal(
        size=(10, 2))}), path)


def _table(name):
    """The good rows of LOADERS[name] as a file writer."""
    _, header, rows, _, _ = LOADERS[name]
    return lambda path: path.write_text(
        "\n".join(([header] if header else []) + rows) + "\n")


def _empty(path):
    path.write_bytes(b"")


def _truncated(path):
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])


def _non_utf8(path):
    path.write_bytes(b"\xff" + path.read_bytes())


def _text(text):
    return lambda path: path.write_text(text)


def _npz(**arrays):
    """Rewrite an npz file with arrays replaced, or dropped where None."""
    def corrupt(path):
        with np.load(path) as data:
            out = {key: data[key] for key in data.files}
        for key, value in arrays.items():
            if value is None:
                del out[key]
            else:
                out[key] = np.asarray(value)
        np.savez(path, **out)
    return corrupt


def _npy(value):
    def corrupt(path):
        with open(path, "wb") as fh:
            np.save(fh, value)
    return corrupt


def _as_npz(path):
    with open(path, "wb") as fh:
        np.savez(fh, a=np.ones((2, 3, 3)))


def _inside(name, corrupt):
    """Corrupt the file name inside a directory; the loader's error must
    name that file."""
    def corrupt_inside(path):
        corrupt(path / name)
    corrupt_inside.file = name
    return corrupt_inside


def _bundle(path):
    save_bundle(gen_synthetic(SyntheticConfig(seed=4, t_range=(3, 4))), path)


def _ok(tmp_path, name):
    """A good input for loader name in tmp_path, for the command lines."""
    path = tmp_path / f"ok_{BOUNDARY[name][1]}"
    BOUNDARY[name][2](path)
    return str(path)


def _line(record, **fields):
    return _text(json.dumps({**record, **fields}) + "\n")


_ANNOTATION = {"video": "v", "start_frame": 0, "end_frame": 29,
               "attributes": ["a0"], "composite": "c"}

# loader, file name, good file writer, command line reading the file
# (None: no command reads it alone) with its exit code, corruptions
BOUNDARY = {
    "models": (load_models_npz, "m.npz", _models, lambda t, p: (
        ["detect", "--counts", _ok(t, "counts"), "--models", p,
         "--attribute", "a0", "--output", str(t / "d.csv")], 2), {
        "empty": _empty, "truncated": _truncated,
        "labels a number": _npz(labels="5"),
        "labels a string": _npz(labels='"a0"'),
        "npy archive": _npy(np.ones(3)),
        "skipped not pairs": _npz(skipped="[1]"),
        "skipped a string": _npz(skipped='["ab"]'),
        "skipped pair of one": _npz(skipped='[["a0"]]'),
        "skipped reason a number": _npz(skipped='[["a0", 1]]'),
        "skipped an object": _npz(skipped='{"a0": "r"}'),
        "config a list": _npz(config="[1]"),
        "labels missing": _npz(labels=None),
        "feature_dim missing": _npz(feature_dim=None),
        "w_0 wrong shape": _npz(w_0=np.ones(2)),
        "w_0 NaN": _npz(w_0=np.full(3, np.nan))}),
    "counts": (cli._load_integral, "c.npy", _npy(np.ones((60, 3))),
               lambda t, p: (["detect", "--counts", p, "--models",
                              _ok(t, "models"), "--attribute", "a0",
                              "--output", str(t / "d.csv")], 2), {
        "empty": _empty, "truncated": _truncated, "npz": _as_npz,
        "wrong shape": _npy(np.ones(60)),
        "NaN": _npy(np.full((60, 3), np.nan))}),
    "grids": (load_grids, "g.npy", _npy(np.ones((10, 4, 4))), lambda t, p: (
        ["pose-infer", "--grids", p, "--output", str(t / "p.csv"),
         "--scale", "0.05"], 2), {
        "empty": _empty, "truncated": _truncated, "npz": _as_npz,
        "wrong shape": _npy(np.ones((4, 4))),
        "NaN": _npy(np.full((10, 4, 4), np.nan))}),
    "annotations": (load_annotations, "a.jsonl", _line(_ANNOTATION),
                    lambda t, p: (["eval", "--detections",
                                   _ok(t, "detections"), "--annotations", p,
                                   "--output", str(t / "r.json")], 2), {
        "non-UTF-8": _non_utf8, "not an object": _text("[1]\n"),
        "attributes a string": _line(_ANNOTATION, attributes="ab"),
        "attribute not a string": _line(_ANNOTATION, attributes=[1]),
        "end_frame a string": _line(_ANNOTATION, end_frame="x"),
        "start_frame a bool": _line(_ANNOTATION, start_frame=True),
        "start_frame NaN": _line(_ANNOTATION, start_frame=float("nan")),
        "video a number": _line(_ANNOTATION, video=5),
        "composite missing": _text('{"video": "v"}\n')}),
    "detections": (load_detections_csv, "d.csv", _table("detections"),
                   lambda t, p: (["eval", "--detections", p,
                                  "--annotations", _ok(t, "annotations"),
                                  "--output", str(t / "r.json")], 2), {
        "non-UTF-8": _non_utf8, "empty": _empty,
        "NaN": _text("video,attribute,start,end,score\nv,a,0,9,nan\n"),
        "backwards": _text("video,attribute,start,end,score\nv,a,9,0,1\n")}),
    "corpus": (load_script_corpus, "corpus", _corpus, lambda t, p: (
        ["mine-scripts", "--corpus", p, "--vocab", _ok(t, "vocab"),
         "--output", str(t / "w.csv")], 2), {
        "no scenarios": lambda p: shutil.rmtree(p / "salad"),
        "empty sequence": _inside("salad/seq000.txt", _empty),
        "non-UTF-8 sequence": _inside("salad/seq000.txt", _non_utf8)}),
    "vocab": (load_vocab, "v.csv", _table("vocab"), lambda t, p: (
        ["mine-scripts", "--corpus", _ok(t, "corpus"), "--vocab", p,
         "--output", str(t / "w.csv")], 2), {
        "non-UTF-8": _non_utf8, "unknown kind": _text("wash,verb\n")}),
    "lexicon": (load_lexicon, "lex.tsv", _text("wash\tverb\trinse\n"),
                lambda t, p: (["mine-scripts", "--corpus", _ok(t, "corpus"),
                               "--vocab", _ok(t, "vocab"), "--lexicon", p,
                               "--output", str(t / "w.csv")], 2), {
        "non-UTF-8": _non_utf8, "two fields": _text("wash\tverb\n")}),
    "bundle": (load_bundle, "bundle", _bundle, lambda t, p: (
        ["train-attributes", "--bundle", p, "--output", str(t / "m.npz")],
        2), {
        "config a list": _inside("config.json", _text("[1]")),
        "config non-UTF-8": _inside("config.json", _non_utf8),
        "sequences an object": _inside("sequences.json", _text("{}")),
        "intervals not lists": _inside("sequences.json", lambda p: p.write_text(
            json.dumps([{**m, "intervals": 5} for m in json.loads(
                p.read_text())]))),
        "observations empty": _inside("observations.npy", _empty),
        "observations truncated": _inside("observations.npy", _truncated),
        "observations an npz archive": _inside("observations.npy", _as_npz),
        "vocab non-UTF-8": _inside("vocab.csv", _non_utf8),
        "weights NaN": _inside("weights.csv", lambda p: p.write_text(
            re.sub(r",[0-9.e-]+\r?\n", ",nan\n", p.read_text(), count=1))),
        "annotations attributes a string": _inside(
            "annotations.jsonl", lambda p: p.write_text(p.read_text().replace(
                '"attributes": [', '"attributes": "ab", "x": [', 1)))}),
    "pst config": (load_pst_config, "pst.conf",
                   lambda p: save_pst_config(PstConfig(), p),
                   lambda t, p: (["classify-composites", "--bundle",
                                  str(t / "none"), "--output", str(t / "o"),
                                  "--mode", "pst", "--pst-config", p], 1), {
        "non-UTF-8": _non_utf8, "NaN alpha": _text("alpha = nan\n"),
        "k not an integer": _text("k = 1.5\n")}),
    "weights": (load_weights_csv, "w.csv", _table("weights"), None, {
        "empty": _empty, "non-UTF-8": _non_utf8,
        "no rows": _text("composite,wash\n")}),
    "tracks": (load_tracks_csv, "t.csv", _table("tracks"), None, {
        "truncated": _truncated, "non-UTF-8": _non_utf8,
        "missing part": _text("frame,part,x,y\n0,head,1,2\n")}),
    "hand hypotheses": (load_hand_hypotheses_csv, "h.csv",
                        _table("hand_hypotheses"), None, {
        "NaN": _text("x,y,score\n1,nan,0.5\n"), "non-UTF-8": _non_utf8}),
    "placements": (load_placements_csv, "pl.csv", _table("placements"),
                   None, {"non-UTF-8": _non_utf8,
                          "float cell": _text("part,x,y\nhead,1.5,2\n")}),
    "segments": (load_segments_jsonl, "s.jsonl",
                 lambda p: save_segments_jsonl([Segment(0, 9, 0.5)], p),
                 None, {"non-UTF-8": _non_utf8, "not an object": _text("1\n"),
                        "NaN start": _text('{"start": NaN, "end": 1}\n')}),
    "codebooks": (load_codebook_set, "cb.npz", _codebooks, None, {
        "empty": _empty, "truncated": _truncated,
        "npy archive": _npy(np.ones(3)),
        "header not JSON": _npz(header="["),
        "header not a list": _npz(header='{"a": 1}'),
        "header missing": _npz(header=None),
        "entry not an object": _npz(header="[1]"),
        "entry lacks sub_feature": _npz(header=json.dumps(
            [{"length": 20, "dim": 2, "size": 4, "seed": 0}])),
        "size and dim not the centres'": _npz(header=json.dumps(
            [{"length": 20, "sub_feature": "a", "dim": 3, "size": 2,
              "seed": 0}])),
        "entry repeats a block": _npz(header=json.dumps(
            [{"length": 20, "sub_feature": "a", "dim": 2, "size": 4,
              "seed": 0}] * 2), centers_1=np.zeros((4, 2))),
        "centres missing": _npz(centers_0=None),
        "centres NaN": _npz(centers_0=np.full((4, 2), np.nan)),
        "centres not numbers": _npz(centers_0=np.full((4, 2), "a"))}),
}


def _boundary_cases(cli_only=False):
    for name, (load, fname, make, command, corrupt) in BOUNDARY.items():
        if cli_only and command is None:
            continue
        for case, fn in corrupt.items():
            yield pytest.param(name, fn, id=f"{name}-{case}")


@pytest.mark.parametrize("name, corrupt", _boundary_cases())
def test_loader_error_names_its_file(tmp_path, name, corrupt):
    load, fname, make, _, _ = BOUNDARY[name]
    path = tmp_path / fname
    make(path)
    load(path)
    corrupt(path)
    with pytest.raises(ValueError) as err:
        load(path)
    named = path / getattr(corrupt, "file", "")
    assert str(err.value).startswith(str(named)), str(err.value)


@pytest.mark.parametrize("intervals", [
    5, [5], [[0]], [[0, 29, 30]], [[0, "29"]], [[0.0, 29]], [[True, 29]],
    [{"start": 0, "end": 29}]], ids=json.dumps)
def test_bundle_intervals_error_names_sequence(tmp_path, intervals):
    _bundle(tmp_path)
    path = tmp_path / "sequences.json"
    meta = json.loads(path.read_text())
    meta[1]["intervals"] = intervals
    path.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=(
            f"^{re.escape(str(path))}: entry 1: intervals must be "
            r"a list of \[integer, integer\] pairs, got ")):
        load_bundle(tmp_path)


@pytest.mark.parametrize("name, corrupt", _boundary_cases(cli_only=True))
def test_command_error_names_the_file(tmp_path, capsys, name, corrupt):
    _, fname, make, command, _ = BOUNDARY[name]
    path = tmp_path / fname
    make(path)
    corrupt(path)
    argv, code = command(tmp_path, str(path))
    assert cli.main(argv) == code
    assert f"error: {path}" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(BOUNDARY))
def test_missing_file_is_an_os_error(tmp_path, name):
    with pytest.raises(OSError):
        BOUNDARY[name][0](tmp_path / "missing" / BOUNDARY[name][1])


def test_key_error_shows_its_key(tmp_path):
    @tables.names_file
    def load(path):
        return {}["labels"]

    with pytest.raises(ValueError, match=f"^{re.escape(str(tmp_path))}: "
                                         "labels$"):
        load(tmp_path)


def _is_boundary(fn):
    """fn is a loader wrapped by tables.names_file: every wrapper shares
    the code of the one inner function."""
    return getattr(fn, "__code__", None) is tables.names_file(len).__code__


def test_every_loader_sits_behind_the_boundary():
    unwrapped = []
    for info in pkgutil.iter_modules(actkit.__path__):
        module = importlib.import_module(f"actkit.{info.name}")
        for attr, fn in vars(module).items():
            if (attr.startswith("load_") and callable(fn)
                    and not _is_boundary(fn)):
                unwrapped.append(f"{info.name}.{attr}")
    assert unwrapped == ["experiment.load_config"]
    assert _is_boundary(cli._load_integral)
    # the benchmark's traced run wraps these two by module attribute
    from actkit import experiment
    assert _is_boundary(cli.load_models_npz)
    assert _is_boundary(experiment.load_bundle)
