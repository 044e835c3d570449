"""End-to-end output bytes as a contract.

The seeded CLI runs in RUNS must write exactly the files whose sha256
golden_manifest.json holds, at one and at two BLAS threads.  A
report.json is hashed with config.data and config.output removed, as
those hold absolute paths.  score and stack write scores bundles,
whose observations.npy holds the scores at full precision.  The CSV
tables carry 9 significant digits, so the same worker also saves
full-precision .npy arrays under arrays/ (see _write_arrays): the pose
chain, which no command runs, the raw integral table and interval
scores behind detect, segment and score, and the raw propagation table
behind the pst-fixed run.  One ulp anywhere in them
moves a hash.  The BLAS thread count is fixed when numpy loads, so
each thread count runs the list in a fresh interpreter, with this file
as the script:

    python tests/test_golden.py WORKDIR   run the list in WORKDIR (which
                                          must not exist) and print the
                                          hashes and the numpy, scipy
                                          and BLAS versions as JSON
    python tests/test_golden.py --write   run the list at one BLAS thread,
                                          print the moved, new and missing
                                          files against the committed
                                          manifest and rewrite it

A change that moves outputs on purpose rewrites the manifest and records
which files moved (the list --write prints) and why.  A numpy, scipy or
BLAS version other than the manifest's fails the test rather than
skipping it: check the outputs under the new versions, then rewrite the
manifest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

MANIFEST = Path(__file__).with_name("golden_manifest.json")
SEED = 7

RUN_JOBS = {
    "svm": {"data": "scores", "mode": "svm"},
    "nn": {"data": "scores", "mode": "nn"},
    "script": {"data": "scores", "mode": "script"},
    "nn-script": {"data": "scores", "mode": "nn-script"},
    "pst": {"data": "scores", "mode": "pst"},
    "pst-zero-shot": {"data": "scores", "mode": "pst-zero-shot"},
    "pst-fixed": {"data": "scores", "mode": "pst",
                  "pst": {"alpha": 0.9, "gamma": 0.5, "delta": 0.5, "k": 5}},
    "svm-base-context-segment": {"data": "features", "mode": "svm",
                                 "stack": "base+context",
                                 "segment_threshold": 0.9},
}

RUNS = (
    ["gen-synthetic", "--output", "scores", "--seed", str(SEED)],
    ["gen-synthetic", "--output", "features", "--seed", str(SEED),
     "--data-mode", "features"],
    ["mine-scripts", "--corpus", "scores/corpus", "--vocab",
     "scores/vocab.csv", "--output", "mined.csv"],
    ["mine-scripts", "--corpus", "scores/corpus", "--vocab",
     "scores/vocab.csv", "--output", "binarized.csv", "--binarize"],
    ["train-attributes", "--bundle", "features", "--output", "models.npz"],
    ["score", "--bundle", "features", "--models", "models.npz",
     "--output", "scored"],
    ["stack", "--bundle", "scores", "--mode", "context",
     "--output", "stack-context"],
    ["stack", "--bundle", "scores", "--mode", "cooccurrence",
     "--output", "stack-cooccurrence"],
    ["detect", "--counts", "counts.npy", "--models", "models.npz",
     "--attribute", "act00", "--output", "detections.csv"],
    ["segment", "--counts", "counts.npy", "--threshold", "0.9",
     "--output", "segments.jsonl"],
    ["pose-infer", "--grids", "grids.npy", "--output", "layout.csv",
     "--scale", "0.05"],
    ["pose-infer", "--grids", "grids.npy", "--output", "posteriors.npz",
     "--mode", "marginal", "--scale", "0.05"],
    *(["run", "--config", f"run-{name}.json"] for name in RUN_JOBS),
)


def versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}"}


def _write_inputs():
    """The seeded count stream, part grids and run configs."""
    rng = np.random.default_rng(SEED)
    # three 200-frame blocks of their own word rates over 32 bins, the
    # feature dimension of a default features bundle
    rates = np.repeat(rng.uniform(0.2, 3.0, (3, 32)), 200, axis=0)
    np.save("counts.npy", rng.poisson(rates).astype(float))
    np.save("grids.npy", rng.uniform(0.1, 1.0, (10, 12, 12)))
    for name, job in RUN_JOBS.items():
        with open(f"run-{name}.json", "w", encoding="utf-8") as fh:
            json.dump({**job, "output": f"run-{name}"}, fh, sort_keys=True)


def _pose_tracks(num_frames=360):
    """Seeded random walk with a static head and a right hand that sits
    on the right wrist for a stretch (a zero-length segment)."""
    from actkit.posefeat import PARTS, JointTrackSet

    rng = np.random.default_rng(SEED)
    start = rng.uniform(0, 100, (len(PARTS), 1, 2))
    steps = rng.normal(0, 2.0, (len(PARTS), num_frames - 1, 2))
    pos = np.concatenate([start, start + steps.cumsum(axis=1)], axis=1)
    pos[PARTS.index("head")] = pos[PARTS.index("head"), :1]
    pos[PARTS.index("r_hand"), 100:200] = pos[PARTS.index("r_wrist"), 100:200]
    return JointTrackSet(pos)


def _write_arrays():
    """Full-precision arrays, run after RUNS in the same directory.

    The pose chain at window length 20 (the 341 frames whose window fits
    give every codebook its 2 x dim samples): the stacked bm and fft
    descriptors, every codebook's centres and the word-count matrix.
    Then the integral table of counts.npy, the raw interval scores of
    models.npz on the features bundle, and the (Z, D) pst_scores table
    of the pst-fixed run, built with the calls run makes."""
    from actkit.attributes import load_models_npz, score_intervals
    from actkit.composites import (PstConfig, pst_scores, script_score,
                                   seq_feature)
    from actkit.experiment import _resolve_weights
    from actkit.posefeat import (build_codebook_set, pose_frame_features,
                                 stream_word_counts)
    from actkit.synth import load_bundle
    from actkit.temporal import build_integral

    tracks = _pose_tracks()
    frames = range(tracks.num_frames)
    os.mkdir("arrays")
    records = [{} for _ in frames]
    samples = {}
    for kind in ("bm", "fft"):
        rows = []
        for f in frames:
            for length, feats in pose_frame_features(tracks, f, (20,),
                                                     kind).items():
                records[f].setdefault(length, []).extend(feats)
                rows.append(np.concatenate([sf.values for sf in feats]))
                for sf in feats:
                    samples.setdefault((length, sf.name), []).append(
                        sf.values)
        np.save(f"arrays/{kind}.npy", np.stack(rows))
    books = build_codebook_set({key: np.array(v)
                                for key, v in samples.items()}, seed=SEED)
    for i, key in enumerate(books.codebooks):
        np.save(f"arrays/centers-{i:02d}-{key[1]}.npy",
                books.codebooks[key].centers)
    np.save("arrays/word_counts.npy",
            stream_word_counts(records, frames, books, tracks.num_frames))
    np.save("arrays/integral.npy",
            build_integral(np.load("counts.npy")).prefix)
    seqs = load_bundle("features").sequences
    np.save("arrays/interval_scores.npy", score_intervals(
        load_models_npz("models.npz"),
        np.concatenate([s.features for s in seqs], axis=0)))
    bundle = load_bundle("scores")
    pooled = np.stack([seq_feature(s.scores) for s in bundle.sequences])
    truth = np.array([s.composite for s in bundle.sequences])
    splits = np.array([s.split for s in bundle.sequences])
    labels = np.where(splits == "train",
                      np.array(bundle.composites)[:, None] == truth, -1)
    weights = _resolve_weights(bundle, {"weights": "mined"})
    np.save("arrays/pst_scores.npy", pst_scores(
        script_score(pooled, weights), labels, pooled,
        PstConfig(**RUN_JOBS["pst-fixed"]["pst"])))


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "report.json":
        report = json.loads(data)
        for key in ("data", "output"):
            report["config"].pop(key)
        data = (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()
    return hashlib.sha256(data).hexdigest()


def run_list(workdir) -> dict:
    """Run RUNS inside workdir; sha256 of every file it then holds."""
    from actkit.cli import main

    work = Path(workdir)
    work.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        _write_inputs()
        for argv in RUNS:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            if code != 0:
                raise RuntimeError(f"actkit {' '.join(argv)} exited {code}")
        _write_arrays()
    finally:
        os.chdir(cwd)
    return {p.relative_to(work).as_posix(): _digest(p)
            for p in sorted(work.rglob("*")) if p.is_file()}


def worker(workdir, threads, src) -> dict:
    """run_list in a fresh interpreter with OPENBLAS_NUM_THREADS=threads,
    importing actkit from src; returns {"versions": ..., "files": ...}."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, __file__, str(workdir)], env=env,
                          capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"golden worker failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def changes(want, files) -> tuple:
    """(moved, missing, new) file names of files against want."""
    return (sorted(k for k in files.keys() & want.keys()
                   if files[k] != want[k]),
            sorted(want.keys() - files.keys()),
            sorted(files.keys() - want.keys()))


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    import actkit
    src = Path(actkit.__file__).resolve().parents[1]
    base = tmp_path_factory.mktemp("golden")
    return {n: worker(base / f"threads{n}", n, src) for n in (1, 2)}


@pytest.mark.parametrize("threads", [1, 2])
def test_outputs_match_manifest(runs, threads):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    got = runs[threads]
    versions = [f"{name} {want} in the manifest, {got['versions'][name]} here"
                for name, want in manifest["versions"].items()
                if got["versions"][name] != want]
    assert not versions, ("library versions differ: " + "; ".join(versions)
                          + "; check the outputs, then run "
                          "python tests/test_golden.py --write")
    moved, missing, new = changes(manifest["files"], got["files"])
    assert not (moved or missing or new), (
        f"at {threads} BLAS thread(s): moved {moved}, missing {missing}, "
        f"new {new}")


def test_train_attributes_writes_the_models_run_trains(runs):
    files = runs[1]["files"]
    assert files["models.npz"] \
        == files["run-svm-base-context-segment/models.npz"]


def test_score_writes_the_full_precision_interval_scores(runs):
    files = runs[1]["files"]
    assert files["scored/observations.npy"] \
        == files["arrays/interval_scores.npy"]


def test_changes_names_moved_missing_and_new():
    want = {"a": "1", "b": "2", "c": "3"}
    assert changes(want, {"a": "1", "b": "9", "d": "4"}) \
        == (["b"], ["c"], ["d"])
    assert changes(want, dict(want)) == ([], [], [])


def main(argv) -> int:
    if argv == ["--write"]:
        src = Path(__file__).resolve().parents[1] / "src"
        with tempfile.TemporaryDirectory() as tmp:
            got = worker(Path(tmp) / "work", 1, src)
        old = (json.loads(MANIFEST.read_text(encoding="utf-8"))["files"]
               if MANIFEST.exists() else {})
        for kind, names in zip(("moved", "missing", "new"),
                               changes(old, got["files"])):
            for name in names:
                print(f"{kind} {name}")
        MANIFEST.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")
        print(f"{len(got['files'])} files -> {MANIFEST}")
        return 0
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 1
    files = run_list(argv[0])
    print(json.dumps({"versions": versions(), "files": files}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
