import json

import numpy as np
import pytest

from actkit import cli, experiment
from actkit.attributes import (TrainConfig, save_annotations,
                               save_models_npz, train_linear_ova)
from actkit.cli import main
from actkit.corpus import load_weights_csv
from actkit.psinfer import load_placements_csv
from actkit.synth import SyntheticConfig, gen_synthetic, load_bundle, \
    save_bundle
from actkit.temporal import (Detection, load_detections_csv,
                             load_segments_jsonl, save_detections_csv,
                             window_schedule)


@pytest.fixture(scope="module")
def score_bundle(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "bundle"
    save_bundle(gen_synthetic(SyntheticConfig(seed=23)), path)
    return str(path)


@pytest.fixture(scope="module")
def feature_bundle(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "fbundle"
    save_bundle(gen_synthetic(SyntheticConfig(seed=24, mode="features",
                                              feature_dim=16)), path)
    return str(path)


def _hist_models(path):
    """A model file over 3-bin histograms: a0 fires on bin-0 mass."""
    X = np.array([[1.0, 0.0, 0.0], [0.9, 0.1, 0.0], [0.8, 0.0, 0.2],
                  [0.0, 1.0, 0.0], [0.0, 0.2, 0.8], [0.1, 0.0, 0.9]])
    labels = [{"a0"}, {"a0"}, {"a0"}, set(), set(), set()]
    model_set = train_linear_ova(X, labels, ("a0",),
                                 TrainConfig(epochs=300))
    save_models_npz(model_set, path)
    return path


# ---------------------------------------------------------------------------
# generation and mining

def test_gen_synthetic_roundtrip(tmp_path):
    out = tmp_path / "bundle"
    assert main(["gen-synthetic", "--output", str(out), "--seed", "5"]) == 0
    bundle = load_bundle(out)
    assert len(bundle.sequences) == 6 * 6


@pytest.mark.parametrize("flags", [["--signal", "nan"], ["--noise", "inf"]])
def test_gen_synthetic_non_finite_flags_exit_1(tmp_path, capsys, flags):
    out = tmp_path / "x"
    assert main(["gen-synthetic", "--output", str(out), *flags]) == 1
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_gen_synthetic_infeasible_config_exit_1(tmp_path, capsys):
    rc = main(["gen-synthetic", "--output", str(tmp_path / "x"),
               "--composites", "6", "--activities", "5"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_mine_scripts(score_bundle, tmp_path):
    out = tmp_path / "weights.csv"
    rc = main(["mine-scripts", "--corpus", f"{score_bundle}/corpus",
               "--vocab", f"{score_bundle}/vocab.csv",
               "--output", str(out)])
    assert rc == 0
    W = load_weights_csv(out)
    assert len(W.composites) == 6
    assert np.all(W.values >= 0)


def test_mine_scripts_binarize(score_bundle, tmp_path):
    out = tmp_path / "binary.csv"
    rc = main(["mine-scripts", "--corpus", f"{score_bundle}/corpus",
               "--vocab", f"{score_bundle}/vocab.csv", "--binarize",
               "--output", str(out)])
    assert rc == 0
    W = load_weights_csv(out)
    for row in W.values:
        nz = row[row > 0]
        if nz.size:
            assert np.allclose(nz, nz[0])


def test_mine_scripts_lexicon_counts_synonyms(tmp_path):
    for sid, text in [("salad", "rinse the cucumber\n"),
                      ("tea", "boil water\n")]:
        (tmp_path / "corpus" / sid).mkdir(parents=True)
        (tmp_path / "corpus" / sid / "seq0.txt").write_text(text)
    (tmp_path / "vocab.csv").write_text("wash,activity\nboil,activity\n"
                                        "cucumber,object\nwater,object\n")
    (tmp_path / "lex.tsv").write_text("wash\tverb\trinse\n")
    args = ["mine-scripts", "--corpus", str(tmp_path / "corpus"),
            "--vocab", str(tmp_path / "vocab.csv")]
    assert main(args + ["--output", str(tmp_path / "lit.csv")]) == 0
    assert main(args + ["--output", str(tmp_path / "syn.csv"),
                        "--lexicon", str(tmp_path / "lex.tsv")]) == 0
    # the lexicon alone switches synonym matching on
    assert load_weights_csv(tmp_path / "lit.csv").row("salad")[0] == 0
    assert load_weights_csv(tmp_path / "syn.csv").row("salad")[0] > 0


def test_mine_scripts_missing_corpus_exit_2(tmp_path, capsys):
    rc = main(["mine-scripts", "--corpus", str(tmp_path / "nope"),
               "--vocab", str(tmp_path / "nope.csv"),
               "--output", str(tmp_path / "w.csv")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# attribute training and scoring

def test_train_and_score_pipeline(feature_bundle, tmp_path):
    models = tmp_path / "models.npz"
    assert main(["train-attributes", "--bundle", feature_bundle,
                 "--output", str(models), "--epochs", "100"]) == 0
    assert models.exists()
    scores_dir = tmp_path / "scores"
    assert main(["score", "--bundle", feature_bundle,
                 "--models", str(models),
                 "--output", str(scores_dir)]) == 0
    scored = load_bundle(scores_dir)
    assert scored.config.mode == "scores"
    assert len(scored.sequences) == 36
    assert all(s.scores.shape == (20, s.num_intervals) and s.features is None
               for s in scored.sequences)


def test_train_attributes_rejects_score_bundles(score_bundle, tmp_path):
    rc = main(["train-attributes", "--bundle", score_bundle,
               "--output", str(tmp_path / "m.npz")])
    assert rc == 1


def test_stack_command(score_bundle, tmp_path):
    out = tmp_path / "stacked"
    rc = main(["stack", "--bundle", score_bundle, "--mode", "context",
               "--output", str(out), "--epochs", "50"])
    assert rc == 0
    stacked = load_bundle(out)
    assert stacked.config.mode == "scores"
    assert len(stacked.sequences) == 36
    before = load_bundle(score_bundle).sequences
    for s, b in zip(stacked.sequences, before):
        assert s.scores.shape == b.scores.shape
        assert not np.array_equal(s.scores, b.scores)


def test_stack_base_mode_rejected_for_scores(score_bundle, tmp_path):
    rc = main(["stack", "--bundle", score_bundle, "--mode", "base+context",
               "--output", str(tmp_path / "s")])
    assert rc == 1


def test_score_makes_one_score_intervals_call(feature_bundle, tmp_path,
                                             monkeypatch):
    models = tmp_path / "models.npz"
    assert main(["train-attributes", "--bundle", feature_bundle,
                 "--output", str(models), "--epochs", "20"]) == 0
    calls = []
    score = experiment.score_intervals

    def counting(model_set, features):
        calls.append(len(features))
        return score(model_set, features)

    monkeypatch.setattr(experiment, "score_intervals", counting)
    assert main(["score", "--bundle", feature_bundle, "--models", str(models),
                 "--output", str(tmp_path / "scores")]) == 0
    bundle = load_bundle(feature_bundle)
    assert calls == [sum(s.num_intervals for s in bundle.sequences)]


def test_score_rejects_models_of_other_attributes(tmp_path, capsys):
    def bundle(name, activities):
        path = tmp_path / name
        save_bundle(gen_synthetic(SyntheticConfig(
            seed=5, mode="features", num_activities=activities,
            num_objects=6)), path)
        return str(path)

    models = tmp_path / "models.npz"
    assert main(["train-attributes", "--bundle", bundle("small", 8),
                 "--output", str(models), "--epochs", "5"]) == 0
    out = tmp_path / "scores"
    rc = main(["score", "--bundle", bundle("large", 10),
               "--models", str(models), "--output", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{models}: model label 8 is 'obj00', but bundle attribute 8 " \
        "is 'act08'" in err
    assert not out.exists()


def test_score_rejects_models_of_another_width(feature_bundle, tmp_path,
                                               capsys):
    wide = tmp_path / "wide"
    save_bundle(gen_synthetic(SyntheticConfig(seed=5, mode="features")),
                wide)
    models = tmp_path / "models.npz"
    assert main(["train-attributes", "--bundle", str(wide),
                 "--output", str(models), "--epochs", "5"]) == 0
    out = tmp_path / "scores"
    rc = main(["score", "--bundle", feature_bundle,
               "--models", str(models), "--output", str(out)])
    assert rc == 1
    assert f"{models}: feature_dim is 32, but the width of the features " \
        f"in {feature_bundle} is 16" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["score", "stack"])
def test_output_over_the_input_bundle_exit_1(tmp_path, capsys, command):
    bundle = tmp_path / "bundle"
    data_mode = "features" if command == "score" else "scores"
    save_bundle(gen_synthetic(SyntheticConfig(seed=5, mode=data_mode)),
                bundle)
    if command == "score":
        models = tmp_path / "models.npz"
        assert main(["train-attributes", "--bundle", str(bundle),
                     "--output", str(models), "--epochs", "5"]) == 0
        extra = ["--models", str(models)]
    else:
        extra = ["--mode", "context"]
    before = {p.name: p.read_bytes() for p in bundle.iterdir()
              if p.is_file()}
    # the same directory under another spelling of its path
    rc = main([command, "--bundle", str(bundle),
               "--output", f"{tmp_path}/./bundle/"] + extra)
    assert rc == 1
    assert "is the --bundle directory" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in bundle.iterdir()
            if p.is_file()} == before


@pytest.mark.parametrize("mode", ["base+context", "all"])
def test_stack_offers_only_the_score_modes(score_bundle, tmp_path, capsys,
                                           mode):
    rc = main(["stack", "--bundle", score_bundle, "--mode", mode,
               "--output", str(tmp_path / "s")])
    assert rc == 1
    assert f"invalid choice: '{mode}'" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["stack", "--help"])
    assert "--mode {context,cooccurrence}" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["train-attributes", "stack"])
@pytest.mark.parametrize("flag, value, words", [
    ("--lam", "-1", "lam must be positive"),
    ("--lam", "nan", "lam must be a finite number"),
    ("--epochs", "0", "epochs must be at least 1"),
    ("--seed", "3", "unrecognized arguments: --seed 3"),
])
def test_train_config_errors_exit_1(feature_bundle, score_bundle, tmp_path,
                                    capsys, command, flag, value, words):
    bundle = feature_bundle if command == "train-attributes" \
        else score_bundle
    extra = ["--mode", "context"] if command == "stack" else []
    out = tmp_path / "out"
    rc = main([command, "--bundle", bundle, "--output", str(out),
               flag, value] + extra)
    assert rc == 1
    assert words in capsys.readouterr().err
    assert not out.exists()
    # the config is checked before the bundle is read
    rc = main([command, "--bundle", str(tmp_path / "missing"),
               "--output", str(out), flag, value] + extra)
    assert rc == 1


@pytest.fixture(scope="module")
def scored_bundle(feature_bundle, tmp_path_factory):
    """feature_bundle through train-attributes and score, default flags."""
    work = tmp_path_factory.mktemp("chain")
    assert main(["train-attributes", "--bundle", feature_bundle,
                 "--output", str(work / "models.npz")]) == 0
    assert main(["score", "--bundle", feature_bundle,
                 "--models", str(work / "models.npz"),
                 "--output", str(work / "scored")]) == 0
    return str(work / "scored")


def _same_as_run(tmp_path, bundle, argv, job):
    """classify-composites on bundle with argv, and run with the config
    job on feature_bundle: the same predictions bytes and metrics."""
    assert main(["classify-composites", "--bundle", bundle,
                 "--output", str(tmp_path / "chain")] + argv) == 0
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({**job, "output": str(tmp_path / "run")}))
    assert main(["run", "--config", str(cfg)]) == 0
    outputs = []
    for name in ("chain", "run"):
        with open(tmp_path / name / "report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        outputs.append(((tmp_path / name / "predictions.csv").read_bytes(),
                        report["mean_ap"], report["accuracy"]))
    return outputs


@pytest.mark.parametrize("mode", experiment.MODES)
def test_score_then_classify_equals_run(feature_bundle, scored_bundle,
                                        tmp_path, mode):
    chain, run = _same_as_run(tmp_path, scored_bundle, ["--mode", mode],
                              {"data": feature_bundle, "mode": mode})
    assert chain == run


def test_score_stack_then_classify_equals_run(feature_bundle, scored_bundle,
                                              tmp_path):
    stacked = tmp_path / "stacked"
    assert main(["stack", "--bundle", scored_bundle, "--mode", "context",
                 "--output", str(stacked)]) == 0
    chain, run = _same_as_run(tmp_path, str(stacked), ["--mode", "svm"],
                              {"data": feature_bundle, "mode": "svm",
                               "stack": "context"})
    assert chain == run


# ---------------------------------------------------------------------------
# detection and segmentation

def test_detect_command(tmp_path):
    models = _hist_models(tmp_path / "hist_models.npz")
    counts = np.zeros((120, 3))
    counts[0:36, 0] = 5.0      # bin-0 burst at the start
    counts[36:, 1] = 5.0
    counts_path = tmp_path / "counts.npy"
    np.save(counts_path, counts)
    out = tmp_path / "dets.csv"
    rc = main(["detect", "--counts", str(counts_path),
               "--models", str(models), "--attribute", "a0",
               "--output", str(out), "--video", "demo"])
    assert rc == 0
    dets = load_detections_csv(out)
    assert dets
    best = max(dets, key=lambda d: d.score)
    assert best.start < 36          # the burst is found at the start
    # suppression left no overlapping pairs
    for i, a in enumerate(dets):
        for b in dets[i + 1:]:
            assert min(a.end, b.end) < max(a.start, b.start)


def test_detect_scores_each_level_in_one_call(tmp_path, monkeypatch):
    # the traced benchmark counts attributes.score_calls by wrapping this
    # module attribute; a level's windows are scored as one batch
    models = _hist_models(tmp_path / "m.npz")
    T = 500
    np.save(tmp_path / "c.npy", np.ones((T, 3)))
    rows = []
    score = cli.score_intervals

    def counting(model_set, features):
        rows.append(len(features))
        return score(model_set, features)

    monkeypatch.setattr(cli, "score_intervals", counting)
    rc = main(["detect", "--counts", str(tmp_path / "c.npy"),
               "--models", str(models), "--attribute", "a0",
               "--output", str(tmp_path / "d.csv")])
    assert rc == 0
    assert rows == [(T - size) // step + 1
                    for size, step in window_schedule() if size <= T]


def test_detect_counts_of_another_width_exit_1(feature_bundle, tmp_path,
                                              capsys):
    models = tmp_path / "models.npz"
    assert main(["train-attributes", "--bundle", feature_bundle,
                 "--output", str(models), "--epochs", "5"]) == 0
    counts = tmp_path / "c.npy"
    np.save(counts, np.ones((60, 32)))
    out = tmp_path / "d.csv"
    rc = main(["detect", "--counts", str(counts), "--models", str(models),
               "--attribute", "act00", "--output", str(out)])
    assert rc == 1
    assert f"{models}: feature_dim is 16, but the width of {counts} is 32" \
        in capsys.readouterr().err
    assert not out.exists()


def test_detect_unknown_attribute_exit_1(tmp_path):
    models = _hist_models(tmp_path / "m.npz")
    np.save(tmp_path / "c.npy", np.ones((60, 3)))
    rc = main(["detect", "--counts", str(tmp_path / "c.npy"),
               "--models", str(models), "--attribute", "ghost",
               "--output", str(tmp_path / "d.csv")])
    assert rc == 1


def test_detect_skipped_attribute_exit_1(tmp_path, capsys):
    # "ghost" is in the model file but had no positive training interval
    X = np.array([[1.0, 0.0], [0.0, 1.0], [0.9, 0.1]])
    model_set = train_linear_ova(X, [{"a0"}, set(), {"a0"}], ("a0", "ghost"),
                                 TrainConfig(epochs=20))
    save_models_npz(model_set, tmp_path / "m.npz")
    np.save(tmp_path / "c.npy", np.ones((60, 2)))
    out = tmp_path / "d.csv"
    rc = main(["detect", "--counts", str(tmp_path / "c.npy"),
               "--models", str(tmp_path / "m.npz"), "--attribute", "ghost",
               "--output", str(out)])
    assert rc == 1
    assert "'ghost' was skipped in training: 0 positive / 3 negative " \
        "intervals" in capsys.readouterr().err
    assert not out.exists()


def test_detect_truncated_weights_exit_2(tmp_path, capsys):
    with np.load(_hist_models(tmp_path / "m.npz")) as data:
        arrays = {key: data[key] for key in data.files}
    arrays["w_0"] = arrays["w_0"][:2]
    models = tmp_path / "bad.npz"
    np.savez(models, **arrays)
    np.save(tmp_path / "c.npy", np.ones((60, 3)))
    rc = main(["detect", "--counts", str(tmp_path / "c.npy"),
               "--models", str(models), "--attribute", "a0",
               "--output", str(tmp_path / "d.csv")])
    assert rc == 2
    assert f"{models}: w_0 must hold 3 weights" in capsys.readouterr().err


def _edited_hist_models(tmp_path, key, edit):
    """The _hist_models file with arrays[key] replaced by edit(it)."""
    with np.load(_hist_models(tmp_path / "m.npz")) as data:
        arrays = {k: data[k] for k in data.files}
    arrays[key] = edit(arrays[key])
    models = tmp_path / "bad.npz"
    np.savez(models, **arrays)
    return models


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("key, edit, words", [
    ("w_0", lambda a: np.where(np.arange(3) == 1, np.nan, a),
     "w_0 and meta_0 must be finite, with a positive score std"),
    ("meta_0", lambda a: np.where(np.arange(4) == 2, 0.0, a),
     "w_0 and meta_0 must be finite, with a positive score std"),
    ("config", lambda a: np.array('{"lam": 0.0, "epochs": 5}'),
     "bad config: lam must be positive"),
    ("config", lambda a: np.array('{"lam": 0.1, "epochs": 5, "znorm": 1}'),
     "bad config: "),
], ids=["nan-weight", "zero-std", "bad-lam", "unknown-key"])
@pytest.mark.parametrize("command", ["score", "detect"])
def test_malformed_model_file_exit_2_names_it(feature_bundle, tmp_path,
                                              capsys, key, edit, words,
                                              command):
    models = _edited_hist_models(tmp_path, key, edit)
    out = tmp_path / "out"
    if command == "score":
        argv = ["score", "--bundle", feature_bundle, "--models", str(models),
                "--output", str(out)]
    else:
        np.save(tmp_path / "c.npy", np.ones((60, 3)))
        argv = ["detect", "--counts", str(tmp_path / "c.npy"), "--models",
                str(models), "--attribute", "a0", "--output", str(out)]
    assert main(argv) == 2
    assert f"error: {models}: {words}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_detect_non_finite_nms_threshold_exit_1(tmp_path, capsys, value):
    models = _hist_models(tmp_path / "m.npz")
    np.save(tmp_path / "c.npy", np.ones((60, 3)))
    out = tmp_path / "d.csv"
    rc = main(["detect", "--counts", str(tmp_path / "c.npy"),
               "--models", str(models), "--attribute", "a0",
               "--output", str(out), f"--nms-threshold={value}"])
    assert rc == 1
    assert "argument --nms-threshold: invalid finite_float value" \
        in capsys.readouterr().err
    assert not out.exists()


def test_segment_command(tmp_path):
    counts = np.zeros((240, 2))
    counts[:120, 0] = 1.0
    counts[120:, 1] = 1.0
    np.save(tmp_path / "c.npy", counts)
    out = tmp_path / "segs.jsonl"
    rc = main(["segment", "--counts", str(tmp_path / "c.npy"),
               "--threshold", "0.9", "--output", str(out)])
    assert rc == 0
    segs = load_segments_jsonl(out)
    assert [(s.start, s.end) for s in segs] == [(0, 119), (120, 239)]


@pytest.mark.parametrize("flags", [
    ["--threshold", "nan"],
    ["--threshold", "inf"],
    ["--threshold", "abc"],
    ["--threshold", "0.9", "--span", "0"],
    ["--threshold", "0.9", "--span", "-5"],
])
def test_segment_bad_flags_exit_1(tmp_path, capsys, flags):
    np.save(tmp_path / "c.npy", np.ones((240, 2)))
    out = tmp_path / "segs.jsonl"
    rc = main(["segment", "--counts", str(tmp_path / "c.npy"),
               "--output", str(out), *flags])
    assert rc == 1
    assert flags[-2] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value, message", [
    (np.nan, "counts must be non-negative: frame 7, bin 1 holds nan"),
    (-1.0, "counts must be non-negative: frame 7, bin 1 holds -1.0"),
    (np.inf, "counts must have finite totals: bin 1 is inf from frame 7 on"),
])
@pytest.mark.parametrize("command", ["detect", "segment"])
def test_bad_counts_exit_2(tmp_path, capsys, command, value, message):
    counts = np.ones((300, 3))
    counts[7, 1] = value
    counts[9, 2] = value                  # a later bad count is not named
    path = tmp_path / "c.npy"
    np.save(path, counts)
    out = tmp_path / "out"
    extra = (["--models", str(_hist_models(tmp_path / "m.npz")),
              "--attribute", "a0"] if command == "detect"
             else ["--threshold", "0.9"])
    rc = main([command, "--counts", str(path), "--output", str(out), *extra])
    assert rc == 2
    assert f"error: {path}: {message}" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# composite classification and experiments

def test_classify_composites_command(score_bundle, tmp_path, capsys):
    out = tmp_path / "cc"
    rc = main(["classify-composites", "--bundle", score_bundle,
               "--output", str(out), "--mode", "script"])
    assert rc == 0
    assert "accuracy" in capsys.readouterr().out
    with open(out / "report.json", encoding="utf-8") as fh:
        assert json.load(fh)["accuracy"] >= 0.9


def test_classify_composites_nan_segment_threshold_exit_1(score_bundle,
                                                         tmp_path, capsys):
    out = tmp_path / "cc"
    rc = main(["classify-composites", "--bundle", score_bundle,
               "--output", str(out), "--mode", "script",
               "--segment-threshold", "nan"])
    assert rc == 1
    assert "segment_threshold must be a finite number" in \
        capsys.readouterr().err
    assert not out.exists()


def test_classify_composites_pst_config_file(score_bundle, tmp_path):
    conf = tmp_path / "pst.conf"
    conf.write_text("alpha = 0.5\ngamma = 0.5\ndelta = 1.0\nk = 5\n")
    out = tmp_path / "pstcc"
    rc = main(["classify-composites", "--bundle", score_bundle,
               "--output", str(out), "--mode", "pst",
               "--pst-config", str(conf)])
    assert rc == 0
    assert (out / "pst.conf").exists()


def test_classify_composites_iterative_solver_pst_config(score_bundle,
                                                        tmp_path):
    # pst.conf as the former iterative solver wrote it
    conf = tmp_path / "pst.conf"
    conf.write_text("gamma = 0.5\ndelta = 1.0\nk = 5\nalpha = 0.5\n"
                    "tol = 1e-12\nmax_iters = 100000\n")
    out = tmp_path / "pstcc"
    rc = main(["classify-composites", "--bundle", score_bundle,
               "--output", str(out), "--mode", "pst",
               "--pst-config", str(conf)])
    assert rc == 0
    assert "tol" not in (out / "pst.conf").read_text()


@pytest.mark.parametrize("text, words", [
    ("alpha = 2\n", "alpha must lie in [0, 1)"),
    ("k = abc\n", "pst.conf:1: invalid literal"),
    ("flux = 1\n", "pst.conf:1: unknown key 'flux'"),
    ("gamma 0.5\n", "pst.conf:1: expected key = value"),
])
def test_classify_composites_bad_pst_config_exit_1(score_bundle, tmp_path,
                                                   capsys, text, words):
    conf = tmp_path / "pst.conf"
    conf.write_text(text)
    out = tmp_path / "pstcc"
    rc = main(["classify-composites", "--bundle", score_bundle,
               "--output", str(out), "--mode", "pst",
               "--pst-config", str(conf)])
    assert rc == 1
    assert words in capsys.readouterr().err
    assert not out.exists()


def test_classify_composites_pst_k_too_large_exit_1(score_bundle, tmp_path,
                                                   capsys):
    conf = tmp_path / "pst.conf"
    conf.write_text("alpha = 0.5\ngamma = 0.5\ndelta = 1.0\nk = 500\n")
    rc = main(["classify-composites", "--bundle", score_bundle,
               "--output", str(tmp_path / "pstcc"), "--mode", "pst",
               "--pst-config", str(conf)])
    assert rc == 1
    assert "pst.k = 500 needs more than 500 sequences" in \
        capsys.readouterr().err


def test_run_command(score_bundle, tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"data": score_bundle,
                               "output": str(tmp_path / "ro"),
                               "mode": "svm"}))
    assert main(["run", "--config", str(cfg)]) == 0
    assert (tmp_path / "ro" / "report.json").exists()


def test_run_unknown_key_exit_1(score_bundle, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"data": score_bundle,
                               "output": str(tmp_path / "o"),
                               "mode": "svm", "turbo": True}))
    assert main(["run", "--config", str(cfg)]) == 1
    assert "turbo" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["literal", "synonym"])
def test_run_match_mode_key_exit_1(score_bundle, tmp_path, capsys, value):
    cfg = tmp_path / "mm.json"
    cfg.write_text(json.dumps({"data": score_bundle,
                               "output": str(tmp_path / "o"),
                               "mode": "script", "match_mode": value}))
    assert main(["run", "--config", str(cfg)]) == 1
    assert "match_mode" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", [0, 3])
def test_run_seed_key_exit_1(score_bundle, tmp_path, capsys, value):
    # training draws no random numbers, so a seed is an unknown key
    cfg = tmp_path / "seed.json"
    cfg.write_text(json.dumps({"data": score_bundle,
                               "output": str(tmp_path / "o"),
                               "mode": "svm", "seed": value}))
    assert main(["run", "--config", str(cfg)]) == 1
    assert "unknown config keys: ['seed']" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("bad, words", [
    ({"lam": -1}, "lam must be positive"),
    ({"lam": "0.1"}, "lam must be a finite number"),
    ({"epochs": "x"}, "epochs must be an integer"),
    ({"epochs": 0}, "epochs must be at least 1"),
    ({"epochs": 2.5}, "epochs must be an integer"),
    ({"lam": float("inf")}, "lam must be a finite number"),
    ({"epochs": True}, "epochs must be an integer"),
    ({"mode": "pst", "pst": {"alpha": 2}}, "pst.alpha"),
    ({"mode": "pst", "pst": {"k": "5"}}, "pst.k must be an integer"),
    ({"mode": "pst", "grid": {"delta": [0.5, 0]}}, "grid.delta"),
    ({"mode": "pst", "grid": {"gamma": [0.5, None]}}, "grid.gamma"),
    ({"segment_threshold": float("nan")}, "segment_threshold must be a"),
    ({"segment_threshold": float("inf")}, "segment_threshold must be a"),
    ({"segment_threshold": "0.9"}, "segment_threshold must be a"),
    ({"segment_threshold": True}, "segment_threshold must be a"),
    ({"mode": "pst", "grid": {"alpha": []}}, "grid.alpha lists no values"),
    ({"mode": "pst", "pst": {"k": 500}}, "pst.k = 500 needs more than 500 "
                                         "sequences, the bundle has 36"),
    ({"mode": "pst", "pst": {"k": 36}}, "pst.k = 36 needs more than 36"),
])
def test_run_bad_config_values_exit_1(score_bundle, tmp_path, capsys,
                                      bad, words):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"data": score_bundle,
                               "output": str(tmp_path / "o"),
                               "mode": "svm", **bad}))
    assert main(["run", "--config", str(cfg)]) == 1
    assert words in capsys.readouterr().err


def test_run_missing_config_exit_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "none.json")]) == 2


def test_run_misaligned_bundle_exit_2(tmp_path, capsys):
    bundle = tmp_path / "bundle"
    assert main(["gen-synthetic", "--output", str(bundle), "--seed", "3"]) == 0
    ann = bundle / "annotations.jsonl"
    lines = ann.read_text().splitlines(keepends=True)
    sid = json.loads(lines[1])["video"]
    ann.write_text("".join(lines[:1] + lines[2:]))
    cfg = tmp_path / "svm.json"
    cfg.write_text(json.dumps({"data": str(bundle),
                               "output": str(tmp_path / "o"),
                               "mode": "svm"}))
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert str(ann) in err and repr(sid) in err
    assert not (tmp_path / "o" / "predictions.csv").exists()


@pytest.mark.parametrize("edit, words", [
    ({"signal": float("nan")}, "signal must be finite and positive"),
    ({"flux": 1.0}, "'flux'")])
def test_run_bad_bundle_config_exit_2_names_the_file(tmp_path, capsys,
                                                     edit, words):
    bundle = tmp_path / "bundle"
    assert main(["gen-synthetic", "--output", str(bundle), "--seed", "3"]) == 0
    config = bundle / "config.json"
    config.write_text(json.dumps(dict(json.loads(config.read_text()), **edit)))
    cfg = tmp_path / "script.json"
    cfg.write_text(json.dumps({"data": str(bundle),
                               "output": str(tmp_path / "o"),
                               "mode": "script"}))
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"error: {config}: " in err and words in err


@pytest.mark.parametrize("name", ["config.json", "sequences.json"])
def test_run_bundle_json_that_does_not_parse_exit_2(tmp_path, capsys, name):
    bundle = tmp_path / "bundle"
    assert main(["gen-synthetic", "--output", str(bundle), "--seed", "3"]) == 0
    (bundle / name).write_text("{\n,}\n")
    cfg = tmp_path / "script.json"
    cfg.write_text(json.dumps({"data": str(bundle),
                               "output": str(tmp_path / "o"),
                               "mode": "script"}))
    assert main(["run", "--config", str(cfg)]) == 2
    assert f"error: {bundle / name}: invalid JSON: " \
        in capsys.readouterr().err


def _ghost(first):
    return json.dumps({**json.loads(first), "video": "ghost"})


@pytest.mark.parametrize("line, where", [
    (lambda first: "not json", "{ann}:{ln}: "),
    (lambda first: "[1]", "{ann}:{ln}: "),
    (_ghost, "{ann}: video 'ghost'"),
])
def test_run_bad_annotation_line_exit_2(tmp_path, capsys, line, where):
    bundle = tmp_path / "bundle"
    assert main(["gen-synthetic", "--output", str(bundle), "--seed", "3"]) == 0
    ann = bundle / "annotations.jsonl"
    lines = ann.read_text().splitlines()
    ann.write_text("\n".join(lines + [line(lines[0])]) + "\n")
    cfg = tmp_path / "svm.json"
    cfg.write_text(json.dumps({"data": str(bundle),
                               "output": str(tmp_path / "o"),
                               "mode": "svm"}))
    assert main(["run", "--config", str(cfg)]) == 2
    assert where.format(ann=ann, ln=len(lines) + 1) in \
        capsys.readouterr().err


def test_models_in_pickled_format_exit_2(feature_bundle, tmp_path, capsys):
    models = tmp_path / "old.npz"
    with np.load(_hist_models(tmp_path / "m.npz")) as data:
        arrays = {key: data[key] for key in data.files}
    arrays["labels"] = np.array(json.loads(str(arrays["labels"])),
                                dtype=object)
    np.savez(models, **arrays)
    rc = main(["score", "--bundle", feature_bundle, "--models", str(models),
               "--output", str(tmp_path / "s")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(models) in err and "retrain" in err


def test_bad_subcommand_usage_exits():
    assert main(["classify-composites"]) == 1      # missing required flags


@pytest.mark.parametrize("argv, message", [
    (["eval", "--detections", "d.csv", "--annotations", "a.jsonl",
      "--output", "r.json", "--criterion", "area"], "invalid choice: 'area'"),
    (["frobnicate"], "invalid choice: 'frobnicate'"),
    ([], "the following arguments are required: command"),
])
def test_usage_errors_exit_1(capsys, argv, message):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_0(flag):
    with pytest.raises(SystemExit) as exc:
        main([flag])
    assert exc.value.code == 0


# ---------------------------------------------------------------------------
# pose inference and detection eval

def test_pose_infer_map(tmp_path):
    rng = np.random.default_rng(3)
    np.save(tmp_path / "grids.npy",
            rng.uniform(0.1, 1.0, size=(10, 8, 8)))
    out = tmp_path / "parts.csv"
    rc = main(["pose-infer", "--grids", str(tmp_path / "grids.npy"),
               "--output", str(out), "--scale", "0.05"])
    assert rc == 0
    placements = load_placements_csv(out)
    assert len(placements) == 10


def test_pose_infer_marginal(tmp_path):
    rng = np.random.default_rng(4)
    np.save(tmp_path / "g.npy", rng.uniform(0.1, 1.0, size=(10, 5, 5)))
    out = tmp_path / "post.npz"
    rc = main(["pose-infer", "--grids", str(tmp_path / "g.npy"),
               "--output", str(out), "--mode", "marginal",
               "--scale", "0.05"])
    assert rc == 0
    data = np.load(out)
    assert len(data.files) == 10
    for part in data.files:
        assert data[part].sum() == pytest.approx(1.0)


@pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
def test_pose_infer_bad_scale_exit_1(tmp_path, capsys, scale):
    np.save(tmp_path / "g.npy", np.ones((10, 4, 4)))
    out = tmp_path / "p.csv"
    rc = main(["pose-infer", "--grids", str(tmp_path / "g.npy"),
               "--output", str(out), "--scale", scale])
    assert rc == 1
    assert "scale must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_pose_infer_non_finite_grids_exit_2(tmp_path, capsys, value):
    grids = np.ones((10, 4, 4))
    grids[3, 1, 2] = value
    np.save(tmp_path / "g.npy", grids)
    out = tmp_path / "p.csv"
    rc = main(["pose-infer", "--grids", str(tmp_path / "g.npy"),
               "--output", str(out), "--scale", "0.05"])
    assert rc == 2
    assert f"error: {tmp_path / 'g.npy'}: expected finite non-negative " \
        in capsys.readouterr().err
    assert not out.exists()


def test_eval_command(tmp_path, capsys):
    dets = [Detection("v", "a0", 0, 29, 2.0),
            Detection("v", "a0", 200, 229, 1.0)]
    save_detections_csv(dets, tmp_path / "dets.csv")
    save_annotations([{"video": "v", "start_frame": 0, "end_frame": 29,
                       "attributes": ["a0"], "composite": "c"}],
                     tmp_path / "ann.jsonl")
    out = tmp_path / "report.json"
    rc = main(["eval", "--detections", str(tmp_path / "dets.csv"),
               "--annotations", str(tmp_path / "ann.jsonl"),
               "--output", str(out)])
    assert rc == 0
    with open(out, encoding="utf-8") as fh:
        assert json.load(fh)["mean_ap"] == pytest.approx(1.0)
    assert "mean AP" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_eval_non_finite_iou_exit_1(tmp_path, capsys, value):
    save_detections_csv([Detection("v", "a0", 0, 29, 2.0)],
                        tmp_path / "dets.csv")
    save_annotations([{"video": "v", "start_frame": 0, "end_frame": 29,
                       "attributes": ["a0"], "composite": "c"}],
                     tmp_path / "ann.jsonl")
    out = tmp_path / "report.json"
    rc = main(["eval", "--detections", str(tmp_path / "dets.csv"),
               "--annotations", str(tmp_path / "ann.jsonl"),
               "--output", str(out), "--criterion", "iou", "--iou", value])
    assert rc == 1
    assert "argument --iou: invalid finite_float value" \
        in capsys.readouterr().err
    assert not out.exists()


def test_eval_nan_score_row_exit_2(tmp_path, capsys):
    dets = tmp_path / "dets.csv"
    dets.write_text("video,attribute,start,end,score\nv,a0,0,29,nan\n"
                    "v,a0,200,229,1.0\n")
    save_annotations([{"video": "v", "start_frame": 0, "end_frame": 29,
                       "attributes": ["a0"], "composite": "c"}],
                     tmp_path / "ann.jsonl")
    rc = main(["eval", "--detections", str(dets),
               "--annotations", str(tmp_path / "ann.jsonl"),
               "--output", str(tmp_path / "report.json")])
    assert rc == 2
    assert f"{dets}:2: NaN score 'nan'" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_eval_short_detection_row_exit_2(tmp_path, capsys):
    dets = tmp_path / "dets.csv"
    dets.write_text("video,attribute,start,end,score\nv,a0,0,29,2.0\n"
                    "v,a0,200,229\n")
    save_annotations([{"video": "v", "start_frame": 0, "end_frame": 29,
                       "attributes": ["a0"], "composite": "c"}],
                     tmp_path / "ann.jsonl")
    rc = main(["eval", "--detections", str(dets),
               "--annotations", str(tmp_path / "ann.jsonl"),
               "--output", str(tmp_path / "report.json")])
    assert rc == 2
    assert f"{dets}:3: expected 5 cells, got 4" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_eval_backwards_detection_row_exit_2(tmp_path, capsys):
    dets = tmp_path / "dets.csv"
    dets.write_text("video,attribute,start,end,score\nv,a0,0,29,2.0\n"
                    "v,a0,9,3,1.0\n")
    save_annotations([{"video": "v", "start_frame": 0, "end_frame": 29,
                       "attributes": ["a0"], "composite": "c"}],
                     tmp_path / "ann.jsonl")
    rc = main(["eval", "--detections", str(dets),
               "--annotations", str(tmp_path / "ann.jsonl"),
               "--output", str(tmp_path / "report.json")])
    assert rc == 2
    assert f"{dets}: row v,a0,9,3,1.0: detection must end at or after " \
        "its start" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()
