import csv
import json
import os

import numpy as np
import pytest

from actkit import composites, corpus, experiment
from actkit.attributes import TrainConfig, score_intervals
from actkit.composites import load_pst_config
from actkit.experiment import (ConfigError, DEFAULT_PST_GRID, load_config,
                               run_experiment)
from actkit.metrics import accuracy, confusion_counts
from actkit.synth import SyntheticConfig, gen_synthetic, load_bundle, \
    save_bundle


@pytest.fixture(scope="module")
def score_bundle(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "bundle"
    save_bundle(gen_synthetic(SyntheticConfig(seed=11)), path)
    return str(path)


@pytest.fixture(scope="module")
def feature_bundle(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "fbundle"
    cfg = SyntheticConfig(seed=12, mode="features", feature_dim=24)
    save_bundle(gen_synthetic(cfg), path)
    return str(path)


def _predictions(path):
    """Rows (sequence, composite, score) of a predictions.csv."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        assert next(reader) == ["sequence", "composite", "score"]
        return [(seq, comp, float(score)) for seq, comp, score in reader]


def _cfg(data, out, mode, **kw):
    cfg = {"data": data, "output": str(out), "mode": mode}
    cfg.update(kw)
    return cfg


# ---------------------------------------------------------------------------
# config handling

def test_unknown_key_rejected(score_bundle, tmp_path):
    with pytest.raises(ConfigError):
        run_experiment(_cfg(score_bundle, tmp_path / "o", "svm", flux=1))


def test_missing_required_key():
    with pytest.raises(ConfigError):
        run_experiment({"mode": "svm"})


def test_unknown_mode(score_bundle, tmp_path):
    with pytest.raises(ConfigError):
        run_experiment(_cfg(score_bundle, tmp_path / "o", "forest"))


def test_unknown_stack_and_weights(score_bundle, tmp_path):
    for stack in ("triple", ["context"]):
        with pytest.raises(ConfigError, match="unknown stack mode"):
            run_experiment(_cfg(score_bundle, tmp_path / "o", "svm",
                                stack=stack))
    with pytest.raises(ConfigError):
        run_experiment(_cfg(score_bundle, tmp_path / "o", "svm",
                            weights="oracle"))


def test_base_stacking_needs_features(score_bundle, tmp_path):
    with pytest.raises(ConfigError):
        run_experiment(_cfg(score_bundle, tmp_path / "o", "svm",
                            stack="base+context"))


def test_config_file_relative_paths(score_bundle, tmp_path):
    # paths inside the file resolve against the file's directory
    os.symlink(score_bundle, tmp_path / "bundle")
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(
        {"data": "bundle", "output": "results", "mode": "script"}))
    report = run_experiment(str(cfg_path))
    assert (tmp_path / "results" / "report.json").exists()
    assert report.accuracy >= 0.9


def test_config_file_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(p))


def test_pst_block_validation(score_bundle, tmp_path):
    with pytest.raises(ConfigError):
        run_experiment(_cfg(score_bundle, tmp_path / "o", "pst",
                            pst={"alpha": 0.5, "omega": 1}))
    with pytest.raises(ConfigError):
        run_experiment(_cfg(score_bundle, tmp_path / "o", "pst",
                            grid={"beta": [1]}))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), "nan", "inf",
                                   "0.9", True, [0.9]])
def test_segment_threshold_must_be_a_finite_number(score_bundle, tmp_path,
                                                   value):
    # a NaN threshold would merge every sequence into one segment
    out = tmp_path / "o"
    with pytest.raises(ConfigError, match="segment_threshold"):
        run_experiment(_cfg(score_bundle, out, "script",
                            segment_threshold=value))
    assert not out.exists()


# ---------------------------------------------------------------------------
# modes on the easy scores bundle

@pytest.mark.parametrize("mode", ["svm", "nn", "script", "nn-script"])
def test_supervised_and_script_modes(score_bundle, tmp_path, mode):
    out = tmp_path / mode
    report = run_experiment(_cfg(score_bundle, out, mode))
    assert report.task == f"composite-{mode}"
    assert report.accuracy >= 0.9
    assert report.mean_ap >= 0.9
    assert (out / "report.json").exists()
    assert (out / "weights.csv").exists()
    preds = _predictions(out / "predictions.csv")
    # 12 test sequences x 6 composites
    assert len(preds) == 12 * 6
    with open(out / "report.json", encoding="utf-8") as fh:
        assert json.load(fh)["accuracy"] == report.accuracy


@pytest.mark.parametrize("mode, name", [("nn", "classify_nn"),
                                        ("nn-script", "nn_script_classify")])
def test_nearest_neighbour_modes_call_their_classifier_once(
        score_bundle, tmp_path, monkeypatch, mode, name):
    # the traced benchmark times composites.nn_s by wrapping this module
    # attribute; the classifier builds the whole (M, Z) table in one call
    calls = []
    classify = getattr(experiment, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return classify(*args, **kwargs)

    monkeypatch.setattr(experiment, name, counting)
    run_experiment(_cfg(score_bundle, tmp_path / mode, mode))
    assert len(calls) == 1
    assert calls[0][2].shape[0] == len(load_bundle(score_bundle).split("test"))


@pytest.fixture(scope="module")
def noisy_bundle(tmp_path_factory):
    """A scores bundle noisy enough that every mode misses some tests."""
    path = tmp_path_factory.mktemp("data") / "noisy"
    save_bundle(gen_synthetic(SyntheticConfig(seed=13, noise=3.0)), path)
    return str(path)


@pytest.mark.parametrize("mode", experiment.MODES)
def test_report_predicts_the_argmax_of_the_saved_table(
        noisy_bundle, tmp_path, monkeypatch, mode):
    # accuracy and confusion count each test sequence's top-scoring
    # composite in the table written to predictions.csv, a tie going to
    # the lowest composite index
    saved = []
    save = experiment.save_predictions_csv
    monkeypatch.setattr(experiment, "save_predictions_csv",
                        lambda rows, path: saved.extend(rows) or
                        save(rows, path))
    grid = {"alpha": [0.5, 0.9], "delta": [0.5, 1.0], "k": [3, 5]}
    out = tmp_path / mode
    run_experiment(_cfg(noisy_bundle, out, mode,
                        **({"grid": grid} if "pst" in mode else {})))
    with open(out / "report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    comps = report["labels"]
    test = load_bundle(noisy_bundle).split("test")
    score = {(seq, comp): value for seq, comp, value in saved}
    assert len(score) == len(saved) == len(test) * len(comps)
    table = np.array([[score[s.sequence_id, c] for c in comps]
                      for s in test])
    preds = [comps[z] for z in np.argmax(table, axis=1)]
    truth = [s.composite for s in test]
    assert report["accuracy"] == accuracy(preds, truth)
    assert report["confusion"] == \
        confusion_counts(truth, preds, comps).tolist()
    assert 0 < report["accuracy"] < 1


def test_tied_scores_predict_the_lowest_composite_index(
        score_bundle, tmp_path, monkeypatch):
    monkeypatch.setattr(experiment, "script_score",
                        lambda G, weights: np.zeros((len(weights.values),
                                                     len(G))))
    report = run_experiment(_cfg(score_bundle, tmp_path / "o", "script"))
    first = report.labels[0]
    assert report.confusion[:, 1:].sum() == 0
    assert report.accuracy == np.mean(
        [s.composite == first
         for s in load_bundle(score_bundle).split("test")])


def test_pst_fixed_parameters(score_bundle, tmp_path):
    out = tmp_path / "pst"
    report = run_experiment(_cfg(
        score_bundle, out, "pst",
        pst={"alpha": 0.5, "gamma": 0.5, "delta": 1.0, "k": 5}))
    assert report.accuracy >= 0.9
    assert report.extra["alpha"] == 0.5
    assert (out / "pst.conf").exists()


def test_pst_grid_search_selects_on_validation(score_bundle, tmp_path):
    out = tmp_path / "pstgrid"
    report = run_experiment(_cfg(
        score_bundle, out, "pst",
        grid={"alpha": [0.5], "gamma": [0.5, 1.0], "delta": [0.5, 1.0],
              "k": [5]}))
    assert report.accuracy >= 0.9
    assert "val_accuracy" in report.extra
    assert report.extra["k"] == 5


def test_pst_grid_search_needs_validation_split(tmp_path):
    cfg = SyntheticConfig(seed=14, videos_per_composite=(2, 0, 2))
    data = tmp_path / "noval"
    save_bundle(gen_synthetic(cfg), data)
    with pytest.raises(ConfigError):
        run_experiment(_cfg(str(data), tmp_path / "o", "pst"))
    # fixed parameters still work without validation videos
    report = run_experiment(_cfg(
        str(data), tmp_path / "o2", "pst",
        pst={"alpha": 0.75, "gamma": 0.5, "delta": 1.0, "k": 3}))
    assert report.accuracy >= 0.9


def test_pst_zero_shot_alpha_zero_matches_script(score_bundle, tmp_path):
    script = run_experiment(_cfg(score_bundle, tmp_path / "s", "script"))
    pst = run_experiment(_cfg(
        score_bundle, tmp_path / "z", "pst-zero-shot",
        pst={"alpha": 0.0, "delta": 1.0, "k": 3, "gamma": 0.5}))
    assert pst.accuracy == script.accuracy
    rows_s = _predictions(tmp_path / "s" / "predictions.csv")
    rows_z = _predictions(tmp_path / "z" / "predictions.csv")
    assert [(r[0], r[1]) for r in rows_s] == [(r[0], r[1]) for r in rows_z]
    for a, b in zip(rows_s, rows_z):
        assert a[2] == pytest.approx(b[2], abs=1e-9)


def test_fixed_zero_shot_config_records_gamma_zero(score_bundle, tmp_path):
    # zero-shot propagation seeds with gamma 0 whatever gamma the config
    # gives, and the report and pst.conf say so
    out = tmp_path / "z"
    report = run_experiment(_cfg(
        score_bundle, out, "pst-zero-shot",
        pst={"alpha": 0.75, "delta": 0.5, "k": 3, "gamma": 1.0}))
    assert report.extra["gamma"] == 0.0
    assert load_pst_config(out / "pst.conf").gamma == 0.0
    same = run_experiment(_cfg(
        score_bundle, tmp_path / "z0", "pst-zero-shot",
        pst={"alpha": 0.75, "delta": 0.5, "k": 3, "gamma": 0.0}))
    assert same.extra == report.extra
    assert (out / "predictions.csv").read_bytes() == \
        (tmp_path / "z0" / "predictions.csv").read_bytes()


def test_zero_shot_grid_counts_match_the_benchmark_counters(
        score_bundle, tmp_path, monkeypatch):
    # the traced benchmark counts these calls by module attribute
    # (corpus.match_calls, composites.graph_builds)
    calls = {"match": 0, "knn": []}
    match, knn = corpus.match_count, composites.build_knn_graph

    def counting_match(*args, **kwargs):
        calls["match"] += 1
        return match(*args, **kwargs)

    def counting_knn(*args, **kwargs):
        calls["knn"].append(args[1])
        return knn(*args, **kwargs)

    monkeypatch.setattr(corpus, "match_count", counting_match)
    monkeypatch.setattr(composites, "build_knn_graph", counting_knn)
    bundle = load_bundle(score_bundle)
    out = tmp_path / "grid"
    report = run_experiment(_cfg(score_bundle, out, "pst-zero-shot",
                                 grid={"alpha": [0.5, 0.9],
                                       "delta": [0.25, 1.0],
                                       "k": [5, 3, len(bundle.sequences)]}))
    assert calls["match"] == len(bundle.corpus.scenarios) * len(bundle.vocab)
    assert sorted(calls["knn"]) == [3, 5]
    # the grid's best table is the one a fixed run of that point gives
    fixed = {key: report.extra[key]
             for key in ("alpha", "gamma", "delta", "k")}
    run_experiment(_cfg(score_bundle, tmp_path / "fixed", "pst-zero-shot",
                        pst=fixed))
    for name in ("predictions.csv", "pst.conf"):
        assert (out / name).read_bytes() == \
            (tmp_path / "fixed" / name).read_bytes()


def test_zero_shot_grid_solves_once_per_alpha_and_k(score_bundle, tmp_path,
                                                    monkeypatch):
    # composites.propagate_calls in the traced benchmark counts these
    calls = []
    solve = composites.propagate
    monkeypatch.setattr(composites, "propagate",
                        lambda graph, Y, cfg: calls.append(
                            (cfg.alpha, cfg.k)) or solve(graph, Y, cfg))
    run_experiment(_cfg(score_bundle, tmp_path / "z", "pst-zero-shot"))
    D = len(load_bundle(score_bundle).sequences)
    feasible = {(a, k) for a in DEFAULT_PST_GRID["alpha"]
                for k in DEFAULT_PST_GRID["k"] if k < D}
    assert len(feasible) == 12
    assert sorted(calls) == sorted(feasible)


def test_planted_weights_are_exact_when_noiseless(tmp_path):
    data = tmp_path / "clean"
    save_bundle(gen_synthetic(SyntheticConfig(seed=15, noise=0.0)), data)
    report = run_experiment(_cfg(str(data), tmp_path / "o", "script",
                                 weights="planted"))
    assert report.accuracy == 1.0


# ---------------------------------------------------------------------------
# optional stages

def test_stacking_stage_runs(score_bundle, tmp_path):
    report = run_experiment(_cfg(score_bundle, tmp_path / "stk", "svm",
                                 stack="cooccurrence"))
    assert report.accuracy >= 0.9
    assert report.config["stack"] == "cooccurrence"


def test_segmentation_stage_writes_segments(score_bundle, tmp_path):
    out = tmp_path / "seg"
    report = run_experiment(_cfg(score_bundle, out, "script",
                                 segment_threshold=0.8))
    seg_dir = out / "segments"
    files = list(seg_dir.glob("*.jsonl"))
    assert len(files) == 36      # every sequence gets a file
    assert report.accuracy >= 0.9


def test_segmentation_impossible_threshold_is_noop(score_bundle, tmp_path):
    plain = run_experiment(_cfg(score_bundle, tmp_path / "p", "script"))
    segged = run_experiment(_cfg(score_bundle, tmp_path / "q", "script",
                                 segment_threshold=1.5))
    assert segged.accuracy == plain.accuracy
    assert segged.mean_ap == pytest.approx(plain.mean_ap)


# ---------------------------------------------------------------------------
# feature-mode pipeline (trains attribute classifiers first)

def test_feature_bundle_full_pipeline(feature_bundle, tmp_path):
    out = tmp_path / "feat"
    report = run_experiment(_cfg(feature_bundle, out, "svm"))
    assert (out / "models.npz").exists()
    assert report.accuracy >= 0.8


def test_feature_mode_scores_every_sequence_in_one_call(
        feature_bundle, tmp_path, monkeypatch):
    # the traced benchmark counts attributes.score_calls by wrapping this
    # module attribute; all sequences' intervals are scored as one batch
    calls = []
    score = experiment.score_intervals

    def counting(model_set, features):
        S = score(model_set, features)
        calls.append((model_set, features, S))
        return S

    monkeypatch.setattr(experiment, "score_intervals", counting)
    run_experiment(_cfg(feature_bundle, tmp_path / "o", "svm"))
    assert len(calls) == 1
    model_set, X, S = calls[0]
    seqs = load_bundle(feature_bundle).sequences
    assert np.array_equal(X, np.concatenate([s.features for s in seqs]))
    start = 0
    for s in seqs:
        own = score(model_set, s.features)
        assert np.abs(S[:, start:start + s.num_intervals]
                      - own).max() <= 1e-12
        start += s.num_intervals
    assert start == S.shape[1]


def test_score_attributes_splits_one_product_in_bundle_order(
        feature_bundle):
    bundle = load_bundle(feature_bundle)
    model_set = experiment.train_attributes(bundle, TrainConfig(epochs=20))
    mats = experiment.score_attributes(bundle, model_set)
    assert len(mats) == len(bundle.sequences)
    for s, V in zip(bundle.sequences, mats):
        own = score_intervals(model_set, s.features)
        assert V.shape == own.shape
        assert np.abs(V - own).max() <= 1e-12


def test_stack_attributes_returns_bundle_order(score_bundle):
    bundle = load_bundle(score_bundle)
    mats = [s.scores for s in bundle.sequences]
    got, model_set = experiment.stack_attributes(
        bundle, "context", TrainConfig(epochs=20), mats)
    assert [V.shape for V in got] == [V.shape for V in mats]
    assert model_set.labels == bundle.true_weights.attributes


def test_feature_bundle_base_stacking_allowed(feature_bundle, tmp_path):
    report = run_experiment(_cfg(feature_bundle, tmp_path / "bs", "svm",
                                 stack="base+context"))
    assert report.accuracy >= 0.8


def test_report_records_descent_objectives_and_segment_counts(
        feature_bundle, tmp_path):
    out = tmp_path / "diag"
    report = run_experiment(_cfg(feature_bundle, out, "svm",
                                 stack="base+context", segment_threshold=0.9))
    objective = report.extra["hinge_objective"]
    assert set(objective) == {"attributes", "stacking", "svm"}
    for summary in objective.values():
        assert set(summary) == {"final_objective", "max_relative_change"}
        assert summary["final_objective"] > 0
        assert summary["max_relative_change"] >= 0
    bundle = load_bundle(feature_bundle)
    tcfg = TrainConfig()
    model_set = experiment.train_attributes(bundle, tcfg)
    assert objective["attributes"] == model_set.objective
    _, stacked = experiment.stack_attributes(
        bundle, "base+context", tcfg,
        experiment.score_attributes(bundle, model_set))
    assert objective["stacking"] == stacked.objective
    segments = sum(len((out / "segments" / f"{s.sequence_id}.jsonl")
                       .read_text().splitlines()) for s in bundle.sequences)
    assert report.extra["segmentation"] == {
        "intervals": sum(s.num_intervals for s in bundle.sequences),
        "segments": segments}
    plain = run_experiment(_cfg(feature_bundle, tmp_path / "plain", "nn"))
    assert set(plain.extra["hinge_objective"]) == {"attributes"}
    assert "segmentation" not in plain.extra


def test_default_grid_shape():
    assert set(DEFAULT_PST_GRID) == {"alpha", "gamma", "delta", "k"}
    assert DEFAULT_PST_GRID["alpha"] == (0.5, 0.75, 0.9, 0.99)
    assert DEFAULT_PST_GRID["gamma"] == (0.25, 0.5, 0.75, 1.0)
    assert DEFAULT_PST_GRID["delta"] == (0.1, 0.25, 0.5, 1.0)
    assert DEFAULT_PST_GRID["k"] == (3, 5, 10)
