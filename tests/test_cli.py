import json

import numpy as np
import pytest

from actkit.attributes import (TrainConfig, save_annotations,
                               save_models_npz, train_linear_ova)
from actkit.cli import main
from actkit.corpus import load_weights_csv
from actkit.metrics import load_report
from actkit.psinfer import load_placements_csv
from actkit.synth import SyntheticConfig, gen_synthetic, load_bundle, \
    save_bundle
from actkit.temporal import (Detection, load_detections_csv,
                             load_segments_jsonl, save_detections_csv)


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
    files = list(scores_dir.glob("*.csv"))
    assert len(files) == 36


def test_train_attributes_rejects_score_bundles(score_bundle, tmp_path):
    rc = main(["train-attributes", "--bundle", score_bundle,
               "--output", str(tmp_path / "m.npz")])
    assert rc == 1


def test_stack_command(score_bundle, tmp_path):
    out = tmp_path / "stacked"
    rc = main(["stack", "--bundle", score_bundle, "--mode", "context",
               "--output", str(out), "--epochs", "50"])
    assert rc == 0
    assert len(list(out.glob("*.csv"))) == 36


def test_stack_base_mode_rejected_for_scores(score_bundle, tmp_path):
    rc = main(["stack", "--bundle", score_bundle, "--mode", "base+context",
               "--output", str(tmp_path / "s")])
    assert rc == 1


@pytest.mark.parametrize("command", ["train-attributes", "stack"])
@pytest.mark.parametrize("flag, value, words", [
    ("--lam", "-1", "lam must be positive"),
    ("--lam", "nan", "lam must be a finite number"),
    ("--epochs", "0", "epochs must be at least 1"),
    ("--seed", "-3", "seed must be non-negative"),
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


def test_detect_unknown_attribute_exit_1(tmp_path):
    models = _hist_models(tmp_path / "m.npz")
    np.save(tmp_path / "c.npy", np.ones((60, 3)))
    rc = main(["detect", "--counts", str(tmp_path / "c.npy"),
               "--models", str(models), "--attribute", "ghost",
               "--output", str(tmp_path / "d.csv")])
    assert rc == 1


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


# ---------------------------------------------------------------------------
# composite classification and experiments

def test_classify_composites_command(score_bundle, tmp_path, capsys):
    out = tmp_path / "cc"
    rc = main(["classify-composites", "--bundle", score_bundle,
               "--output", str(out), "--mode", "script"])
    assert rc == 0
    assert "accuracy" in capsys.readouterr().out
    report = load_report(out / "report.json")
    assert report.accuracy >= 0.9


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


@pytest.mark.parametrize("bad, words", [
    ({"lam": -1}, "lam must be positive"),
    ({"lam": "0.1"}, "lam must be a finite number"),
    ({"epochs": "x"}, "epochs must be an integer"),
    ({"epochs": 0}, "epochs must be at least 1"),
    ({"epochs": 2.5}, "epochs must be an integer"),
    ({"seed": True}, "seed must be an integer"),
    ({"seed": -3}, "seed must be non-negative"),
    ({"mode": "pst", "pst": {"alpha": 2}}, "pst.alpha"),
    ({"mode": "pst", "pst": {"k": "5"}}, "pst.k must be an integer"),
    ({"mode": "pst", "grid": {"delta": [0.5, 0]}}, "grid.delta"),
    ({"mode": "pst", "grid": {"gamma": [0.5, None]}}, "grid.gamma"),
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


def test_bad_subcommand_usage_exits():
    with pytest.raises(SystemExit):
        main(["classify-composites"])      # missing required flags


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
    # the algorithm default follows the mode, so this just works
    rc = main(["pose-infer", "--grids", str(tmp_path / "g.npy"),
               "--output", str(out), "--mode", "marginal",
               "--scale", "0.05"])
    assert rc == 0
    data = np.load(out)
    assert len(data.files) == 10
    for part in data.files:
        assert data[part].sum() == pytest.approx(1.0)


def test_pose_infer_marginal_rejects_explicit_dt(tmp_path):
    np.save(tmp_path / "g.npy", np.ones((10, 4, 4)))
    rc = main(["pose-infer", "--grids", str(tmp_path / "g.npy"),
               "--output", str(tmp_path / "p.npz"), "--mode", "marginal",
               "--algorithm", "distance_transform"])
    assert rc == 1


@pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
def test_pose_infer_bad_scale_exit_1(tmp_path, capsys, scale):
    np.save(tmp_path / "g.npy", np.ones((10, 4, 4)))
    out = tmp_path / "p.csv"
    rc = main(["pose-infer", "--grids", str(tmp_path / "g.npy"),
               "--output", str(out), "--scale", scale])
    assert rc == 1
    assert "scale must be finite and positive" in capsys.readouterr().err
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
    report = load_report(out)
    assert report.mean_ap == pytest.approx(1.0)
    assert "mean AP" in capsys.readouterr().out
