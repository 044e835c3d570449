import json
import re
import shutil

import numpy as np
import pytest
from scipy.stats import spearmanr

from actkit.composites import script_score, seq_feature
from actkit.corpus import (binarize_weights, build_documents, normalize_l1,
                           tfidf_weights)
from actkit.synth import (FILLER_WORDS, SequenceData, SyntheticBundle,
                          SyntheticConfig, gen_cooccurring_scores,
                          gen_synthetic, load_bundle, save_bundle)


def _tree_bytes(path):
    out = {}
    for p in sorted(path.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(path))] = p.read_bytes()
    return out


# ---------------------------------------------------------------------------
# config validation

def test_config_defaults_are_feasible():
    SyntheticConfig()


def test_config_rejects_infeasible_combinations():
    with pytest.raises(ValueError):
        SyntheticConfig(num_activities=5, num_composites=6)
    with pytest.raises(ValueError):
        SyntheticConfig(num_activities=6, num_composites=6,
                        support_activities=2)   # no shared pool left
    with pytest.raises(ValueError):
        SyntheticConfig(support_activities=9, t_range=(8, 12),
                        num_activities=20)
    with pytest.raises(ValueError):
        SyntheticConfig(support_objects=13)
    with pytest.raises(ValueError):
        SyntheticConfig(support_objects=10, support_activities=3,
                        num_objects=12)   # 10 > 3 * 3
    with pytest.raises(ValueError):
        SyntheticConfig(mode="waveforms")
    with pytest.raises(ValueError):
        SyntheticConfig(videos_per_composite=(3, 1))
    with pytest.raises(ValueError):
        SyntheticConfig(videos_per_composite=(0, 1, 2))
    with pytest.raises(ValueError):
        SyntheticConfig(t_range=(5, 4))
    with pytest.raises(ValueError):
        SyntheticConfig(noise=-0.1)
    with pytest.raises(ValueError):
        SyntheticConfig(filler_rate=1.0)
    with pytest.raises(ValueError, match="t_range must be"):
        SyntheticConfig(t_range=(8, 10, 12))
    for field in ("signal", "noise"):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                SyntheticConfig(**{field: bad})


# ---------------------------------------------------------------------------
# structural guarantees

def test_anchor_activities_are_private():
    bundle = gen_synthetic(SyntheticConfig(seed=3))
    W = bundle.true_weights
    Z = len(bundle.composites)
    for z, comp in enumerate(bundle.composites):
        anchor = f"act{z:02d}"
        col = W.attributes.index(anchor)
        assert W.values[z, col] > 0
        others = [W.values[zz, col] for zz in range(Z) if zz != z]
        assert all(v == 0 for v in others)


def test_planted_weights_rows_normalized():
    bundle = gen_synthetic(SyntheticConfig(seed=1))
    sums = bundle.true_weights.values.sum(axis=1)
    assert sums == pytest.approx(np.ones(len(bundle.composites)))


def test_every_video_covers_its_support():
    cfg = SyntheticConfig(seed=7)
    bundle = gen_synthetic(cfg)
    W = bundle.true_weights
    for seq in bundle.sequences:
        z = bundle.composites.index(seq.composite)
        support = {a for a, w in zip(W.attributes, W.values[z]) if w > 0}
        present = {a for attrs in seq.interval_attributes for a in attrs}
        assert support <= present
        # and nothing outside the support ever shows up
        assert present <= support


def test_interval_layout_is_uniform_spans():
    bundle = gen_synthetic(SyntheticConfig(seed=2))
    for seq in bundle.sequences:
        t_min, t_max = bundle.config.t_range
        assert t_min <= seq.num_intervals <= t_max
        for i, (s, e) in enumerate(seq.intervals):
            assert (s, e) == (i * 60, i * 60 + 59)


def test_video_counts_per_split():
    cfg = SyntheticConfig(seed=4, videos_per_composite=(2, 1, 3))
    bundle = gen_synthetic(cfg)
    for comp in bundle.composites:
        mine = [s for s in bundle.sequences if s.composite == comp]
        by_split = {split: sum(1 for s in mine if s.split == split)
                    for split in ("train", "val", "test")}
        assert by_split == {"train": 2, "val": 1, "test": 3}


def test_scores_mode_shapes_and_signal():
    cfg = SyntheticConfig(seed=5, noise=0.0)
    bundle = gen_synthetic(cfg)
    labels = bundle.true_weights.attributes
    for seq in bundle.sequences:
        assert seq.features is None
        assert seq.scores.shape == (len(labels), seq.num_intervals)
        for t, attrs in enumerate(seq.interval_attributes):
            for i, a in enumerate(labels):
                expected = cfg.signal if a in attrs else 0.0
                assert seq.scores[i, t] == expected


def test_features_mode_shapes():
    cfg = SyntheticConfig(seed=6, mode="features", feature_dim=16)
    bundle = gen_synthetic(cfg)
    for seq in bundle.sequences:
        assert seq.scores is None
        assert seq.features.shape == (seq.num_intervals, 16)


def test_background_intervals_appear():
    cfg = SyntheticConfig(seed=8, background_rate=0.5, t_range=(10, 12))
    bundle = gen_synthetic(cfg)
    empties = sum(1 for seq in bundle.sequences
                  for attrs in seq.interval_attributes if not attrs)
    assert empties > 0


def test_scripts_mention_every_support_attribute():
    bundle = gen_synthetic(SyntheticConfig(seed=9))
    W = bundle.true_weights
    for z, comp in enumerate(bundle.composites):
        support = {a for a, w in zip(W.attributes, W.values[z]) if w > 0}
        for steps in bundle.corpus.scenarios[comp]:
            tokens = set(" ".join(steps).split())
            assert support <= tokens
            # no token outside support + fillers
            assert tokens <= support | set(FILLER_WORDS)


def test_fillers_do_not_collide_with_labels():
    bundle = gen_synthetic(SyntheticConfig())
    assert not set(FILLER_WORDS) & set(bundle.true_weights.attributes)


# ---------------------------------------------------------------------------
# determinism

def test_generation_deterministic():
    a = gen_synthetic(SyntheticConfig(seed=21))
    b = gen_synthetic(SyntheticConfig(seed=21))
    assert a.true_weights.values == pytest.approx(b.true_weights.values, abs=0)
    assert a.corpus.scenarios == b.corpus.scenarios
    for sa, sb in zip(a.sequences, b.sequences):
        assert sa.sequence_id == sb.sequence_id
        assert sa.interval_attributes == sb.interval_attributes
        assert np.array_equal(sa.scores, sb.scores)


def test_seed_changes_output():
    a = gen_synthetic(SyntheticConfig(seed=0))
    b = gen_synthetic(SyntheticConfig(seed=1))
    assert not np.array_equal(a.true_weights.values, b.true_weights.values)


def test_saved_bundles_byte_identical(tmp_path):
    cfg = SyntheticConfig(seed=13)
    d1, d2 = tmp_path / "one", tmp_path / "two"
    save_bundle(gen_synthetic(cfg), d1)
    save_bundle(gen_synthetic(cfg), d2)
    t1, t2 = _tree_bytes(d1), _tree_bytes(d2)
    assert t1.keys() == t2.keys()
    for name in t1:
        assert t1[name] == t2[name], f"{name} differs between runs"


def test_bundle_round_trip(tmp_path):
    for mode in ("scores", "features"):
        cfg = SyntheticConfig(seed=17, mode=mode)
        bundle = gen_synthetic(cfg)
        out = tmp_path / mode
        save_bundle(bundle, out)
        loaded = load_bundle(out)
        assert loaded.config == cfg
        assert loaded.composites == bundle.composites
        assert loaded.vocab.entries == bundle.vocab.entries
        assert loaded.corpus.scenarios == bundle.corpus.scenarios
        assert np.allclose(loaded.true_weights.values,
                           bundle.true_weights.values, atol=1e-8)
        assert len(loaded.sequences) == len(bundle.sequences)
        for sa, sb in zip(bundle.sequences, loaded.sequences):
            assert sa.sequence_id == sb.sequence_id
            assert sa.split == sb.split
            assert sa.intervals == sb.intervals
            assert sa.interval_attributes == sb.interval_attributes
            if mode == "scores":
                assert np.array_equal(sa.scores, sb.scores)
            else:
                assert np.array_equal(sa.features, sb.features)


@pytest.fixture(scope="module")
def saved_bundles(tmp_path_factory):
    out = {}
    for mode in ("scores", "features"):
        path = tmp_path_factory.mktemp("bundles") / mode
        save_bundle(gen_synthetic(SyntheticConfig(seed=3, mode=mode,
                                                  feature_dim=8)), path)
        out[mode] = path
    return out


def _edit_lines(path, edit):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(edit(lines)))


def _edit_sequences(path, edit=None):
    meta = json.loads((path / "sequences.json").read_text())
    if edit is not None:
        edit(meta)
        (path / "sequences.json").write_text(json.dumps(meta))
    return meta


def _drop_annotation(path):
    _edit_lines(path / "annotations.jsonl", lambda ls: ls[:1] + ls[2:])
    return "annotations.jsonl", json.loads(
        (path / "annotations.jsonl").read_text().splitlines()[0])["video"]


def _drop_sequence_annotations(path):
    sid = _edit_sequences(path)[4]["sequence_id"]
    _edit_lines(path / "annotations.jsonl",
                lambda ls: [ln for ln in ls
                            if json.loads(ln)["video"] != sid])
    return "annotations.jsonl", sid


def _shift_annotation_frame(path):
    def edit(lines):
        rec = json.loads(lines[3])
        rec["end_frame"] += 1
        lines[3] = json.dumps(rec) + "\n"
        return lines
    _edit_lines(path / "annotations.jsonl", edit)
    return "annotations.jsonl", json.loads(
        (path / "annotations.jsonl").read_text().splitlines()[3])["video"]


def _ghost_annotation(path):
    def edit(lines):
        rec = json.loads(lines[0])
        rec["video"] = "ghost"
        return lines + [json.dumps(rec) + "\n"]
    _edit_lines(path / "annotations.jsonl", edit)
    return "annotations.jsonl", "ghost"


def _shift_offset(path):
    meta = _edit_sequences(path,
                           lambda m: m[2].update(offset=m[2]["offset"] + 1))
    return "sequences.json", meta[2]["sequence_id"]


def _overrun_columns(path):
    def edit(meta):
        meta[-1]["num_intervals"] += 1
        meta[-1]["intervals"].append([0, 59])
    meta = _edit_sequences(path, edit)
    return "sequences.json", meta[-1]["sequence_id"]


def _extra_column(path):
    obs = np.load(path / "observations.npy")
    np.save(path / "observations.npy", np.hstack([obs, obs[:, :1]]))
    return "observations.npy", None


def _drop_row(path):
    obs = np.load(path / "observations.npy")
    np.save(path / "observations.npy", obs[:-1])
    return "observations.npy", None


def _nan_observation(path):
    obs = np.load(path / "observations.npy")
    obs[1, 2] = np.nan
    np.save(path / "observations.npy", obs)
    return "observations.npy", None


def _inf_observation(path):
    obs = np.load(path / "observations.npy")
    obs[0, -1] = -np.inf
    np.save(path / "observations.npy", obs)
    return "observations.npy", None


def _swap_vocab(path):
    _edit_lines(path / "vocab.csv", lambda ls: [ls[1], ls[0]] + ls[2:])
    return "weights.csv", None


def _edit_config(path, edit):
    raw = json.loads((path / "config.json").read_text())
    (path / "config.json").write_text(json.dumps(edit(raw)))
    return "config.json", None


def _nan_signal(path):
    return _edit_config(path, lambda raw: dict(raw, signal=float("nan")))


def _extra_config_key(path):
    return _edit_config(path, lambda raw: dict(raw, flux=1.0))


def _config_not_object(path):
    return _edit_config(path, lambda raw: list(raw.items()))


def _config_not_json(path):
    (path / "config.json").write_text("{\n,}\n")
    return "config.json", None


def _sequences_not_json(path):
    text = (path / "sequences.json").read_text()
    (path / "sequences.json").write_text(text[:len(text) // 2])
    return "sequences.json", None


def _sequence_without_offset(path):
    _edit_sequences(path, lambda m: m[1].pop("offset"))
    return "sequences.json", None


def _sequence_not_object(path):
    _edit_sequences(path, lambda m: m.__setitem__(0, "s0"))
    return "sequences.json", None


@pytest.mark.parametrize("mode", ["scores", "features"])
@pytest.mark.parametrize("corrupt", [
    _drop_annotation, _drop_sequence_annotations, _shift_annotation_frame,
    _ghost_annotation, _shift_offset, _overrun_columns, _extra_column,
    _drop_row, _nan_observation, _inf_observation, _swap_vocab,
    _nan_signal, _extra_config_key, _config_not_object, _config_not_json,
    _sequences_not_json, _sequence_without_offset, _sequence_not_object])
def test_load_bundle_rejects_misaligned_parts(saved_bundles, tmp_path, mode,
                                              corrupt):
    path = tmp_path / "bundle"
    shutil.copytree(saved_bundles[mode], path)
    load_bundle(path)
    name, sid = corrupt(path)
    with pytest.raises(ValueError, match=re.escape(str(path / name))) as err:
        load_bundle(path)
    if sid is not None:
        assert repr(sid) in str(err.value)


@pytest.mark.parametrize("corrupt, words", [
    (_config_not_json, "invalid JSON: Expecting property name"),
    (_sequences_not_json, "invalid JSON: "),
    (_sequence_without_offset, "entry 1: missing fields ['offset']"),
    (_sequence_not_object, "entry 0: expected a JSON object, got str"),
])
def test_load_bundle_names_the_broken_json_file(saved_bundles, tmp_path,
                                                corrupt, words):
    path = tmp_path / "bundle"
    shutil.copytree(saved_bundles["scores"], path)
    name, _ = corrupt(path)
    with pytest.raises(ValueError) as err:
        load_bundle(path)
    assert str(err.value).startswith(f"{path / name}: {words}")


@pytest.mark.parametrize("edit, words", [
    ({"feature_dim": 32.0}, "feature_dim must be an integer, got 32.0"),
    ({"seed": 4.5}, "seed must be an integer, got 4.5"),
    ({"num_composites": "6"}, "num_composites must be an integer, got '6'"),
    ({"signal": True}, "signal must be a number, got True"),
    ({"noise": "0.5"}, "noise must be a number, got '0.5'"),
    ({"mode": "mixed"}, "mode must be one of 'scores', 'features', got "
     "'mixed'"),
    ({"videos_per_composite": [3, 1]}, "videos_per_composite must be a list "
     "of 3 integers, got [3, 1]"),
    ({"t_range": [8, 12.0]}, "t_range must be a list of 2 integers, got "
     "[8, 12.0]"),
], ids=["dim-float", "seed-float", "count-str", "signal-bool", "noise-str",
        "mode", "videos-short", "t_range-float"])
def test_load_bundle_config_field_error_names_file_and_field(
        saved_bundles, tmp_path, edit, words):
    path = tmp_path / "bundle"
    shutil.copytree(saved_bundles["scores"], path)
    _edit_config(path, lambda raw: dict(raw, **edit))
    with pytest.raises(ValueError) as err:
        load_bundle(path)
    assert str(err.value) == f"{path / 'config.json'}: {words}"


def test_load_bundle_config_missing_field_takes_its_default(saved_bundles,
                                                            tmp_path):
    path = tmp_path / "bundle"
    shutil.copytree(saved_bundles["scores"], path)
    _edit_config(path, lambda raw: {k: v for k, v in raw.items()
                                    if k not in ("noise", "t_range")})
    cfg = load_bundle(path).config
    assert (cfg.noise, cfg.t_range) == (SyntheticConfig.noise,
                                        SyntheticConfig.t_range)
    assert cfg == load_bundle(saved_bundles["scores"]).config


# ---------------------------------------------------------------------------
# signal quality

def test_noiseless_planted_zero_shot_is_exact():
    cfg = SyntheticConfig(seed=31, noise=0.0)
    bundle = gen_synthetic(cfg)
    W = bundle.true_weights
    for seq in bundle.split("test"):
        g = seq_feature(seq.scores)
        scores = script_score(g, W)
        pred = bundle.composites[int(np.argmax(scores))]
        assert pred == seq.composite
        # the true composite's score is exactly signal * 1.0
        assert scores[bundle.composites.index(seq.composite)] == \
            pytest.approx(cfg.signal)


def test_mined_weights_track_planted_weights():
    # wider attribute pool so idf never zeroes a shared support member
    cfg = SyntheticConfig(seed=37, num_activities=12, num_objects=16)
    bundle = gen_synthetic(cfg)
    docs = build_documents(bundle.corpus)
    mined = tfidf_weights(docs, bundle.vocab)
    mined = normalize_l1(mined)
    assert mined.composites == bundle.composites
    for z in range(len(bundle.composites)):
        rho = spearmanr(mined.values[z], bundle.true_weights.values[z]).statistic
        assert rho >= 0.8


def test_cooccurring_scores_structure():
    mats, labels, names = gen_cooccurring_scores(seed=3, num_sequences=5,
                                                 num_intervals=8)
    assert names == ("a0", "a1", "a2", "a3", "a4", "a5")
    assert len(mats) == len(labels) == 5
    saw_first = saw_second = False
    for S, L in zip(mats, labels):
        assert S.shape == (6, 8)
        assert L.shape == (6, 8)
        # each group fires as a block, and the groups never overlap
        assert np.array_equal(L[0], L[1]) and np.array_equal(L[1], L[2])
        assert np.array_equal(L[3], L[4]) and np.array_equal(L[4], L[5])
        assert not np.any(L[0] & L[3])
        saw_first |= bool(L[0].any())
        saw_second |= bool(L[3].any())
    assert saw_first and saw_second
    again, _, _ = gen_cooccurring_scores(seed=3, num_sequences=5,
                                         num_intervals=8)
    assert all(np.array_equal(a, b) for a, b in zip(mats, again))


def test_split_helper_and_annotations():
    bundle = gen_synthetic(SyntheticConfig(seed=41))
    train = bundle.split("train")
    assert all(s.split == "train" for s in train)
    assert len(train) == 6 * 3
    with pytest.raises(ValueError):
        bundle.split("holdout")
    recs = bundle.annotations()
    assert sum(s.num_intervals for s in bundle.sequences) == len(recs)
    assert {r["video"] for r in recs} == \
        {s.sequence_id for s in bundle.sequences}
