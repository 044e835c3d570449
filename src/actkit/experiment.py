"""End-to-end experiment driver over generated benchmark bundles.

A JSON config names a data bundle, an output directory and a
classification mode, plus optional pipeline stages.  The driver mines
weights from the bundle's scripts (or takes the planted ones), obtains
per-interval attribute scores (directly, or by training classifiers on
interval features), optionally refines them by stacking and merges
similar adjacent intervals, pools each sequence to a single vector and
classifies the test split.  Intermediates and an evaluation report are
written to the output directory.  The CLI shares the attribute stages:
train_attributes returns a model set, score_attributes per-sequence
arrays in bundle order, and stack_attributes those arrays and its
fitted table.

Modes: "svm" and "nn" are supervised, "script" and "nn-script" transfer
from the weight matrix, "pst" propagates script scores over a sequence
graph (semi-supervised) and "pst-zero-shot" does the same without any
labeled sequences, that is with no labels and gamma 0.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import os

import numpy as np

from .attributes import (LinearModelSet, STACK_MODES, TrainConfig,
                         save_models_npz, score_intervals,
                         train_and_score_stacked, train_linear_ova)
from .composites import (PstConfig, classify_nn, classify_svm,
                         nn_script_classify, pst_grid_scores,
                         save_predictions_csv, save_pst_config, script_score,
                         seq_feature)
from .corpus import (build_documents, normalize_l1, save_weights_csv,
                     tfidf_weights)
from .metrics import EvalReport, accuracy, confusion_counts, \
    mean_average_precision
from .synth import load_bundle
from .temporal import Segment, merge_adjacent, save_segments_jsonl


class ConfigError(Exception):
    """A problem with the experiment configuration itself."""


MODES = ("svm", "nn", "script", "nn-script", "pst", "pst-zero-shot")

DEFAULT_PST_GRID = {
    "alpha": (0.5, 0.75, 0.9, 0.99),
    "gamma": (0.25, 0.5, 0.75, 1.0),
    "delta": (0.1, 0.25, 0.5, 1.0),
    "k": (3, 5, 10),
}

_DEFAULTS = {"weights": "mined", "stack": None, "segment_threshold": None,
             "lam": TrainConfig.lam, "epochs": TrainConfig.epochs}
_KNOWN_KEYS = {"data", "output", "mode", "pst", "grid", *_DEFAULTS}
_PST_KEYS = {"alpha", "gamma", "delta", "k"}


def load_config(path) -> dict:
    """Read a JSON config; relative paths resolve against its directory."""
    with open(path, encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except ValueError as exc:           # not JSON, or not UTF-8
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    base = os.path.dirname(os.path.abspath(path))
    for key in ("data", "output"):
        if key in cfg and not isinstance(cfg[key], str):
            raise ConfigError(f"{path}: {key} must be a path string, got "
                              f"{cfg[key]!r}")
        if key in cfg:                      # an absolute path stays as is
            cfg[key] = os.path.join(base, cfg[key])
    return cfg


def _number(name, value, integer, make):
    """Raise ConfigError unless value is a finite number (an integer if
    asked; JSON booleans are not) that the config class make accepts."""
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind) \
            or not math.isfinite(value):
        what = "an integer" if integer else "a finite number"
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    try:
        make(value)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def _validate(cfg: dict) -> dict:
    unknown = set(cfg) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in ("data", "output", "mode"):
        if key not in cfg:
            raise ConfigError(f"config is missing required key {key!r}")
    if cfg["mode"] not in MODES:
        raise ConfigError(f"unknown mode {cfg['mode']!r}; pick one of {MODES}")
    out = dict(cfg)
    for key, value in _DEFAULTS.items():
        out.setdefault(key, value)
    if out["weights"] not in ("mined", "planted"):
        raise ConfigError(f"weights must be 'mined' or 'planted', "
                          f"got {out['weights']!r}")
    stack = out["stack"]        # a JSON list would not hash
    if stack is not None and not (isinstance(stack, str)
                                  and stack in STACK_MODES):
        raise ConfigError(f"unknown stack mode {stack!r}")
    if out["segment_threshold"] is not None:
        _number("segment_threshold", out["segment_threshold"], False, float)
        out["segment_threshold"] = float(out["segment_threshold"])
    for key in ("pst", "grid"):
        block = out.get(key)
        if block is None:
            continue
        if not isinstance(block, dict):
            raise ConfigError(f"{key} must be an object")
        bad = set(block) - _PST_KEYS
        if bad:
            raise ConfigError(f"unknown {key} keys: {sorted(bad)}")
        for name, vals in block.items():
            values = np.atleast_1d(vals) if key == "grid" else [vals]
            if len(values) == 0:
                raise ConfigError(f"grid.{name} lists no values")
            for v in values:
                _number(f"{key}.{name}", v, name == "k",
                        lambda x: PstConfig(**{name: x}))
    train_config(out["lam"], out["epochs"])
    return out


def train_config(lam, epochs) -> TrainConfig:
    """TrainConfig from user-supplied values; a bad one is a ConfigError."""
    _number("lam", lam, False, lambda x: TrainConfig(lam=x))
    _number("epochs", epochs, True, lambda x: TrainConfig(epochs=x))
    return TrainConfig(lam=lam, epochs=epochs)


def _resolve_weights(bundle, cfg):
    if cfg["weights"] == "planted":
        return bundle.true_weights
    docs = build_documents(bundle.corpus)
    mined = tfidf_weights(docs, bundle.vocab)
    return normalize_l1(mined)


def train_attributes(bundle, tcfg) -> LinearModelSet:
    """Attribute models, one row per bundle attribute, trained on the
    train-split intervals of a features bundle."""
    if bundle.config.mode != "features":
        raise ConfigError("training needs a bundle generated in features "
                          "mode; this one carries precomputed scores")
    train = bundle.split("train")
    X = np.concatenate([s.features for s in train], axis=0)
    labels = [set(a) for s in train for a in s.interval_attributes]
    return train_linear_ova(X, labels, bundle.true_weights.attributes, tcfg)


def score_attributes(bundle, model_set) -> list:
    """(n_attrs, T) score matrices of a features bundle's sequences, in
    bundle order, from one score_intervals product over all intervals."""
    seqs = bundle.sequences
    S = score_intervals(model_set,
                        np.concatenate([s.features for s in seqs], axis=0))
    return np.split(S, np.cumsum([s.num_intervals for s in seqs])[:-1],
                    axis=1)


def stack_attributes(bundle, mode, tcfg, mats):
    """The per-sequence score matrices mats (bundle order) refined by
    stacking classifiers of the given mode, trained on the train split,
    and the fitted table: train_and_score_stacked's (refined, model_set)."""
    seqs = bundle.sequences
    train = [d for d, s in enumerate(seqs) if s.split == "train"]
    return train_and_score_stacked(
        [mats[d] for d in train],
        [[set(a) for a in seqs[d].interval_attributes] for d in train],
        mats, bundle.true_weights.attributes, mode,
        [seqs[d].features for d in train], [s.features for s in seqs], tcfg)


def _apply_segmentation(bundle, cfg, mats, out_dir):
    """Merge adjacent intervals with cosine-similar score columns.

    Each merged segment contributes the mean of its member columns, and
    the merged frame ranges are written one JSONL file per sequence.
    """
    threshold = cfg["segment_threshold"]
    seg_dir = os.path.join(out_dir, "segments")
    os.makedirs(seg_dir, exist_ok=True)
    out = []
    for seq, V in zip(bundle.sequences, mats):
        runs, sums = merge_adjacent(V.T, threshold)
        out.append((sums / (runs[:, 1] - runs[:, 0] + 1)[:, None]).T)
        segs = [Segment(seq.intervals[a][0], seq.intervals[b][1])
                for a, b in runs]
        save_segments_jsonl(segs, os.path.join(
            seg_dir, f"{seq.sequence_id}.jsonl"))
    return out


def _pst_grid(cfg, zero_shot):
    grid = {k: list(v) for k, v in DEFAULT_PST_GRID.items()}
    for key, vals in (cfg.get("grid") or {}).items():
        grid[key] = list(np.atleast_1d(vals))
    if zero_shot:
        grid["gamma"] = [0.0]
    for alpha, gamma, delta, k in itertools.product(
            grid["alpha"], grid["gamma"], grid["delta"], grid["k"]):
        yield PstConfig(alpha=float(alpha), gamma=float(gamma),
                        delta=float(delta), k=int(k))


def _check_bundle(cfg, bundle):
    """Raise the config errors that only the loaded bundle shows (stack
    modes, pst.k, the propagation grid), before run writes anything."""
    if cfg["stack"] is not None and bundle.config.mode == "scores" \
            and STACK_MODES[cfg["stack"]][0]:
        raise ConfigError(f"stack mode {cfg['stack']!r} needs interval "
                          "features, but the bundle only carries scores")
    if cfg["mode"] not in ("pst", "pst-zero-shot"):
        return
    D = len(bundle.sequences)
    if cfg.get("pst") is not None:
        k = cfg["pst"].get("k", PstConfig.k)
        if k >= D:
            raise ConfigError(f"pst.k = {k} needs more than {k} sequences, "
                              f"the bundle has {D}")
        return
    if not any(s.split == "val" for s in bundle.sequences):
        raise ConfigError("propagation grid search needs a validation "
                          "split; give fixed 'pst' parameters instead")
    if all(p.k >= D for p in _pst_grid(cfg, cfg["mode"] == "pst-zero-shot")):
        raise ConfigError("no feasible grid point: every k was at least "
                          "the number of sequences")


def _predict(scores, comps) -> list:
    """The composite of each row's highest score in an (M, Z) table; a
    tie goes to the lowest composite index."""
    return [comps[z] for z in np.argmax(scores, axis=1)]


def _classify_pst(bundle, cfg, weights, G, splits, out_dir, zero_shot):
    S = script_score(G, weights)
    comps = list(bundle.composites)
    truth = np.array([s.composite for s in bundle.sequences])
    labels = None if zero_shot else np.where(
        splits == "train", np.array(comps)[:, None] == truth, -1)
    fixed = cfg.get("pst")
    extra = {}
    if fixed is not None:
        params = {k: (int(v) if k == "k" else float(v))
                  for k, v in fixed.items()}
        if zero_shot:
            params["gamma"] = 0.0
        best = PstConfig(**params)
        [(_, F)] = pst_grid_scores(S, labels, G, [best])
    else:
        val = splits == "val"
        feasible = [p for p in _pst_grid(cfg, zero_shot) if p.k < len(G)]
        best_acc = -1.0
        for pcfg, Fp in pst_grid_scores(S, labels, G, feasible):
            acc = accuracy(_predict(Fp[:, val].T, comps), truth[val])
            if acc > best_acc:
                best, best_acc, F = pcfg, acc, Fp
        extra["val_accuracy"] = best_acc
    extra.update({"alpha": best.alpha, "gamma": best.gamma,
                  "delta": best.delta, "k": best.k})
    save_pst_config(best, os.path.join(out_dir, "pst.conf"))
    return F[:, splits == "test"].T, extra


def run_experiment(config) -> EvalReport:
    """Run one configured experiment and return its evaluation report.

    config is a dict or a path to a JSON file, which config errors name
    and whose relative data/output paths resolve against its directory.
    """
    path = config if isinstance(config, (str, os.PathLike)) else None
    raw = dict(config) if path is None else load_config(path)
    try:
        cfg = _validate(raw)
        bundle = load_bundle(cfg["data"])
        _check_bundle(cfg, bundle)
    except ConfigError as exc:
        raise exc if path is None else ConfigError(f"{path}: {exc}")
    mode = cfg["mode"]
    out_dir = cfg["output"]
    os.makedirs(out_dir, exist_ok=True)
    comps = list(bundle.composites)
    weights = _resolve_weights(bundle, cfg)
    save_weights_csv(weights, os.path.join(out_dir, "weights.csv"))

    tcfg = TrainConfig(lam=cfg["lam"], epochs=cfg["epochs"])
    extra = {}
    objective = {}          # each fitted table's objective, by fit
    if bundle.config.mode == "scores":
        mats = [s.scores for s in bundle.sequences]
    else:
        model_set = train_attributes(bundle, tcfg)
        save_models_npz(model_set, os.path.join(out_dir, "models.npz"))
        if model_set.skipped:
            extra["skipped_attributes"] = [a for a, _ in model_set.skipped]
        objective["attributes"] = model_set.objective
        mats = score_attributes(bundle, model_set)
    if cfg["stack"] is not None:
        mats, stacked = stack_attributes(bundle, cfg["stack"], tcfg, mats)
        objective["stacking"] = stacked.objective
    if cfg["segment_threshold"] is not None:
        intervals = sum(V.shape[1] for V in mats)
        mats = _apply_segmentation(bundle, cfg, mats, out_dir)
        extra["segmentation"] = {"intervals": intervals, "segments":
                                 sum(V.shape[1] for V in mats)}
    pooled = np.stack([seq_feature(V) for V in mats])

    splits = np.array([s.split for s in bundle.sequences])
    Xtr, Xte = pooled[splits == "train"], pooled[splits == "test"]
    ytr = [s.composite for s in bundle.split("train")]
    test = bundle.split("test")
    truth = [s.composite for s in test]

    if mode == "svm":
        scores, rep, svm = classify_svm(Xtr, ytr, Xte, comps, config=tcfg)
        objective["svm"] = svm.objective
        if rep["skipped"] or rep["trained_without_negatives"]:
            extra["svm"] = rep
    elif mode == "nn":
        scores = classify_nn(Xtr, ytr, Xte, comps)
    elif mode == "script":
        scores = script_score(Xte, weights).T
    elif mode == "nn-script":
        scores, excluded = nn_script_classify(Xtr, ytr, Xte, weights, comps)
        if excluded:
            extra["excluded_weight_rows"] = list(excluded)
    else:   # pst / pst-zero-shot
        scores, pst_extra = _classify_pst(
            bundle, cfg, weights, pooled, splits, out_dir,
            zero_shot=(mode == "pst-zero-shot"))
        extra.update(pst_extra)
    preds = _predict(scores, comps)
    objective = {fit: v for fit, v in objective.items() if v is not None}
    if objective:
        extra["hinge_objective"] = objective

    rows = [(seq.sequence_id, comps[z], float(scores[m, z]))
            for m, seq in enumerate(test) for z in range(len(comps))]
    save_predictions_csv(rows, os.path.join(out_dir, "predictions.csv"))

    per_label = {c: (scores[:, z], [1 if t == c else 0 for t in truth])
                 for z, c in enumerate(comps)}
    mean_ap, aps, ap_excluded = mean_average_precision(per_label)
    report = EvalReport(
        task=f"composite-{mode}",
        mean_ap=mean_ap,
        per_label_ap=aps,
        accuracy=accuracy(preds, truth),
        labels=tuple(comps),
        confusion=confusion_counts(truth, preds, comps),
        excluded=ap_excluded,
        config={k: v for k, v in cfg.items()},
        extra=extra)
    report.save(os.path.join(out_dir, "report.json"))
    return report
