"""Linear attribute classifiers and score stacking.

Attributes (fine-grained activities and manipulated objects) are scored
on time intervals by one-vs-all linear classifiers.  One batched trainer,
a deterministic full-batch subgradient descent on the L2-regularized
hinge loss that updates all labels at once, serves every one-vs-all
problem in the package.  Scores are z-normalized with training
statistics; a score table is an (A, T) array, rows in label order.
Two score-derived features support a second level: the context feature
(element-wise maximum of all other intervals of the sequence) and the
co-occurrence feature (the score vector of the interval itself with the
target attribute removed).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .tables import (INT, NUMBER, STR, STR_PAIRS, STRS, check_records,
                     names_file, parse_json, read_json_lines)

DEFAULT_FLOOR = -10.0


@dataclass
class TrainConfig:
    """Hyper-parameters of the hinge-loss subgradient trainer.

    lam is the L2 regularization strength, the learning rate at epoch t
    is 1 / (lam * t).  The descent starts from zero and draws no random
    numbers, so the two values decide the fit.  Scores are always
    z-normalized, and attributes that could not be trained score
    DEFAULT_FLOOR.
    """

    lam: float = 0.01
    epochs: int = 200

    def __post_init__(self):
        if not self.lam > 0:                # false for NaN as well
            raise ValueError("lam must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")


@dataclass(eq=False)
class LinearModelSet:
    """The fitted one-vs-all table of a list of attributes.

    models holds one row [weights | bias, score mean, score std,
    constant] per trained attribute, in label order: the descent table
    and the training score statistics of _fit_ova.  trained marks the
    labels that have a row; skipped lists (label, reason) pairs for
    attributes without both a positive and a negative training example.
    """

    models: np.ndarray
    trained: np.ndarray
    labels: tuple
    skipped: tuple
    config: TrainConfig
    feature_dim: int


def _hinge_descent_batch(X, Y, lam, epochs, mask=1.0):
    """Full-batch subgradient descent on the hinge loss for every column
    of the (m, A) +-1 targets Y at once.  The bias is an extra always-one
    feature, so W is (D + 1, A) and all of it follows the 1/(lam*t)
    schedule.  A 0/1 mask shaped like W zeroes gradient entries; as the
    descent starts from zero, masked weights stay exactly 0.  The (m, A)
    margin and violator buffers are allocated once and reused every
    epoch."""
    Xa = np.hstack([X, np.ones((X.shape[0], 1))])
    W = np.zeros((Xa.shape[1], Y.shape[1]))
    M = np.empty(Y.shape)
    cond = np.empty(Y.shape, dtype=bool)
    for t in range(1, epochs + 1):
        np.matmul(Xa, W, out=M)
        np.multiply(Y, M, out=M)
        np.less(M, 1.0, out=cond)
        np.multiply(Y, cond, out=M)         # the violators' targets, else 0
        W -= (lam * W - Xa.T @ M / len(Y)) * mask / (lam * t)
    return W


def _fit_ova(X, P, cfg: TrainConfig, mask=1.0):
    """Train a label per column of the boolean positives P; returns W and
    the training score mean, std (1 where constant) and constant flags.
    Features so large that the score statistics overflow raise."""
    with np.errstate(over="ignore", invalid="ignore"):
        W = _hinge_descent_batch(X, np.where(P, 1.0, -1.0), cfg.lam,
                                 cfg.epochs, mask)
        scores = X @ W[:-1] + W[-1]
        mean, std = scores.mean(axis=0), scores.std(axis=0)
    if not (np.isfinite(mean).all() and np.isfinite(std).all()):
        raise ValueError("training score mean or std is not finite: the "
                         "features are too large")
    constant = std < 1e-12
    return W, mean, np.where(constant, 1.0, std), constant


def _ova_scores(X, W, mean, std, trained):
    """Apply a table fitted by _fit_ova to the rows of X: the
    (len(trained), m) z-normalized scores, DEFAULT_FLOOR in the rows of
    labels whose trained flag is False; non-finite scores raise."""
    values = np.full((len(trained), X.shape[0]), DEFAULT_FLOOR)
    values[trained] = ((X @ W[:-1] + W[-1] - mean) / std).T
    if not np.isfinite(values).all():
        raise ValueError("score matrix contains non-finite values")
    return values


def _membership(label_sets, names) -> np.ndarray:
    """(len(label_sets), len(names)) boolean table of label presence."""
    return np.array([[a in s for a in names] for s in label_sets],
                    dtype=bool).reshape(len(label_sets), len(names))


def train_linear_ova(features, labels, attribute_labels,
                     config: TrainConfig | None = None) -> LinearModelSet:
    """Train one-vs-all linear classifiers for a list of attributes.

    features: (T, N) array of interval features.
    labels: per-interval sets of attribute labels (ground truth).
    attribute_labels: the attributes to train, in output row order.

    Attributes with no positive or no negative interval are skipped and
    reported in the returned set.  Per-attribute training score mean and
    standard deviation are recorded for later z-normalization; constant
    score distributions are flagged and normalized with unit deviation.
    """
    cfg = config or TrainConfig()
    X = np.asarray(features, dtype=float)
    if X.ndim != 2:
        raise ValueError("features must be a (T, N) array")
    if not np.isfinite(X).all():
        raise ValueError("features contain non-finite values")
    label_sets = [set(s) for s in labels]
    if len(label_sets) != X.shape[0]:
        raise ValueError("label count does not match feature rows")

    attrs = tuple(attribute_labels)
    P = _membership(label_sets, attrs)
    n_pos = P.sum(axis=0)
    ok = (n_pos > 0) & (n_pos < len(P))
    skipped = tuple((a, f"{p} positive / {len(P) - p} negative intervals")
                    for a, p, k in zip(attrs, n_pos, ok) if not k)
    W, mean, std, constant = _fit_ova(X, P[:, ok], cfg)
    return LinearModelSet(np.column_stack([W.T, mean, std, constant]), ok,
                          attrs, skipped, cfg, X.shape[1])


def score_intervals(model_set: LinearModelSet, features) -> np.ndarray:
    """Score intervals with every model: the (A, m) table whose rows
    follow model_set.labels.

    Scores are z-normalized with the stored training statistics.  Rows
    of skipped attributes are filled with DEFAULT_FLOOR.
    """
    X = np.asarray(features, dtype=float)
    if X.ndim != 2 or X.shape[1] != model_set.feature_dim:
        raise ValueError("features do not match the trained dimension")
    if not np.isfinite(X).all():
        raise ValueError("features contain non-finite values")
    table, D = model_set.models, model_set.feature_dim
    return _ova_scores(X, table[:, :D + 1].T, table[:, D + 1],
                       table[:, D + 2], model_set.trained)


# ---------------------------------------------------------------------------
# score-derived features

STACK_MODES = ("context", "cooccurrence", "base+context", "base+cooccurrence", "all")


def _stack_parts(mode):
    if mode not in STACK_MODES:
        raise ValueError(f"unknown stacking mode {mode!r}")
    use_base = mode in ("base+context", "base+cooccurrence", "all")
    use_con = mode in ("context", "base+context", "all")
    use_coocc = mode in ("cooccurrence", "base+cooccurrence", "all")
    return use_base, use_con, use_coocc


def _context_block(S):
    """Leave-one-out row maxima of an (n, T) sequence as (T, n) rows, the
    context feature of each interval: the row maximum, or at the row's
    argmax the runner-up.  One interval has no context: DEFAULT_FLOOR."""
    n, T = S.shape
    if T <= 1:
        return np.full((T, n), DEFAULT_FLOOR)
    second, first = np.partition(S, T - 2, axis=1)[:, -2:].T
    return np.where(np.arange(T)[:, None] == S.argmax(axis=1), second, first)


def _stacked_design(score_mats, feats, use_base, use_con, use_coocc):
    """One design for all attributes: the rows of every interval, laid out
    [base | context | cooccurrence], and the (D + 1, n) 0/1 weight mask
    that removes attribute i's own co-occurrence column from its model."""
    blocks = []
    if use_base:
        if [len(f) for f in feats] != [S.shape[1] for S in score_mats]:
            raise ValueError("base features do not match the score intervals")
        blocks.append(np.concatenate(feats))
    if use_con:
        blocks.append(np.concatenate([_context_block(S) for S in score_mats]))
    if use_coocc:
        blocks.append(np.concatenate([S.T for S in score_mats]))
    X = np.hstack(blocks)
    n = score_mats[0].shape[0]
    mask = np.ones((X.shape[1] + 1, n))
    if use_coocc:
        mask[X.shape[1] - n + np.arange(n), np.arange(n)] = 0.0
    return X, mask


def train_and_score_stacked(train_scores, train_labels, eval_scores, labels,
                            mode, train_features=None, eval_features=None,
                            config: TrainConfig | None = None):
    """Train second-level attribute classifiers on score-derived features.

    train_scores / eval_scores: lists of (A, T) score arrays, one per
    sequence, whose rows follow the attribute labels.  train_labels:
    per sequence, a list of per-interval attribute label sets.  Modes
    "base+..." and "all" additionally concatenate the original feature
    vectors, which must then be passed as per-sequence (T, N) arrays.

    Returns a list of refined (A, T) arrays aligned with eval_scores;
    attributes that never or always occur in training score
    DEFAULT_FLOOR.
    """
    cfg = config or TrainConfig()
    parts = _stack_parts(mode)
    if parts[0] and (train_features is None or eval_features is None):
        raise ValueError(f"mode {mode!r} needs the base feature vectors")
    if not train_scores or not eval_scores:
        raise ValueError("need at least one training and one evaluation sequence")
    S_train = [np.asarray(S, dtype=float) for S in train_scores]
    S_eval = [np.asarray(S, dtype=float) for S in eval_scores]
    for S in S_train + S_eval:
        if S.ndim != 2:
            raise ValueError("score matrix must be 2-D")
        if S.shape[0] != len(labels):
            raise ValueError("score matrix row count does not match labels")
        if not np.isfinite(S).all():
            raise ValueError("score matrix contains non-finite values")
    flat_labels = []
    for d, per_seq in enumerate(train_labels):
        if len(per_seq) != S_train[d].shape[1]:
            raise ValueError(f"sequence {d}: label count does not match intervals")
        flat_labels.extend(set(s) for s in per_seq)

    P = _membership(flat_labels, labels)
    ok = P.any(axis=0) & ~P.all(axis=0)
    Xtr, mask = _stacked_design(S_train, train_features, *parts)
    W, mean, std, _ = _fit_ova(Xtr, P[:, ok], cfg, mask[:, ok])
    del Xtr
    Xev, _ = _stacked_design(S_eval, eval_features, *parts)
    values = _ova_scores(Xev, W, mean, std, ok)
    bounds = np.cumsum([V.shape[1] for V in S_eval])[:-1]
    return np.split(values, bounds, axis=1)


# ---------------------------------------------------------------------------
# file formats

def save_models_npz(model_set: LinearModelSet, path) -> None:
    """Write each row of the table as w_<i> = weights and meta_<i> =
    [bias, mean, std, constant], i being the label's index."""
    arrays = {
        "labels": np.array(json.dumps(list(model_set.labels))),
        "feature_dim": np.array(model_set.feature_dim),
        "config": np.array(json.dumps({
            "lam": model_set.config.lam,
            "epochs": model_set.config.epochs,
        })),
        "skipped": np.array(json.dumps(list(model_set.skipped))),
    }
    D = model_set.feature_dim
    for idx, row in zip(np.flatnonzero(model_set.trained), model_set.models):
        arrays[f"w_{idx}"], arrays[f"meta_{idx}"] = row[:D], row[D:]
    np.savez(path, **arrays)


@names_file
def load_models_npz(path) -> LinearModelSet:
    """Read a model file written by save_models_npz.

    Labels, config and skipped labels are JSON strings and everything
    else is numeric, so loading needs no pickle.  Older files stored the
    labels as a pickled object array; they must be retrained to rewrite
    them.  A config seed, which earlier versions wrote but which never
    had an effect, is ignored.
    """
    # np.load leaves a file it opened open when it is not a valid zip
    with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
        try:
            raw_labels = data["labels"]
        except ValueError:
            raise ValueError("model file in the older format whose labels "
                             "need pickle to load; retrain the models to "
                             "rewrite it") from None
        labels = parse_json(str(raw_labels), "labels")
        skipped = parse_json(str(data["skipped"]), "skipped")
        check_records([{"labels": labels, "skipped": skipped}],
                      {"labels": STRS, "skipped": STR_PAIRS}, path)
        config, = check_records([parse_json(str(data["config"]), "config")],
                                {"lam": NUMBER, "epochs": INT}, "bad config")
        try:
            cfg = TrainConfig(**{k: v for k, v in config.items()
                                 if k != "seed"})
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad config: {exc}") from None
        D = int(data["feature_dim"])
        trained = np.array([f"w_{i}" in data for i in range(len(labels))],
                           dtype=bool)
        rows = []
        for idx in np.flatnonzero(trained):
            w, meta = data[f"w_{idx}"], data.get(f"meta_{idx}")
            if w.shape != (D,) or meta is None or meta.shape != (4,):
                raise ValueError(f"w_{idx} must hold {D} weights and "
                                 f"meta_{idx} 4 values")
            row = np.concatenate([w, meta])
            if not np.isfinite(row).all() or meta[2] <= 0:
                raise ValueError(f"w_{idx} and meta_{idx} must be finite, "
                                 "with a positive score std")
            rows.append(row)
    return LinearModelSet(np.array(rows).reshape(len(rows), D + 4), trained,
                          tuple(labels), tuple(map(tuple, skipped)), cfg, D)


def save_annotations(records, path) -> None:
    """Write interval annotations as JSON lines.

    Each record is a dict with keys video, start_frame, end_frame,
    attributes (list) and composite.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps({
                "video": rec["video"],
                "start_frame": int(rec["start_frame"]),
                "end_frame": int(rec["end_frame"]),
                "attributes": sorted(rec["attributes"]),
                "composite": rec["composite"],
            }) + "\n")


@names_file
def load_annotations(path) -> list:
    """Read annotation JSON lines, skipping blank lines: string video and
    composite, integers start_frame <= end_frame and a list of string
    attributes; a bad line is reported as path:line."""
    return read_json_lines(path, {"video": STR, "start_frame": INT,
                                  "end_frame": INT, "attributes": STRS,
                                  "composite": STR},
                           span=("start_frame", "end_frame"))
