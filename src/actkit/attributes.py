"""Linear attribute classifiers and score stacking.

Attributes (fine-grained activities and manipulated objects) are scored
on time intervals by one-vs-all linear classifiers.  One batched trainer,
a deterministic full-batch subgradient descent on the L2-regularized
hinge loss that updates all labels at once, serves every one-vs-all
problem in the package: fit_ova fits the attribute models, the stacking
classifiers and the composite SVM into one LinearModelSet table, and
score_intervals scores it.  It runs in float32 unless the features are
outside a range derived for it (then in float64), sums its gradient over
fixed row blocks in order so that the weights do not depend on the BLAS
thread count, and returns float64 weights.  Scores are z-normalized with
float64 training statistics; a score table is an (A, T) array, rows in
label order.
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
    numbers, so the two values and the features decide the fit.  Its
    epochs run in float32 when the features, lam and epochs keep every
    quantity it forms at most 2^100 and every nonzero feature is a
    normal float32 (the bound is derived in _descent_dtype), else in
    float64; no option changes that.  The gradient is summed over fixed
    blocks of 256 rows, added in row order, so a fit is the same at any
    BLAS thread count.  Weights, score statistics and scores are
    float64.  Scores are always z-normalized, and attributes that could
    not be trained score DEFAULT_FLOOR.
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
    and the training score statistics of fit_ova.  trained marks the
    labels that have a row; skipped lists (label, reason) pairs for the
    labels that were not trained, the reason giving their positive and
    negative example counts.  objective is the descent's
    _objective_summary when the set was trained here, None when it was
    loaded or trained no label.  Stacking and the composite SVM fit the
    same table, so score_intervals scores every one-vs-all problem.
    """

    models: np.ndarray
    trained: np.ndarray
    labels: tuple
    skipped: tuple
    config: TrainConfig
    feature_dim: int
    objective: dict | None = None


# Bounds of the float32 descent, derived in _descent_dtype's docstring,
# and the rows of one gradient block.
_F32_RANGE = 2.0 ** 100
_GRADIENT_ROWS = 256


def _descent_dtype(X, lam, epochs):
    """float32 where the descent provably stays in float32's normal range
    for these features, else float64.

    Let s_j be the largest |x| of feature j, 1 for the bias column, and
    m the row count.  Each epoch adds mask * G / (m lam t) to (1 - 1/t) W,
    where G / m has entries of at most s_j as every margin target is
    -1, 0 or 1; so t W_t is a sum of t such terms over lam and every
    |W[j]| stays at most s_j / lam.  Then each margin is at most
    sum_j s_j^2 / lam, each partial gradient sum at most m max(s_j, 1),
    the update at most 2 max(s_j, 1) / lam <= 2 sum_j s_j^2 / lam, and
    the step divisor lam t at most lam epochs.  float32 is used when the
    largest of these bounds is at most 2^100, leaving a factor 2^27 below
    float32's largest value (about 2^128) for the update's factor 2 and
    for rounding (a float32 sum of n terms exceeds its bound by a factor
    of about 1 + n 2^-24, and n is a row, feature or epoch count); and
    when every nonzero |x| is at least float32's smallest normal
    value, so that the cast to float32 rounds but loses no input.  NaN
    or infinite features fail the test and take float64."""
    a = np.abs(X)
    s = a.max(axis=0, initial=0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        bound = np.max([len(X) * np.maximum(s, 1.0).max(initial=1.0),
                        (s @ s + 1.0) / lam, lam * epochs])
    smallest = a.min(initial=np.inf, where=a > 0)
    if bound <= _F32_RANGE and smallest >= np.finfo(np.float32).tiny:
        return np.float32
    return np.float64


def _hinge_descent_batch(X, Y, lam, epochs, mask=1.0):
    """Full-batch subgradient descent on the hinge loss for every column
    of the (m, A) +-1 targets Y at once; returns the (D + 1, A) float64
    weights and a (2, A) float64 objective table.

    The bias is an extra always-one feature, so W is (D + 1, A) and all
    of it follows the 1/(lam*t) schedule.  A 0/1 mask shaped like W
    zeroes gradient entries; as the descent starts from zero, masked
    weights stay exactly 0.  Every epoch runs in the dtype that
    _descent_dtype picks from the features (float32 unless they are too
    large or too small for it), with lam, m and lam * t rounded to that
    dtype.  The gradient Xa.T @ M is summed over fixed blocks of
    _GRADIENT_ROWS rows, added in row order: at the supervised
    benchmark's size one whole product rounds differently at 1 and at
    2 OpenBLAS threads, and the blocks do not (the golden manifest pins
    such a run at both counts).  The design, margin and violator
    buffers are allocated once and reused every epoch.

    Row 0 of the objective table holds each label's objective lam/2
    (|w|^2 + b^2) + mean hinge, in float64, for the weights that enter
    the first epoch of the last tenth of the epochs; row 1 for those
    that enter the last epoch.  Both are read from the margins the
    epoch computes anyway, and W does not depend on them."""
    m, D = X.shape
    dtype = _descent_dtype(X, lam, epochs)
    Xa = np.empty((m, D + 1), dtype)
    Xa[:, :D] = X
    Xa[:, D] = 1.0
    Y = np.asarray(Y, dtype)
    mask = np.asarray(mask, dtype)
    W = np.zeros((D + 1, Y.shape[1]), dtype)
    G, part = np.empty_like(W), np.empty_like(W)
    M = np.empty(Y.shape, dtype)
    cond = np.empty(Y.shape, dtype=bool)
    objective = np.empty((2, Y.shape[1]))
    tail = epochs - -(-epochs // 10) + 1    # first epoch of the last tenth
    for t in range(1, epochs + 1):
        np.matmul(Xa, W, out=M)
        np.multiply(Y, M, out=M)
        if t in (tail, epochs):
            W64 = W.astype(float)
            objective[[t == tail, t == epochs]] = (
                0.5 * lam * (W64 * W64).sum(axis=0)
                + np.maximum(np.subtract(1.0, M, dtype=float), 0.0)
                .mean(axis=0))
        np.less(M, 1.0, out=cond)
        np.multiply(Y, cond, out=M)         # the violators' targets, else 0
        np.matmul(Xa[:_GRADIENT_ROWS].T, M[:_GRADIENT_ROWS], out=G)
        for r in range(_GRADIENT_ROWS, m, _GRADIENT_ROWS):
            rows = slice(r, r + _GRADIENT_ROWS)
            np.matmul(Xa[rows].T, M[rows], out=part)
            G += part
        G /= m
        np.multiply(W, lam, out=part)       # (lam W - G / m) mask / (lam t)
        part -= G
        part *= mask
        part /= lam * t
        W -= part
    return W.astype(float), objective


def _objective_summary(objective):
    """The mean final objective and the largest relative change over the
    last tenth of the epochs, of a descent's objective table; None for a
    descent of no labels."""
    if objective.shape[1] == 0:
        return None
    start, end = objective
    return {"final_objective": float(end.mean()),
            "max_relative_change": float(np.max(np.abs(end - start) / start))}


def fit_ova(X, positives, labels, trainable, config: TrainConfig,
            mask=1.0) -> LinearModelSet:
    """Train one-vs-all classifiers on the (m, D) design X: the fitted
    table of every label whose (L,) trainable flag is set, column j of
    the (m, L) boolean positives marking the rows of labels[j].

    The other labels are listed in skipped with their positive and
    negative counts.  mask is 1.0 or a (D + 1, L) 0/1 weight mask (see
    _hinge_descent_batch).  Non-finite features raise, and so do
    features so large that the score statistics overflow.
    """
    if not np.isfinite(X).all():
        raise ValueError("features contain non-finite values")
    n_pos = positives.sum(axis=0)
    skipped = tuple((a, f"{p} positive / {len(positives) - p} negative "
                     "intervals")
                    for a, p, k in zip(labels, n_pos, trainable) if not k)
    if np.ndim(mask):
        mask = mask[:, trainable]
    with np.errstate(over="ignore", invalid="ignore"):
        W, objective = _hinge_descent_batch(
            X, np.where(positives[:, trainable], 1.0, -1.0), config.lam,
            config.epochs, mask)
        scores = X @ W[:-1] + W[-1]
        mean, std = scores.mean(axis=0), scores.std(axis=0)
    if not (np.isfinite(mean).all() and np.isfinite(std).all()):
        raise ValueError("training score mean or std is not finite: the "
                         "features are too large")
    constant = std < 1e-12
    return LinearModelSet(
        np.column_stack([W.T, mean, np.where(constant, 1.0, std), constant]),
        trainable, tuple(labels), skipped, config, X.shape[1],
        _objective_summary(objective))


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
    label_sets = [set(s) for s in labels]
    if len(label_sets) != X.shape[0]:
        raise ValueError("label count does not match feature rows")

    attrs = tuple(attribute_labels)
    P = _membership(label_sets, attrs)
    return fit_ova(X, P, attrs, P.any(axis=0) & ~P.all(axis=0), cfg)


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
    values = np.full((len(model_set.trained), X.shape[0]), DEFAULT_FLOOR)
    values[model_set.trained] = ((X @ table[:, :D].T + table[:, D]
                                  - table[:, D + 1]) / table[:, D + 2]).T
    if not np.isfinite(values).all():
        raise ValueError("score matrix contains non-finite values")
    return values


# ---------------------------------------------------------------------------
# score-derived features

# The blocks (base features, context, co-occurrence) of each stacking
# mode's design.
STACK_MODES = {
    "context": (False, True, False),
    "cooccurrence": (False, False, True),
    "base+context": (True, True, False),
    "base+cooccurrence": (True, False, True),
    "all": (True, True, True),
}


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

    Returns (refined, model_set): a list of refined (A, T) arrays
    aligned with eval_scores, and the fitted table that score_intervals
    turns into them from the evaluation design.  Attributes that never
    or always occur in training score DEFAULT_FLOOR.
    """
    cfg = config or TrainConfig()
    if mode not in STACK_MODES:
        raise ValueError(f"unknown stacking mode {mode!r}")
    parts = STACK_MODES[mode]
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
    Xtr, mask = _stacked_design(S_train, train_features, *parts)
    model_set = fit_ova(Xtr, P, labels, P.any(axis=0) & ~P.all(axis=0), cfg,
                        mask)
    del Xtr
    Xev, _ = _stacked_design(S_eval, eval_features, *parts)
    values = score_intervals(model_set, Xev)
    bounds = np.cumsum([V.shape[1] for V in S_eval])[:-1]
    return np.split(values, bounds, axis=1), model_set


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
