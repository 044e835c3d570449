"""Sequence-level pooling and composite activity classification.

A sequence is summarized by the element-wise maximum of its interval
attribute scores.  On those pooled vectors the module offers:

- a supervised one-vs-all linear SVM,
- a plain nearest-neighbour classifier,
- zero-shot script transfer: the inner product with mined (or planted)
  composite-attribute weight rows,
- a weight-aware nearest neighbour (per-class weighted L2 distance with
  binarized weight rows),
- label propagation: script scores seed a label matrix that is
  diffused over a k-nearest-neighbour graph of the pooled features
  (normalized graph Laplacian smoothing with a retention parameter
  alpha).  The diffusion's fixed point is solved for directly, after
  Zhou et al., Learning with Local and Global Consistency (NIPS 2004).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .attributes import TrainConfig, _fit_ova, _membership
from .corpus import WeightMatrix


def seq_feature(scores) -> np.ndarray:
    """Element-wise maximum over the interval axis of an (n, T) matrix."""
    S = np.asarray(scores, dtype=float)
    if S.ndim != 2 or S.shape[1] == 0:
        raise ValueError("need a non-empty (n, T) score matrix")
    return S.max(axis=1)


def classify_svm(train_features, train_composites, test_features,
                 composites=None, config: TrainConfig | None = None):
    """One-vs-all linear classification of pooled sequence features.

    Returns (scores (M, Z), composite label tuple, report dict).  The
    label universe defaults to the composites present in training.
    Composites without a positive training sequence are reported and
    scored at the configured floor; a composite whose rest class is
    empty (single-composite training) is still trained on its one-class
    data and flagged in the report.
    """
    cfg = config or TrainConfig()
    X = np.asarray(train_features, dtype=float)
    Xt = np.asarray(test_features, dtype=float)
    train_composites = list(train_composites)
    if X.shape[0] != len(train_composites):
        raise ValueError("training features and composite labels must align")
    universe = tuple(composites) if composites is not None else \
        tuple(sorted(set(train_composites)))
    P = _membership([{c} for c in train_composites], universe)
    has_pos = P.any(axis=0)
    report = {"skipped": [z for z, k in zip(universe, has_pos) if not k],
              "trained_without_negatives": [
                  z for z, k in zip(universe, P.all(axis=0) & has_pos) if k]}
    W, mean, std, _ = _fit_ova(X, P[:, has_pos], cfg)
    s = Xt @ W[:-1] + W[-1]
    scores = np.full((Xt.shape[0], len(universe)), cfg.floor)
    scores[:, has_pos] = (s - mean) / std if cfg.znorm else s
    return scores, universe, report


def classify_nn(train_features, train_composites, test_feature):
    """Nearest training sequence under plain L2 distance.

    Ties prefer the lowest training row.  Returns (predicted composite,
    distances to every training sequence in input order).
    """
    X = np.asarray(train_features, dtype=float)
    g = np.asarray(test_feature, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("need at least one training sequence")
    dists = np.linalg.norm(X - g[None, :], axis=1)
    return list(train_composites)[int(np.argmin(dists))], dists


def script_score(pooled, weights: WeightMatrix) -> np.ndarray:
    """Zero-shot composite scores: weighted sum of pooled attribute scores.

    The weight matrix must be row-normalized.  Accepts a single pooled
    vector (returns (Z,)) or a (D, n) stack (returns (Z, D))."""
    if not weights.normalized:
        raise ValueError("script_score expects L1-normalized weights")
    G = np.asarray(pooled, dtype=float)
    if G.ndim == 1:
        return weights.values @ G
    return weights.values @ G.T


def nn_script_classify(test_feature, train_features, train_composites,
                       weights: WeightMatrix):
    """Weight-aware nearest neighbour.

    The distance to a training sequence of composite z is
    sqrt(sum_i w_{z,i} (g_test_i - g_train_i)^2) with binarized,
    row-normalized weights.  Training sequences whose composite has an
    all-zero weight row cannot be compared; they are excluded and
    reported.  Raises if that removes every training sequence.  Ties
    prefer the lowest training row.

    Returns (predicted composite, distance, excluded composite tuple).
    """
    if not weights.normalized:
        raise ValueError("nn_script_classify expects normalized weights")
    g = np.asarray(test_feature, dtype=float)
    X = np.asarray(train_features, dtype=float)
    train_composites = list(train_composites)
    excluded = []
    candidates = []
    for j, z in enumerate(train_composites):
        w = weights.row(z)
        if not w.any():
            excluded.append(z)
            continue
        d = math.sqrt(float(w @ ((g - X[j]) ** 2)))
        candidates.append((d, j, z))
    if not candidates:
        raise ValueError("every training composite has an all-zero weight row")
    d, _, z = min(candidates)
    return z, d, tuple(sorted(set(excluded)))


# ---------------------------------------------------------------------------
# graph label propagation

@dataclass
class PstConfig:
    """Parameters of the propagation classifier.

    gamma balances labeled seeds against script scores, delta is the
    per-class fraction of unlabeled sequences whose script score is
    kept, k is the neighbour count of the graph, alpha the propagation
    retention.  alpha = 0 degenerates to the seed matrix itself.
    """

    gamma: float = 0.5
    delta: float = 0.5
    k: int = 5
    alpha: float = 0.75

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError("alpha must lie in [0, 1)")


def save_pst_config(cfg: PstConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key in ("gamma", "delta", "k", "alpha"):
            fh.write(f"{key} = {getattr(cfg, key)}\n")


def load_pst_config(path) -> PstConfig:
    """Read a file written by save_pst_config; errors name the file.

    tol and max_iters lines, written before propagation was solved in
    closed form, are ignored."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for ln, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected key = value")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key in ("tol", "max_iters"):
                continue
            if key not in ("gamma", "delta", "k", "alpha"):
                raise ValueError(f"{path}:{ln}: unknown key {key!r}")
            try:
                values[key] = int(raw) if key == "k" else float(raw)
            except ValueError as exc:
                raise ValueError(f"{path}:{ln}: {exc}") from None
    try:
        return PstConfig(**values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def pst_init(script_scores, labels, cfg: PstConfig,
             zero_shot: bool = False) -> np.ndarray:
    """Seed matrix for propagation.

    script_scores: (Z, D) scores per composite and sequence.  labels:
    (Z, D) int matrix with 1/0 for labeled sequences and -1 for
    unlabeled ones (or None for fully unlabeled).  Labeled entries
    become gamma * label.  Unlabeled entries keep (1 - gamma) * score
    when they rank within the top-delta fraction of their composite's
    unlabeled scores (keeping ceil(delta * count) sequences, with
    boundary ties kept together); everything else is zero.  zero_shot
    forces gamma = 0 and treats every sequence as unlabeled.
    """
    S = np.asarray(script_scores, dtype=float)
    if S.ndim != 2:
        raise ValueError("script scores must be (Z, D)")
    Z, D = S.shape
    gamma = 0.0 if zero_shot else cfg.gamma
    if labels is None or zero_shot:
        lab = np.full((Z, D), -1, dtype=int)
    else:
        lab = np.asarray(labels)
        if lab.shape != S.shape:
            raise ValueError("labels must match the score table shape")
    out = np.zeros_like(S)
    for z in range(Z):
        labeled = lab[z] != -1
        out[z, labeled] = gamma * lab[z, labeled]
        un = np.flatnonzero(~labeled)
        if un.size == 0:
            continue
        keep = math.ceil(cfg.delta * un.size)
        # deterministic order: score descending, then sequence index
        order = un[np.lexsort((un, -S[z, un]))]
        threshold = S[z, order[keep - 1]]
        chosen = un[S[z, un] >= threshold]
        out[z, chosen] = (1.0 - gamma) * S[z, chosen]
    return out


@dataclass
class NeighborGraph:
    """Symmetric k-nearest-neighbour graph over pooled sequence features."""

    weights: np.ndarray
    sigma: float

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        D = self.weights.shape[0]
        if self.weights.shape != (D, D):
            raise ValueError("graph weights must be square")
        if np.any(np.diag(self.weights) != 0):
            raise ValueError("graph must not contain self loops")
        if not np.allclose(self.weights, self.weights.T):
            raise ValueError("graph weights must be symmetric")


def build_knn_graph(features, k: int) -> NeighborGraph:
    """Union-symmetrized k-NN graph with exponentially decaying weights.

    features: (D, n), one row per sequence.  The bandwidth sigma is the
    mean distance to each sequence's single nearest neighbour; edge
    weights are exp(-0.5 * sqrt(sigma) * dist).  Neighbour ties go to
    the lower row.  Requires more sequences than k.
    """
    X = np.asarray(features, dtype=float)
    if X.ndim != 2:
        raise ValueError("features must be (D, n)")
    D = X.shape[0]
    if k >= D:
        raise ValueError(f"k = {k} needs at least {k + 1} sequences, got {D}")
    dist = cdist(X, X)
    np.fill_diagonal(dist, np.inf)
    neigh = np.argsort(dist, axis=1, kind="stable")[:, :k]
    knn_dists = np.take_along_axis(dist, neigh, axis=1)
    sigma = float(knn_dists[:, 0].mean())
    mask = np.zeros((D, D), dtype=bool)
    rows = np.repeat(np.arange(D), k)
    mask[rows, neigh.ravel()] = True
    mask |= mask.T
    np.fill_diagonal(dist, 0.0)
    W = np.where(mask, np.exp(-0.5 * math.sqrt(sigma) * dist), 0.0)
    np.fill_diagonal(W, 0.0)
    return NeighborGraph(W, sigma)


def propagate(graph: NeighborGraph, init, cfg: PstConfig) -> np.ndarray:
    """Diffuse seed scores over the graph: the fixed point of
    F <- alpha * S F + (1 - alpha) * Y.

    init: (D, C) node-major seed matrix Y, or a (D,) vector.  S is the
    symmetrically normalized adjacency D^-1/2 W D^-1/2.  The fixed point
    is found by one linear solve of (I - alpha S) F = (1 - alpha) Y,
    which is non-singular because S has spectral radius at most 1 and
    alpha < 1.  Isolated nodes have zero rows in S and settle at
    (1 - alpha) * Y; alpha = 0 returns Y exactly.  A non-finite result
    (say, from a NaN seed) raises ValueError.
    """
    Y = np.asarray(init, dtype=float)
    W = graph.weights
    if Y.shape[0] != W.shape[0]:
        raise ValueError("seed matrix does not match the graph size")
    deg = W.sum(axis=1)
    dinv = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    S = W * dinv[:, None] * dinv[None, :]
    F = np.linalg.solve(np.eye(len(W)) - cfg.alpha * S, (1.0 - cfg.alpha) * Y)
    if not np.isfinite(F).all():
        raise ValueError("propagation produced non-finite values")
    return F


def pst_scores(script_score_table, labels, pooled_features,
               cfg: PstConfig, zero_shot: bool = False) -> np.ndarray:
    """Full propagation pipeline: seed from script scores, build the
    graph over pooled features, propagate.  Returns a (Z, D) score
    table aligned with the input."""
    Y = pst_init(script_score_table, labels, cfg, zero_shot=zero_shot)
    graph = build_knn_graph(pooled_features, cfg.k)
    return propagate(graph, Y.T, cfg).T


# ---------------------------------------------------------------------------
# file formats

def save_predictions_csv(rows, path) -> None:
    """Write per-sequence composite scores as CSV sequence,composite,score
    sorted by sequence id and descending score."""
    ordered = sorted(rows, key=lambda r: (str(r[0]), -float(r[2]), str(r[1])))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sequence", "composite", "score"])
        for seq, comp, score in ordered:
            writer.writerow([seq, comp, f"{score:.9g}"])


def load_predictions_csv(path) -> list:
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["sequence", "composite", "score"]:
            raise ValueError(f"{path}: expected header sequence,composite,score")
        for rec in reader:
            if not rec:
                continue
            rows.append((rec[0], rec[1], float(rec[2])))
    return rows
