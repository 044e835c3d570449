"""Sequence-level pooling and composite activity classification.

A sequence is summarized by the element-wise maximum of its interval
attribute scores.  On those pooled vectors the module offers:

- a supervised one-vs-all linear SVM,
- a plain nearest-neighbour classifier,
- zero-shot script transfer: the inner product with mined (or planted)
  composite-attribute weight rows,
- a weight-aware nearest neighbour (per-class weighted L2 distance, each
  composite's normalized weight row weighting the attributes; the
  experiment driver passes its L1-normalized tf-idf or planted rows,
  and binarized rows come only from actkit mine-scripts --binarize),
- label propagation: script scores seed a label matrix that is
  diffused over a k-nearest-neighbour graph of the pooled features
  (normalized graph Laplacian smoothing with a retention parameter
  alpha).  The diffusion's fixed point is solved for directly, after
  Zhou et al., Learning with Local and Global Consistency (NIPS 2004).

The SVM and both nearest-neighbour classifiers return (M, Z) score
tables for a whole test split.  kNN distances are byte-equal to cdist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attributes import TrainConfig, _fit_ova, _membership, _ova_scores
from .corpus import WeightMatrix
from .tables import names_file, write_table

# Score of a composite that no training sequence can be compared with.
SCORE_FLOOR = -1e30
_DIST_BLOCK_CELLS = 1 << 16   # floats in one distance block (512 KB)


def seq_feature(scores) -> np.ndarray:
    """Element-wise maximum over the interval axis of an (n, T) matrix."""
    S = np.asarray(scores, dtype=float)
    if S.ndim != 2 or S.shape[1] == 0:
        raise ValueError("need a non-empty (n, T) score matrix")
    return S.max(axis=1)


def classify_svm(train_features, train_composites, test_features,
                 composites, config: TrainConfig | None = None):
    """One-vs-all linear classification of pooled sequence features.

    Returns (scores (M, Z), report dict), one score column per entry of
    composites.  Composites without a positive training sequence are
    reported and scored at DEFAULT_FLOOR; a composite whose rest class
    is empty (single-composite training) is still trained on its
    one-class data and flagged in the report.
    """
    cfg = config or TrainConfig()
    X = np.asarray(train_features, dtype=float)
    Xt = np.asarray(test_features, dtype=float)
    train_composites = list(train_composites)
    if X.shape[0] != len(train_composites):
        raise ValueError("training features and composite labels must align")
    P = _membership([{c} for c in train_composites], composites)
    has_pos = P.any(axis=0)
    one_class = P.all(axis=0) & has_pos
    report = {"skipped": [z for z, k in zip(composites, has_pos) if not k],
              "trained_without_negatives": [
                  z for z, k in zip(composites, one_class) if k]}
    W, mean, std, _ = _fit_ova(X, P[:, has_pos], cfg)
    return _ova_scores(Xt, W, mean, std, has_pos).T, report


def _nearest_tables(train_features, train_composites, test_features,
                    composites, distances, comparable=None):
    """(scores (M, Z), preds) of a nearest-neighbour rule.  distances(X, g)
    gives the (N,) distances from test row g to the training rows X; the
    training rows outside the (N,) comparable mask (all rows when None)
    are at distance inf.  Raises on non-finite features and on a
    comparable distance that overflows."""
    X = np.asarray(train_features, dtype=float)
    G = np.asarray(test_features, dtype=float)
    if X.ndim != 2 or not 0 < len(X) == len(train_composites) \
            or G.ndim != 2 or G.shape[1] != X.shape[1]:
        raise ValueError("need (N, n) training features for N > 0 "
                         "composite labels and (M, n) test features")
    if not (np.isfinite(X).all() and np.isfinite(G).all()):
        raise ValueError("features must be finite (found NaN or inf)")
    ok = np.ones(len(X), dtype=bool) if comparable is None else comparable
    dist = np.empty((len(G), len(X)))
    with np.errstate(over="ignore", invalid="ignore"):
        for m, g in enumerate(G):
            dist[m] = distances(X, g)
    if not np.isfinite(dist[:, ok]).all():
        raise ValueError("features too large: their distances overflow")
    dist[:, ~ok] = np.inf
    rows = np.asarray(train_composites)
    scores = np.full((len(G), len(composites)), SCORE_FLOOR)
    for z, c in enumerate(composites):
        own = rows == c
        if own.any():
            nearest = dist[:, own].min(axis=1)
            scores[:, z] = np.where(np.isinf(nearest), SCORE_FLOOR, -nearest)
    return scores, [train_composites[j] for j in dist.argmin(axis=1)]


def classify_nn(train_features, train_composites, test_features, composites):
    """Nearest training sequence under plain L2 distance.

    Returns (scores (M, Z), preds).  scores[m, z] is minus the distance
    from test row m to its nearest training sequence of composites[z],
    or SCORE_FLOOR when composites[z] has none.  preds[m] is the
    composite of the nearest training sequence; ties prefer the lowest
    training row.
    """
    return _nearest_tables(train_features, list(train_composites),
                           test_features, composites,
                           lambda X, g: np.linalg.norm(X - g, axis=1))


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


def nn_script_classify(train_features, train_composites, test_features,
                       weights: WeightMatrix, composites):
    """Weight-aware nearest neighbour.

    The distance from test row g to a training sequence x of composite z
    is sqrt(sum_i w_{z,i} (g_i - x_i)^2) with z's row of the given
    normalized weight matrix, whatever its rows hold (run_experiment
    passes L1-normalized tf-idf or planted rows; binarize_weights gives
    binarized ones).  Training sequences whose composite has an all-zero
    weight row cannot be compared; they are excluded and reported.
    Raises if that removes every training sequence.

    Returns (scores (M, Z), preds, excluded composite tuple), with
    scores and preds as in classify_nn under this distance; a composite
    without a comparable training sequence scores SCORE_FLOOR.
    """
    if not weights.normalized:
        raise ValueError("nn_script_classify expects normalized weights")
    train_composites = list(train_composites)
    W = weights.values[[weights.composites.index(z)
                        for z in train_composites]]            # (N, n)
    ok = W.any(axis=1)
    if not ok.any():
        raise ValueError("every training composite has an all-zero weight row")
    scores, preds = _nearest_tables(
        train_features, train_composites, test_features, composites,
        lambda X, g: np.sqrt(np.einsum("ij,ij->i", W, (X - g) ** 2)), ok)
    excluded = tuple(sorted({z for z, k in zip(train_composites, ok)
                             if not k}))
    return scores, preds, excluded


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


@names_file
def load_pst_config(path) -> PstConfig:
    """Read a file written by save_pst_config.

    tol and max_iters lines, written before propagation was solved in
    closed form, are ignored."""
    values, lines = {}, {}
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
            if lines.setdefault(key, ln) != ln:
                raise ValueError(f"{path}:{ln}: duplicate key {key!r} "
                                 f"(first on line {lines[key]})")
            try:
                values[key] = int(raw) if key == "k" else float(raw)
            except ValueError as exc:
                raise ValueError(f"{path}:{ln}: {exc}") from None
    return PstConfig(**values)


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


@dataclass(eq=False)
class NeighborGraph:
    """Symmetric k-nearest-neighbour graph over pooled sequence features."""

    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        D = self.weights.shape[0]
        if self.weights.shape != (D, D):
            raise ValueError("graph weights must be square")
        if np.any(np.diag(self.weights) != 0):
            raise ValueError("graph must not contain self loops")
        if not np.allclose(self.weights, self.weights.T):
            raise ValueError("graph weights must be symmetric")


def _pairwise_dist(X) -> np.ndarray:
    """scipy's cdist(X, X), byte for byte: add.reduce over axis 0 of a
    C-order (n, rows, cols) stack of squared differences adds in column
    order.  The upper triangle is built in blocks and mirrored exactly."""
    out = np.empty((len(X), len(X)))
    step = max(1, _DIST_BLOCK_CELLS // max(X.size, 1))
    for a in range(0, len(X), step):
        b = a + step
        diff = np.subtract(X.T[:, a:b, None], X.T[:, None, a:], order="C")
        np.add.reduce(np.square(diff, out=diff), axis=0, out=out[a:b, a:])
        out[b:, a:b] = out[a:b, b:].T
    return np.sqrt(out, out=out)


def build_knn_graph(features, k: int) -> NeighborGraph:
    """Union-symmetrized k-NN graph with exponentially decaying weights.

    features: (D, n), one row per sequence.  The bandwidth sigma is the
    mean distance to each sequence's single nearest neighbour; edge
    weights are exp(-0.5 * sqrt(sigma) * dist).  Neighbour ties go to
    the lower row.  Requires more sequences than k and finite features
    whose distances do not overflow.
    """
    X = np.asarray(features, dtype=float)
    if X.ndim != 2:
        raise ValueError("features must be (D, n)")
    D = X.shape[0]
    if k >= D:
        raise ValueError(f"k = {k} needs at least {k + 1} sequences, got {D}")
    if not np.isfinite(X).all():
        raise ValueError("features must be finite (found NaN or inf)")
    with np.errstate(over="ignore"):
        dist = _pairwise_dist(X)
    if not np.isfinite(dist).all():
        raise ValueError("features too large: their distances overflow")
    np.fill_diagonal(dist, np.inf)
    neigh = np.argsort(dist, axis=1, kind="stable")[:, :k]
    sigma = float(dist.min(axis=1).mean())
    mask = np.zeros((D, D), dtype=bool)
    mask[np.arange(D)[:, None], neigh] = True
    mask |= mask.T
    np.fill_diagonal(dist, 0.0)
    W = np.where(mask, np.exp(-0.5 * math.sqrt(sigma) * dist), 0.0)
    np.fill_diagonal(W, 0.0)
    return NeighborGraph(W)


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


def pst_grid_scores(script_score_table, labels, pooled_features, configs,
                    zero_shot: bool = False):
    """Propagated score tables for a sequence of configs.

    Yields (cfg, F) in input order, F being the (Z, D) table that
    pst_scores gives for cfg.  The kNN graph over the pooled features
    is built once per distinct cfg.k and the seed matrix once per
    distinct (cfg.gamma, cfg.delta).  There is one solve per distinct
    (cfg.alpha, cfg.k): the seeds of that group's configs go side by
    side as its right-hand sides, and each config's table is sliced
    back out of the result.
    """
    configs = list(configs)
    groups = {}
    for i, cfg in enumerate(configs):
        groups.setdefault((cfg.alpha, cfg.k), []).append(i)
    graphs, seeds, tables = {}, {}, {}

    def seed(cfg):
        key = cfg.gamma, cfg.delta
        if key not in seeds:
            seeds[key] = pst_init(script_score_table, labels, cfg,
                                  zero_shot=zero_shot)
        return seeds[key]

    for i, cfg in enumerate(configs):
        if i not in tables:
            members = groups[cfg.alpha, cfg.k]
            Y = np.hstack([seed(configs[j]).T for j in members])
            if cfg.k not in graphs:
                graphs[cfg.k] = build_knn_graph(pooled_features, cfg.k)
            F = propagate(graphs[cfg.k], Y, cfg).T
            tables.update(zip(members, np.split(F, len(members))))
        yield cfg, tables.pop(i)


def pst_scores(script_score_table, labels, pooled_features,
               cfg: PstConfig, zero_shot: bool = False) -> np.ndarray:
    """Full propagation pipeline: seed from script scores, build the
    graph over pooled features, propagate.  Returns a (Z, D) score
    table aligned with the input; the one-config case of
    pst_grid_scores."""
    [(_, F)] = pst_grid_scores(script_score_table, labels, pooled_features,
                               [cfg], zero_shot=zero_shot)
    return F


# ---------------------------------------------------------------------------
# file formats

def save_predictions_csv(rows, path) -> None:
    """Write per-sequence composite scores as CSV sequence,composite,score
    sorted by sequence id and descending score."""
    ordered = sorted(rows, key=lambda r: (str(r[0]), -float(r[2]), str(r[1])))
    write_table(path, ordered, ("sequence", "composite", "score"))
