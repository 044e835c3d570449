import csv
import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from actkit import composites
from actkit.composites import (SCORE_FLOOR, NeighborGraph, PstConfig,
                               build_knn_graph, classify_nn, classify_svm,
                               load_pst_config, nn_script_classify,
                               propagate, pst_grid_scores, pst_init,
                               pst_scores, save_pst_config,
                               save_predictions_csv, script_score,
                               seq_feature)
from actkit.corpus import WeightMatrix, binarize_weights, normalize_l1


def _weights(values, composites, attrs, normalize=True):
    W = WeightMatrix(np.asarray(values, dtype=float), tuple(composites),
                     tuple(attrs), normalized=False)
    return normalize_l1(W) if normalize else W


# ---------------------------------------------------------------------------
# pooling

def test_seq_feature_is_columnwise_max():
    S = np.array([[1.0, 5.0, 2.0],
                  [0.0, -3.0, 4.0]])
    assert np.array_equal(seq_feature(S), [5.0, 4.0])


def test_seq_feature_single_interval_is_identity():
    S = np.array([[2.0], [-1.0], [7.5]])
    assert np.array_equal(seq_feature(S), [2.0, -1.0, 7.5])


def test_seq_feature_rejects_empty():
    with pytest.raises(ValueError):
        seq_feature(np.zeros((3, 0)))
    with pytest.raises(ValueError):
        seq_feature(np.zeros(4))


def test_seq_feature_permutation_invariant():
    rng = np.random.default_rng(3)
    for _ in range(50):
        S = rng.normal(size=(5, 7))
        perm = rng.permutation(7)
        assert np.array_equal(seq_feature(S), seq_feature(S[:, perm]))


# ---------------------------------------------------------------------------
# supervised classifiers

def _blob_data(seed=0, spread=0.3):
    rng = np.random.default_rng(seed)
    centers = np.array([[4.0, 0.0, 0.0], [0.0, 4.0, 0.0], [0.0, 0.0, 4.0]])
    comps = ["c0", "c1", "c2"]
    Xtr, ytr, Xte, yte = [], [], [], []
    for ci, c in enumerate(comps):
        for _ in range(8):
            Xtr.append(centers[ci] + rng.normal(scale=spread, size=3))
            ytr.append(c)
        for _ in range(4):
            Xte.append(centers[ci] + rng.normal(scale=spread, size=3))
            yte.append(c)
    return np.array(Xtr), ytr, np.array(Xte), yte


def test_classify_svm_separable_blobs():
    Xtr, ytr, Xte, yte = _blob_data()
    comps = ("c0", "c1", "c2")
    scores, report = classify_svm(Xtr, ytr, Xte, comps)
    assert scores.shape == (len(Xte), 3)
    assert not report["skipped"] and not report["trained_without_negatives"]
    preds = [comps[j] for j in scores.argmax(axis=1)]
    assert preds == yte


def test_classify_svm_single_composite_flagged():
    X = np.array([[1.0, 0.0], [1.2, 0.1], [0.9, -0.1]])
    scores, report = classify_svm(X, ["only"] * 3, X, ("only",))
    assert scores.shape == (3, 1)
    assert report["trained_without_negatives"] == ["only"]
    assert np.isfinite(scores).all()


def test_classify_svm_universe_without_positives_floored():
    X = np.array([[1.0], [2.0], [-1.0], [-2.0]])
    ytr = ["a", "a", "b", "b"]
    scores, report = classify_svm(X, ytr, X, ("a", "b", "ghost"))
    assert report["skipped"] == ["ghost"]
    assert np.all(scores[:, 2] == -10.0)


def test_classify_svm_alignment_error():
    with pytest.raises(ValueError):
        classify_svm(np.zeros((3, 2)), ["a", "b"], np.zeros((1, 2)),
                     ("a", "b"))


def test_classify_nn_picks_closest():
    X = np.array([[0.0, 0.0], [10.0, 0.0]])
    scores, preds = classify_nn(X, ["near", "far"], np.array([[1.0, 0.0]]),
                                ["near", "far"])
    assert preds == ["near"]
    assert scores == pytest.approx(np.array([[-1.0, -9.0]]))


def test_classify_nn_tie_prefers_lowest_id():
    X = np.array([[1.0, 0.0], [-1.0, 0.0]])
    _, preds = classify_nn(X[::-1], ["left", "right"], np.zeros((1, 2)),
                           ["left", "right"])
    assert preds == ["left"]
    _, preds = classify_nn(X, ["right", "left"], np.zeros((1, 2)),
                           ["left", "right"])
    assert preds == ["right"]


def test_classify_nn_empty_error():
    with pytest.raises(ValueError):
        classify_nn(np.zeros((0, 2)), [], np.zeros((1, 2)), [])


def test_nn_classifiers_reject_misshaped_inputs():
    W = _weights([[1.0, 1.0]], ["c"], ["a", "b"])
    for args in ((np.ones((2, 2)), ["c"], np.ones((1, 2))),
                 (np.ones((1, 2)), ["c"], np.ones(2)),
                 (np.ones((1, 2)), ["c"], np.ones((1, 3)))):
        with pytest.raises(ValueError):
            classify_nn(*args, ["c"])
        with pytest.raises(ValueError):
            nn_script_classify(*args, W, ["c"])


def _overflow_problem():
    """12 x 6 normal features scaled by 1e160 (squared differences
    overflow), three composites and uniform weight rows."""
    X = np.random.default_rng(30).normal(size=(12, 6)) * 1e160
    comps = ["c0", "c1", "c2"]
    W = _weights(np.ones((3, 6)), comps, [f"a{i}" for i in range(6)])
    return X, [comps[i % 3] for i in range(12)], comps, W


def test_nn_classifiers_reject_overflowing_distances():
    # the overflow used to score every composite but a row's own
    # SCORE_FLOOR, the value for "no comparable training sequence"
    X, ys, comps, W = _overflow_problem()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="features too large: their "
                                             "distances overflow"):
            classify_nn(X, ys, X, comps)
        with pytest.raises(ValueError, match="features too large"):
            nn_script_classify(X, ys, X, W, comps)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", ["train", "test"])
def test_nn_classifiers_reject_non_finite_features(bad, side):
    X, ys, comps, W = _overflow_problem()
    X = X / 1e160
    G = X[:4].copy()
    (X if side == "train" else G)[2, 3] = bad
    with pytest.raises(ValueError, match="features must be finite"):
        classify_nn(X, ys, G, comps)
    with pytest.raises(ValueError, match="features must be finite"):
        nn_script_classify(X, ys, G, W, comps)


def test_nn_script_ignores_overflow_in_excluded_rows():
    # a training row excluded by its all-zero weight row is never
    # compared, so its overflowing distance is no error
    W = _weights([[1.0, 1.0], [0.0, 0.0]], ["ok", "mute"], ["a", "b"])
    Xtr = np.array([[5.0, 5.0], [1e160, -1e160]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scores, preds, excluded = nn_script_classify(
            Xtr, ["ok", "mute"], np.zeros((1, 2)), W, ["ok", "mute"])
    assert preds == ["ok"] and excluded == ("mute",)
    assert scores[0, 0] == -5.0 and scores[0, 1] == SCORE_FLOOR


# ---------------------------------------------------------------------------
# script transfer

def test_script_score_weighted_sum():
    W = _weights([[2.0, 1.0, 1.0], [0.0, 3.0, 1.0]],
                 ["c0", "c1"], ["a0", "a1", "a2"])
    g = np.array([4.0, 8.0, -4.0])
    s = script_score(g, W)
    assert s == pytest.approx([0.5 * 4 + 0.25 * 8 + 0.25 * (-4),
                               0.75 * 8 + 0.25 * (-4)])


def test_script_score_requires_normalized():
    W = _weights([[2.0, 1.0]], ["c"], ["a", "b"], normalize=False)
    with pytest.raises(ValueError):
        script_score(np.ones(2), W)


def test_script_score_stacked_matches_loop():
    rng = np.random.default_rng(11)
    W = _weights(rng.uniform(size=(4, 6)), [f"c{i}" for i in range(4)],
                 [f"a{i}" for i in range(6)])
    G = rng.normal(size=(5, 6))
    stacked = script_score(G, W)
    assert stacked.shape == (4, 5)
    for d in range(5):
        assert stacked[:, d] == pytest.approx(script_score(G[d], W))


def test_nn_script_distance_oracle():
    # w = [0.5, 0.5]: sqrt(0.5 * (3-2)^2 + 0.5 * (1-3)^2) = sqrt(2.5)
    W = _weights([[1.0, 1.0]], ["c"], ["a", "b"])
    scores, preds, excluded = nn_script_classify(
        np.array([[2.0, 3.0]]), ["c"], np.array([[3.0, 1.0]]), W, ["c"])
    assert preds == ["c"]
    assert -scores[0, 0] == pytest.approx(math.sqrt(2.5))
    assert excluded == ()


def test_nn_script_excludes_zero_rows():
    W = _weights([[1.0, 1.0], [0.0, 0.0]], ["ok", "mute"], ["a", "b"])
    Xtr = np.array([[5.0, 5.0], [0.1, 0.1]])
    scores, preds, excluded = nn_script_classify(
        Xtr, ["ok", "mute"], np.zeros((1, 2)), W, ["ok", "mute"])
    # the mute row would win on raw distance but cannot be scored
    assert preds == ["ok"]
    assert excluded == ("mute",)
    assert scores[0, 1] == SCORE_FLOOR


def test_nn_script_tie_prefers_lowest_row():
    W = _weights([[1.0, 1.0], [1.0, 1.0]], ["right", "left"], ["a", "b"])
    X = np.array([[1.0, 0.0], [-1.0, 0.0]])
    _, preds, _ = nn_script_classify(X[::-1], ["left", "right"],
                                     np.zeros((1, 2)), W, ["left", "right"])
    assert preds == ["left"]
    _, preds, _ = nn_script_classify(X, ["right", "left"], np.zeros((1, 2)),
                                     W, ["left", "right"])
    assert preds == ["right"]


def test_nn_script_all_rows_zero_error():
    W = _weights([[0.0, 0.0]], ["mute"], ["a", "b"])
    with pytest.raises(ValueError):
        nn_script_classify(np.ones((1, 2)), ["mute"], np.zeros((1, 2)), W,
                           ["mute"])


def test_nn_script_uniform_weights_match_plain_nn():
    rng = np.random.default_rng(7)
    n = 6
    attrs = [f"a{i}" for i in range(n)]
    comps = [f"c{i}" for i in range(4)]
    W = _weights(np.ones((4, n)), comps, attrs)
    for _ in range(100):
        Xtr = rng.normal(size=(8, n))
        ytr = [comps[i % 4] for i in range(8)]
        g = rng.normal(size=(1, n))
        _, plain = classify_nn(Xtr, ytr, g, comps)
        _, weighted, _ = nn_script_classify(Xtr, ytr, g, W, comps)
        assert weighted == plain


def test_nn_script_binarized_ignores_unmentioned():
    raw = _weights([[0.7, 0.3, 0.0]], ["c"], ["a", "b", "x"],
                   normalize=False)
    W = binarize_weights(raw)
    g = np.array([[0.0, 0.0, 100.0]])
    scores, _, _ = nn_script_classify(np.array([[0.0, 0.0, -100.0]]), ["c"],
                                      g, W, ["c"])
    # the third attribute has zero weight so the huge gap is invisible
    assert -scores[0, 0] == pytest.approx(0.0)


def _former_nn_tables(Xtr, ytr, Xte, comps, weights=None):
    """The (M, Z) tables and predictions as run_experiment used to build
    them: plain L2 with weights None, else the per-pair weighted
    distance; one test vector and one composite at a time."""
    scores = np.full((len(Xte), len(comps)), SCORE_FLOOR)
    preds = []
    for m, g in enumerate(Xte):
        if weights is None:
            dists = np.linalg.norm(Xtr - g[None, :], axis=1)
            preds.append(list(ytr)[int(np.argmin(dists))])
        else:
            pairs = [(math.sqrt(float(weights.row(z) @ ((g - Xtr[j]) ** 2))),
                      j, z) for j, z in enumerate(ytr)
                     if weights.row(z).any()]
            preds.append(min(pairs)[2])
        for z, c in enumerate(comps):
            if weights is None:
                mine = [d for d, cc in zip(dists, ytr) if cc == c]
            else:
                w = weights.row(c)
                if not w.any():
                    continue
                mine = [np.sqrt(float(w @ ((g - Xtr[j]) ** 2)))
                        for j, cc in enumerate(ytr) if cc == c]
            if mine:
                scores[m, z] = -min(mine)
    return scores, preds


def _nn_problem(rng):
    """Random pooled features over composites a-e; e has no training
    sequence, d an all-zero weight row.  b and c share a weight row and
    sometimes a training vector, so their distances tie exactly."""
    comps = ["a", "b", "c", "d", "e"]
    n = int(rng.integers(2, 9))
    raw = rng.uniform(size=(5, n)) * (rng.random((5, n)) < 0.6)
    raw[:, 0] = np.maximum(raw[:, 0], 0.1)
    raw[2] = raw[1]
    raw[3] = 0.0
    W = normalize_l1(WeightMatrix(raw, tuple(comps),
                                  tuple(f"x{i}" for i in range(n))))
    N = int(rng.integers(3, 12))
    ytr = ["a", "b", "c"] + [comps[int(k)] for k in rng.integers(0, 4, N - 3)]
    Xtr = rng.normal(size=(N, n))
    if rng.random() < 0.5:
        Xtr[2] = Xtr[1]
    M = 1 if rng.random() < 0.3 else int(rng.integers(2, 8))
    Xte = rng.normal(size=(M, n))
    if rng.random() < 0.5:          # a test vector equidistant to b and c
        Xte[0] = Xtr[1] + rng.normal(0, 0.01, n)
    return Xtr, ytr, Xte, comps, W


def test_classify_nn_matches_the_former_tables_exactly():
    rng = np.random.default_rng(21)
    for _ in range(200):
        Xtr, ytr, Xte, comps, _ = _nn_problem(rng)
        scores, preds = classify_nn(Xtr, ytr, Xte, comps)
        want, want_preds = _former_nn_tables(Xtr, ytr, Xte, comps)
        assert np.array_equal(scores, want)
        assert preds == want_preds
        assert (scores[:, comps.index("e")] == SCORE_FLOOR).all()


def test_nn_script_classify_matches_the_former_tables():
    rng = np.random.default_rng(22)
    for _ in range(200):
        Xtr, ytr, Xte, comps, W = _nn_problem(rng)
        scores, preds, excluded = nn_script_classify(Xtr, ytr, Xte, W, comps)
        want, want_preds = _former_nn_tables(Xtr, ytr, Xte, comps, W)
        floored = want == SCORE_FLOOR
        assert np.array_equal(scores == SCORE_FLOOR, floored)
        assert np.abs(scores[~floored] - want[~floored]).max() <= 1e-12
        assert preds == want_preds
        assert excluded == (("d",) if "d" in ytr else ())
        assert (scores[:, comps.index("d")] == SCORE_FLOOR).all()
        assert (scores[:, comps.index("e")] == SCORE_FLOOR).all()


# ---------------------------------------------------------------------------
# propagation seeding

def test_pst_init_labeled_entries():
    cfg = PstConfig(gamma=0.25, delta=1.0, k=1)
    S = np.array([[0.9, 0.1], [0.4, 0.8]])
    labels = np.array([[1, -1], [0, -1]])
    Y = pst_init(S, labels, cfg)
    assert Y[0, 0] == pytest.approx(0.25 * 1)
    assert Y[1, 0] == pytest.approx(0.0)
    # unlabeled column keeps (1 - gamma) * score at delta = 1
    assert Y[0, 1] == pytest.approx(0.75 * 0.1)
    assert Y[1, 1] == pytest.approx(0.75 * 0.8)


def test_pst_init_top_delta_cut():
    cfg = PstConfig(gamma=0.5, delta=0.5, k=1)
    S = np.array([[0.9, 0.5, 0.1, 0.2]])
    Y = pst_init(S, None, cfg)
    # ceil(0.5 * 4) = 2 kept: scores 0.9 and 0.5
    assert Y[0] == pytest.approx([0.45, 0.25, 0.0, 0.0])


def test_pst_init_boundary_ties_kept_together():
    cfg = PstConfig(gamma=0.5, delta=0.25, k=1)
    S = np.array([[0.7, 0.7, 0.7, 0.1]])
    Y = pst_init(S, None, cfg)
    # ceil(0.25 * 4) = 1 but the cut score 0.7 is shared by three
    assert np.count_nonzero(Y[0]) == 3
    assert Y[0, 3] == 0.0


def test_pst_init_zero_shot_ignores_labels():
    cfg = PstConfig(gamma=1.0, delta=1.0, k=1)
    S = np.array([[0.3, 0.6]])
    labels = np.array([[1, 0]])
    Y = pst_init(S, labels, cfg, zero_shot=True)
    # gamma forced to zero and every sequence treated as unlabeled
    assert Y[0] == pytest.approx([0.3, 0.6])


def test_pst_init_gamma_one_drops_scores():
    cfg = PstConfig(gamma=1.0, delta=1.0, k=1)
    S = np.array([[0.3, 0.6]])
    labels = np.array([[1, -1]])
    Y = pst_init(S, labels, cfg)
    assert Y[0, 0] == 1.0
    assert Y[0, 1] == 0.0


def test_pst_init_shape_errors():
    cfg = PstConfig()
    with pytest.raises(ValueError):
        pst_init(np.zeros(3), None, cfg)
    with pytest.raises(ValueError):
        pst_init(np.zeros((2, 3)), np.zeros((2, 2), dtype=int), cfg)


# ---------------------------------------------------------------------------
# graph construction

def test_knn_graph_two_node_weight_oracle():
    # two points at distance 4: sigma = 4, weight = exp(-0.5 * 2 * 4)
    X = np.array([[0.0], [4.0]])
    graph = build_knn_graph(X, k=1)
    assert graph.weights[0, 1] == pytest.approx(math.exp(-4.0))
    assert graph.weights[1, 0] == pytest.approx(math.exp(-4.0))
    assert graph.weights[0, 0] == 0.0


def test_knn_graph_union_symmetrization():
    # middle point is nearest to both ends but its own k = 1 list only
    # holds one of them; union keeps both edges
    X = np.array([[0.0], [1.0], [2.5]])
    graph = build_knn_graph(X, k=1)
    assert graph.weights[1, 2] > 0
    assert graph.weights[2, 1] > 0
    assert graph.weights[0, 2] == 0.0


def test_knn_graph_k_too_large():
    with pytest.raises(ValueError):
        build_knn_graph(np.zeros((3, 2)), k=3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_knn_graph_rejects_non_finite_features(bad):
    X = np.random.default_rng(3).normal(size=(8, 3))
    X[5, 1] = bad
    with pytest.raises(ValueError, match="features must be finite"):
        build_knn_graph(X, k=2)


def test_knn_graph_rejects_overflowing_distances():
    # finite features whose squared differences overflow would make sigma
    # inf and every weight 0
    X = np.random.default_rng(3).normal(size=(8, 3))
    X[5] *= 1e160
    with pytest.raises(ValueError, match="features too large"):
        build_knn_graph(X, k=2)


def _cdist_case(rng, shape):
    return rng.normal(size=shape) * rng.lognormal(size=(shape[0], 1))


@pytest.mark.parametrize("shape,rows", [
    ((1, 5), None), ((2, 1), None), ((7, 3), 1),
    ((33, 80), 32),                 # one row more than a block
    ((37, 53), 8),                  # several blocks, a short last one
    ((336, 80), None),              # the zeroshot size, default blocks
])
def test_pairwise_dist_is_cdist_byte_for_byte(monkeypatch, shape, rows):
    X = _cdist_case(np.random.default_rng(shape[0] * 100 + shape[1]), shape)
    if rows is not None:
        monkeypatch.setattr(composites, "_DIST_BLOCK_CELLS", rows * X.size)
    assert composites._pairwise_dist(X).tobytes() == cdist(X, X).tobytes()


def test_pairwise_dist_extreme_rows_match_cdist(monkeypatch):
    rng = np.random.default_rng(11)
    X = _cdist_case(rng, (12, 53))
    X[3] = X[7]                                 # duplicate rows
    X[[0, 9]] = 0.0                             # all-zero rows
    X[[1, 4]] = rng.uniform(-1, 1, (2, 53)) * 1e150
    X[[5, 10]] = rng.uniform(-1, 1, (2, 53)) * 1e-160
    monkeypatch.setattr(composites, "_DIST_BLOCK_CELLS", 5 * X.size)
    got = composites._pairwise_dist(X)
    assert got.tobytes() == cdist(X, X).tobytes()
    assert got[3, 7] == got[0, 9] == 0.0
    assert np.array_equal(got, got.T)
    diag = np.diag(got)
    assert not diag.any() and not np.signbit(diag).any()


def test_knn_graph_sigma_knn_mode():
    X = np.array([[0.0], [1.0], [3.0]])
    g1 = build_knn_graph(X, k=2)
    # sigma is the mean nearest-neighbour distance, of (1, 1, 2), and
    # each weight is exp(-0.5 * sqrt(sigma) * dist)
    root = math.sqrt((1 + 1 + 2) / 3)
    dist = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 2.0], [3.0, 2.0, 0.0]])
    want = np.where(dist > 0, np.exp(-0.5 * root * dist), 0.0)
    assert g1.weights == pytest.approx(want)


def test_neighbor_graph_validation():
    with pytest.raises(ValueError):
        NeighborGraph(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        NeighborGraph(np.array([[0.0, 1.0], [0.5, 0.0]]))


# ---------------------------------------------------------------------------
# propagation

def _random_graph(rng, n):
    X = rng.normal(size=(n, 3))
    k = int(rng.integers(1, max(2, n - 1)))
    return build_knn_graph(X, k=min(k, n - 1))


def test_propagate_alpha_zero_returns_seed():
    rng = np.random.default_rng(1)
    graph = _random_graph(rng, 6)
    Y = rng.normal(size=(6, 3))
    cfg = PstConfig(alpha=0.0)
    assert np.array_equal(propagate(graph, Y, cfg), Y)


def test_propagate_matches_closed_form():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        graph = _random_graph(rng, n)
        Y = rng.normal(size=(n, int(rng.integers(1, 4))))
        alpha = float(rng.choice([0.1, 0.5, 0.9]))
        cfg = PstConfig(alpha=alpha)
        W = graph.weights
        deg = W.sum(axis=1)
        dinv = np.where(deg > 0, deg, 1.0) ** -0.5 * (deg > 0)
        S = W * dinv[:, None] * dinv[None, :]
        closed = (1 - alpha) * np.linalg.solve(np.eye(n) - alpha * S, Y)
        F = propagate(graph, Y, cfg)
        assert np.abs(F - closed).max() < 1e-8


def test_propagate_isolated_node_settles():
    # an isolated node keeps (1 - alpha) * seed
    W = np.zeros((3, 3))
    W[0, 1] = W[1, 0] = 1.0
    graph = NeighborGraph(W)
    Y = np.array([[1.0], [0.0], [2.0]])
    cfg = PstConfig(alpha=0.5)
    F = propagate(graph, Y, cfg)
    assert F[2, 0] == pytest.approx(0.5 * 2.0)


def test_propagate_vector_seed():
    graph = NeighborGraph(np.array([[0.0, 1.0], [1.0, 0.0]]))
    cfg = PstConfig(alpha=0.5)
    F = propagate(graph, np.array([1.0, 0.0]), cfg)
    assert F.shape == (2,)
    closed = 0.5 * np.linalg.solve(
        np.eye(2) - 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.array([1.0, 0.0]))
    assert F == pytest.approx(closed)


def _iterated_propagation(graph, Y, alpha, tol=1e-14, max_iters=5000):
    """The former solver: iterate F <- alpha S F + (1 - alpha) Y until
    the largest change drops below tol.

    Near alpha = 1 rounding noise can hold the change just above tol.
    The iterate is then accepted if the contraction bound (the spectral
    norm of S is at most 1) puts it within 1e-10 of the fixed point.
    """
    Y = np.asarray(Y, dtype=float)
    W = graph.weights
    deg = W.sum(axis=1)
    dinv = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    S = W * dinv[:, None] * dinv[None, :]
    F = Y.copy()
    for _ in range(max_iters):
        F_new = alpha * (S @ F) + (1.0 - alpha) * Y
        change = float(np.abs(F_new - F).max())
        F = F_new
        if change < tol:
            break
    bound = change * math.sqrt(len(W)) * alpha / (1.0 - alpha)
    assert bound < 1e-10, "oracle did not converge"
    return F


def _with_isolated_node(graph, rng):
    """The graph plus one node without edges, inserted at a random row."""
    n = graph.weights.shape[0]
    keep = np.delete(np.arange(n + 1), int(rng.integers(0, n + 1)))
    W = np.zeros((n + 1, n + 1))
    W[np.ix_(keep, keep)] = graph.weights
    return NeighborGraph(W)


@pytest.mark.parametrize("alpha", [0.0, 0.1, 0.5, 0.9, 0.99])
def test_propagate_matches_iterated_oracle(alpha):
    rng = np.random.default_rng(int(alpha * 100) + 11)
    cfg = PstConfig(alpha=alpha)
    for trial in range(40):
        graph = _random_graph(rng, int(rng.integers(2, 10)))
        if trial % 2:
            graph = _with_isolated_node(graph, rng)
        n = graph.weights.shape[0]
        Y = rng.normal(size=(n, int(rng.integers(1, 4))))
        oracle = _iterated_propagation(graph, Y, alpha)
        F = propagate(graph, Y, cfg)
        assert F.shape == Y.shape
        assert np.abs(F - oracle).max() < 1e-9
        f = propagate(graph, Y[:, 0], cfg)      # a 1-D seed stays 1-D
        assert f.shape == (n,)
        assert np.abs(f - oracle[:, 0]).max() < 1e-9


def test_propagate_nan_seed_raises():
    graph = NeighborGraph(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        propagate(graph, np.array([[1.0], [np.nan]]), PstConfig(alpha=0.5))


def test_propagate_size_mismatch():
    graph = NeighborGraph(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        propagate(graph, np.zeros((3, 1)), PstConfig())


def test_pst_scores_zero_shot_alpha_zero_equals_script():
    # with alpha = 0 and delta = 1 the pipeline returns the raw scores
    rng = np.random.default_rng(9)
    S = rng.uniform(size=(3, 7))
    G = rng.normal(size=(7, 4))
    cfg = PstConfig(alpha=0.0, delta=1.0, k=2)
    out = pst_scores(S, None, G, cfg, zero_shot=True)
    assert out == pytest.approx(S)


def test_pst_scores_shape():
    rng = np.random.default_rng(10)
    S = rng.uniform(size=(4, 9))
    labels = np.full((4, 9), -1)
    labels[:, :3] = 0
    labels[0, 0] = labels[1, 1] = labels[2, 2] = 1
    G = rng.normal(size=(9, 5))
    out = pst_scores(S, labels, G, PstConfig(k=3))
    assert out.shape == (4, 9)
    assert np.isfinite(out).all()


def _pst_problem(seed):
    rng = np.random.default_rng(seed)
    S = rng.uniform(size=(4, 12))
    labels = np.full((4, 12), -1)
    labels[:, :4] = 0
    labels[np.arange(4), np.arange(4)] = 1
    return S, labels, rng.normal(size=(12, 5))


def test_pst_scores_is_one_config_of_the_grid():
    S, labels, G = _pst_problem(11)
    cfg = PstConfig(alpha=0.9, gamma=0.25, delta=0.5, k=4)
    [(got_cfg, F)] = pst_grid_scores(S, labels, G, [cfg])
    assert got_cfg is cfg
    assert np.array_equal(F, pst_scores(S, labels, G, cfg))


@pytest.mark.parametrize("zero_shot", [False, True])
def test_pst_grid_scores_match_pst_scores_per_config(monkeypatch, zero_shot):
    S, labels, G = _pst_problem(12)
    grid = [PstConfig(alpha=a, gamma=g, delta=d, k=k)
            for a, g, d, k in itertools.product(
                (0.0, 0.5, 0.99), (0.25, 1.0), (0.1, 1.0), (1, 3, 7))]
    builds, seeds = [], []
    build, init = composites.build_knn_graph, composites.pst_init
    monkeypatch.setattr(composites, "build_knn_graph",
                        lambda X, k: builds.append(k) or build(X, k))
    monkeypatch.setattr(composites, "pst_init",
                        lambda S, lab, cfg, **kw: seeds.append(
                            (cfg.gamma, cfg.delta)) or init(S, lab, cfg, **kw))
    out = list(pst_grid_scores(S, labels, G, grid, zero_shot=zero_shot))
    assert builds == [1, 3, 7]
    assert seeds == [(0.25, 0.1), (0.25, 1.0), (1.0, 0.1), (1.0, 1.0)]
    assert [cfg for cfg, _ in out] == grid
    for cfg, F in out:
        assert np.array_equal(
            F, pst_scores(S, labels, G, cfg, zero_shot=zero_shot))


def _pst_grid_oracle(S, labels, G, configs, zero_shot=False):
    """The former grid loop: one seed, one graph and one solve per
    config."""
    for cfg in configs:
        seed = pst_init(S, labels, cfg, zero_shot=zero_shot)
        graph = build_knn_graph(G, cfg.k)
        yield cfg, propagate(graph, seed.T, cfg).T


def _interleaved_grid():
    """(alpha, k) groups out of order and interleaved, alpha = 0 among
    them and one config given twice."""
    grid = [PstConfig(alpha=a, gamma=g, delta=d, k=k)
            for a, g, d, k in itertools.product(
                (0.9, 0.0, 0.5), (0.25, 1.0), (0.1, 1.0), (7, 1, 3))]
    grid = grid[1::2] + grid[::2][::-1]
    return grid[:5] + [grid[2]] + grid[5:]


@pytest.mark.parametrize("zero_shot", [False, True])
def test_pst_grid_scores_match_the_per_config_oracle(monkeypatch, zero_shot):
    S, labels, G = _pst_problem(13)
    grid = _interleaved_grid()
    calls = []
    solve = composites.propagate
    monkeypatch.setattr(composites, "propagate",
                        lambda graph, Y, cfg: calls.append(
                            (cfg.alpha, cfg.k)) or solve(graph, Y, cfg))
    out = list(pst_grid_scores(S, labels, G, grid, zero_shot=zero_shot))
    assert [cfg for cfg, _ in out] == grid
    assert all(got is cfg for (got, _), cfg in zip(out, grid))
    assert sorted(calls) == sorted({(c.alpha, c.k) for c in grid})
    oracle = _pst_grid_oracle(S, labels, G, grid, zero_shot=zero_shot)
    for (cfg, F), (_, ref) in zip(out, oracle):
        assert F.shape == ref.shape
        assert np.max(np.abs(F - ref)) <= 1e-12


# ---------------------------------------------------------------------------
# config and prediction files

def test_pst_config_validation():
    with pytest.raises(ValueError):
        PstConfig(alpha=1.0)
    with pytest.raises(ValueError):
        PstConfig(alpha=-0.1)
    with pytest.raises(ValueError):
        PstConfig(delta=0.0)
    with pytest.raises(ValueError):
        PstConfig(gamma=1.5)
    with pytest.raises(ValueError):
        PstConfig(k=0)
    PstConfig(alpha=0.0)   # lower boundary is allowed


def test_pst_config_round_trip(tmp_path):
    cfg = PstConfig(gamma=0.25, delta=0.1, k=3, alpha=0.9)
    path = tmp_path / "pst.conf"
    save_pst_config(cfg, path)
    assert load_pst_config(path) == cfg


def test_pst_config_loads_iterative_solver_format(tmp_path):
    # the file the former solver wrote, with its tol and max_iters lines
    path = tmp_path / "pst.conf"
    path.write_text("gamma = 0.25\ndelta = 0.1\nk = 3\nalpha = 0.9\n"
                    "tol = 1e-12\nmax_iters = 100000\n")
    assert load_pst_config(path) == PstConfig(gamma=0.25, delta=0.1, k=3,
                                              alpha=0.9)


def test_pst_config_file_errors(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("gamma 0.5\n")
    with pytest.raises(ValueError):
        load_pst_config(path)
    path.write_text("flux = 1\n")
    with pytest.raises(ValueError):
        load_pst_config(path)
    path.write_text("alpha = 0.5\nk = abc\n")
    with pytest.raises(ValueError, match=r"bad\.conf:2: "):
        load_pst_config(path)
    path.write_text("k = 5\nalpha = 0.5\nk = 7\n")
    with pytest.raises(ValueError, match=r"bad\.conf:3: duplicate key 'k' "
                                         r"\(first on line 1\)"):
        load_pst_config(path)


def test_predictions_csv_round_trip(tmp_path):
    rows = [("seq2", "c0", 0.25), ("seq1", "c1", -0.5), ("seq1", "c0", 1.0)]
    path = tmp_path / "preds.csv"
    save_predictions_csv(rows, path)
    with open(path, newline="", encoding="utf-8") as fh:
        loaded = list(csv.reader(fh))
    assert loaded == [["sequence", "composite", "score"],
                      ["seq1", "c0", "1"], ["seq1", "c1", "-0.5"],
                      ["seq2", "c0", "0.25"]]
