"""Acceptance gate: twelve frozen behaviour checks, each with a time cap.

Run with:  python3 -m pytest tests/test_acceptance.py -v -s

Every test prints one PASS line with its measured runtime.  A failed
assertion (or a blown time cap) turns the corresponding criterion red.
The oracles here are written independently of the library internals:
dense solves, exhaustive enumerations and hand arithmetic only.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from actkit.attributes import _context_block, train_and_score_stacked
from actkit.composites import PstConfig, build_knn_graph, classify_nn, \
    nn_script_classify, propagate, seq_feature
from actkit.corpus import AttributeVocab, ScriptCorpus, WeightMatrix, \
    binarize_weights, build_documents, tfidf_weights
from actkit.metrics import mean_average_precision
from actkit.posefeat import BM_DIM, FFT_DIM, JointTrackSet, PARTS, \
    bow_dim, pose_frame_features
from actkit.psinfer import EdgeParams, PartGraph, infer, pcp_eval
from actkit.synth import SyntheticConfig, gen_cooccurring_scores, \
    gen_synthetic, save_bundle
from actkit.experiment import run_experiment
from actkit.temporal import Detection, WindowScores, build_integral, nms, \
    window_counts, window_schedule


@contextmanager
def _limit(seconds, label):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, \
        f"{label}: took {elapsed:.2f}s, cap is {seconds:.0f}s"
    print(f"\n[acceptance] {label}: PASS ({elapsed:.2f}s < {seconds:.0f}s)")


# ---------------------------------------------------------------------------
# 1. feature dimensions

def test_criterion_01_feature_dimensions():
    with _limit(1.0, "criterion 1 (feature dimensions)"):
        rng = np.random.default_rng(0)
        start = rng.uniform(0, 100, size=(len(PARTS), 1, 2))
        steps = rng.normal(0, 2.0, size=(len(PARTS), 119, 2))
        tracks = JointTrackSet(
            np.concatenate([start, start + np.cumsum(steps, axis=1)], axis=1))
        fft = np.concatenate([sf.values for sf in pose_frame_features(
            tracks, 60, (100,), "fft")[100]])
        assert fft.shape == (256,)
        assert FFT_DIM == 256
        bm = np.concatenate([sf.values for sf in pose_frame_features(
            tracks, 60, (100,), "bm")[100]])
        assert bm.shape == (BM_DIM,)
        # encoded histogram sizes: per-dimension codebooks of size 2d,
        # stacked over the three window lengths
        assert bow_dim(FFT_DIM) == 1536
        assert bow_dim(556) == 3336
        assert bow_dim(BM_DIM) == 2 * BM_DIM * 3


# ---------------------------------------------------------------------------
# 2. tf*idf against hand arithmetic

def test_criterion_02_tfidf_oracle():
    with _limit(1.0, "criterion 2 (tf*idf oracle)"):
        corpus = ScriptCorpus({
            "a": [["cut the onion", "cut cut", "cut the pot"]],
            "b": [["cut the pot"]],
            "c": [["wash the pot"]],
        })
        vocab = AttributeVocab.from_pairs(
            [("cut", "activity"), ("pot", "object"), ("ghost", "object")])
        W = tfidf_weights(build_documents(corpus), vocab)
        col = {label: i for i, (label, _) in enumerate(vocab)}
        row = {c: i for i, c in enumerate(W.composites)}
        # "cut": 4 mentions in a, 1 in b, document frequency 2 of 3
        idf = math.log(3 / 2)
        assert abs(W.values[row["a"], col["cut"]] - 4 * idf) < 1e-12
        assert abs(W.values[row["b"], col["cut"]] - 1 * idf) < 1e-12
        assert W.values[row["c"], col["cut"]] == 0.0
        # "pot" appears in every document: idf vanishes exactly
        assert np.all(W.values[:, col["pot"]] == 0.0)
        # "ghost" never appears: weight is exactly zero, not NaN
        assert np.all(W.values[:, col["ghost"]] == 0.0)


# ---------------------------------------------------------------------------
# 3. pooling invariants

def test_criterion_03_pooling_invariants():
    with _limit(5.0, "criterion 3 (pooling invariants)"):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            n = int(rng.integers(1, 21))
            T = int(rng.integers(1, 51))
            S = rng.normal(size=(n, T))
            g = seq_feature(S)
            # dominance: the pooled vector bounds every column and every
            # leave-one-out context vector from above
            assert np.all(g[:, None] >= S - 1e-15)
            t = int(rng.integers(0, T))
            if T > 1:
                assert np.all(g >= _context_block(S)[t])
            # permutation invariance
            perm = rng.permutation(T)
            assert np.array_equal(seq_feature(S[:, perm]), g)
            if T > 1:
                where = int(np.argwhere(perm == t)[0][0])
                assert np.array_equal(_context_block(S[:, perm])[where],
                                      _context_block(S)[t])
            # monotonicity: raising one entry never lowers the pool
            S2 = S.copy()
            S2[rng.integers(0, n), rng.integers(0, T)] += rng.uniform(0, 5)
            assert np.all(seq_feature(S2) >= g)


# ---------------------------------------------------------------------------
# 4. label propagation against the dense closed form

def test_criterion_04_propagation_closed_form():
    with _limit(10.0, "criterion 4 (propagation closed form)"):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(3, 9))
            num_classes = int(rng.integers(1, 4))
            feats = rng.normal(size=(n, 4))
            graph = build_knn_graph(feats, int(rng.integers(1, n)))
            alpha = float(rng.uniform(0.05, 0.95))
            Y = rng.normal(size=(n, num_classes))
            F = propagate(graph, Y, PstConfig(alpha=alpha))
            W = graph.weights
            deg = W.sum(axis=1)
            inv = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1)),
                           0.0)
            S_n = inv[:, None] * W * inv[None, :]
            closed = (1 - alpha) * np.linalg.solve(np.eye(n) - alpha * S_n, Y)
            assert np.abs(F - closed).max() < 1e-8
        # alpha = 0 returns the seed matrix exactly, not approximately
        F0 = propagate(graph, Y, PstConfig(alpha=0.0))
        assert np.array_equal(F0, Y)


# ---------------------------------------------------------------------------
# 5. weighted nearest neighbour

def test_criterion_05_weighted_nn():
    with _limit(5.0, "criterion 5 (weighted nearest neighbour)"):
        rng = np.random.default_rng(5)
        comps = ("u", "v", "w")
        for _ in range(500):
            n = int(rng.integers(2, 8))
            m = int(rng.integers(1, 10))
            raw = rng.uniform(0, 1, size=(3, n)) * (rng.random((3, n)) < 0.7)
            raw[:, 0] = np.maximum(raw[:, 0], 0.1)   # no all-zero rows
            weights = binarize_weights(
                WeightMatrix(raw, comps, tuple(f"a{i}" for i in range(n))))
            X = rng.normal(size=(m, n))
            zs = [comps[int(rng.integers(0, 3))] for _ in range(m)]
            g = rng.normal(size=n)
            scores, excluded = nn_script_classify(
                X, zs, g[None, :], weights, comps)
            assert excluded == ()
            # the prediction is the top-scoring composite; the oracle
            # orders by distance, then by composite index
            best = min((math.sqrt(float(weights.row(z) @ (g - X[j]) ** 2)),
                        comps.index(z)) for j, z in enumerate(zs))
            z = int(np.argmax(scores[0]))
            assert z == best[1]
            assert -scores[0, z] == pytest.approx(best[0], abs=1e-12)
            # uniform weights reduce to plain nearest neighbour
            uniform = binarize_weights(
                WeightMatrix(np.ones((3, n)), comps, weights.attributes))
            scores_u, _ = nn_script_classify(X, zs, g[None, :], uniform,
                                             comps)
            scores_plain = classify_nn(X, zs, g[None, :], comps)
            assert np.argmax(scores_u[0]) == np.argmax(scores_plain[0])


# ---------------------------------------------------------------------------
# 6. pictorial-structures MAP against exhaustive enumeration

def _pair_table(edge, H, W):
    idx = np.arange(H * W)
    ys, xs = np.divmod(idx, W)
    dx = xs[:, None] - xs[None, :] - edge.mean[0]
    dy = ys[:, None] - ys[None, :] - edge.mean[1]
    return -0.5 * (dx ** 2 / edge.var[0] + dy ** 2 / edge.var[1])


def _enumerate_three(grids, edges, H, W):
    """Joint log-score tensor over all placements of a 3-part model."""
    logu = []
    for g in grids:
        flat = g.reshape(-1)
        logu.append(np.where(flat > 0, np.log(np.where(flat > 0, flat, 1)),
                             -1e30))
    total = (logu[0][:, None, None] + logu[1][None, :, None]
             + logu[2][None, None, :])
    for edge in edges:
        pen = _pair_table(edge, H, W)       # indexed [child, parent]
        c = int(edge.child[1:])
        p = int(edge.parent[1:])
        axes = [0, 1, 2]
        axes.remove(c)
        axes.remove(p)
        ordered = pen if c < p else pen.T   # axes in increasing order
        total = total + np.expand_dims(ordered, axis=axes[0])
    return total


def test_criterion_06_inference_oracle():
    with _limit(60.0, "criterion 6 (inference vs enumeration)"):
        rng = np.random.default_rng(6)
        for trial in range(200):
            H = int(rng.integers(3, 13))
            W = int(rng.integers(3, 13))
            grids = rng.uniform(0.01, 1.0, size=(3, H, W))
            if trial % 4 == 0:
                grids *= rng.random(grids.shape) > 0.2
                for p in range(3):
                    if not grids[p].any():
                        grids[p, 0, 0] = 0.5
            parent2 = "p0" if rng.random() < 0.5 else "p1"
            edges = (
                EdgeParams("p0", "p1", tuple(rng.uniform(-3, 3, 2)),
                           tuple(rng.uniform(0.3, 4.0, 2))),
                EdgeParams(parent2, "p2", tuple(rng.uniform(-3, 3, 2)),
                           tuple(rng.uniform(0.3, 4.0, 2))),
            )
            graph = PartGraph(("p0", "p1", "p2"), edges)
            total = _enumerate_three(grids, edges, H, W)
            best = total.max()
            for algorithm in ("naive", "distance_transform"):
                result = infer(grids, graph, algorithm=algorithm)
                assert result.log_score == pytest.approx(best, abs=1e-9)
                flat = []
                for name in ("p0", "p1", "p2"):
                    x, y = result.placements[name]
                    flat.append(y * W + x)
                assert total[tuple(flat)] == pytest.approx(best, abs=1e-9)


# ---------------------------------------------------------------------------
# 7. integral histograms against direct summation

def test_criterion_07_integral_histograms():
    with _limit(10.0, "criterion 7 (integral histograms)"):
        rng = np.random.default_rng(7)
        for T in (1, 5, 30, 59, 60, 73, 120, 200):
            counts = rng.uniform(0, 5, size=(T, 4))
            counts[rng.random(counts.shape) < 0.3] = 0.0
            table = build_integral(counts)
            if T <= 60:     # every window outright
                spans = ((s, e) for s in range(T) for e in range(s, T))
            else:           # every window of every schedule level
                spans = ((s, s + size - 1)
                         for size, step in window_schedule() if size <= T
                         for s in range(0, T - size + 1, step))
            for s, e in spans:
                direct = counts[s:e + 1].sum(axis=0)
                assert np.abs(window_counts(table, s, e) - direct).max() < 1e-9


# ---------------------------------------------------------------------------
# 8. non-maximum suppression properties

def _windows(dets):
    """Detection records of video "v", attribute "a" as a WindowScores
    record, in list order."""
    return WindowScores("v", "a", np.array([d.start for d in dets]),
                        np.array([d.end for d in dets]),
                        np.array([d.score for d in dets]))


def test_criterion_08_nms_properties():
    with _limit(5.0, "criterion 8 (NMS properties)"):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            m = int(rng.integers(1, 31))
            cands = []
            for _ in range(m):
                start = int(rng.integers(0, 100))
                cands.append(Detection("v", "a", start,
                                       start + int(rng.integers(0, 30)),
                                       float(rng.normal())))
            kept = nms(_windows(cands))
            for i, a in enumerate(kept):
                for b in kept[i + 1:]:
                    assert min(a.end, b.end) < max(a.start, b.start)
            assert max(d.score for d in kept) == max(d.score for d in cands)
            assert nms(_windows(kept)) == kept


# ---------------------------------------------------------------------------
# 9. window schedule

def test_criterion_09_window_schedule():
    with _limit(1.0, "criterion 9 (window schedule)"):
        assert window_schedule() == [
            (30, 6), (42, 8), (60, 12), (85, 17), (120, 24), (170, 34),
            (240, 48), (339, 68), (480, 96), (679, 136), (960, 192),
            (1358, 272)]


# ---------------------------------------------------------------------------
# 10. end-to-end synthetic benchmark

def test_criterion_10_end_to_end(tmp_path):
    with _limit(120.0, "criterion 10 (end-to-end synthetic)"):
        noisy = tmp_path / "noisy"
        save_bundle(gen_synthetic(SyntheticConfig(seed=0)), noisy)
        base = {"data": str(noisy)}

        svm = run_experiment({**base, "output": str(tmp_path / "svm"),
                              "mode": "svm"})
        assert svm.mean_ap >= 0.95

        clean = tmp_path / "clean"
        save_bundle(gen_synthetic(SyntheticConfig(seed=0, noise=0.0)), clean)
        planted = run_experiment({"data": str(clean),
                                  "output": str(tmp_path / "planted"),
                                  "mode": "script", "weights": "planted"})
        assert planted.accuracy == 1.0

        mined = run_experiment({**base, "output": str(tmp_path / "mined"),
                                "mode": "script", "weights": "mined"})
        assert mined.accuracy >= 0.8

        pst = run_experiment({**base, "output": str(tmp_path / "pst"),
                              "mode": "pst-zero-shot", "weights": "mined"})
        assert pst.accuracy >= mined.accuracy


# ---------------------------------------------------------------------------
# 11. co-occurrence stacking does not hurt

def test_criterion_11_cooccurrence_stacking():
    with _limit(60.0, "criterion 11 (co-occurrence stacking)"):
        score_mats, label_mats, labels = gen_cooccurring_scores(
            seed=0, num_sequences=12, num_intervals=16)
        sets = [[{labels[i] for i in range(len(labels)) if L[i, t]}
                 for t in range(L.shape[1])] for L in label_mats]
        refined, _ = train_and_score_stacked(score_mats[:8], sets[:8],
                                             score_mats[8:], labels,
                                             "cooccurrence")

        def mean_ap(score_list):
            per_label = {}
            for i, label in enumerate(labels):
                scores = np.concatenate([S[i] for S in score_list])
                truth = np.concatenate([L[i] for L in label_mats[8:]])
                per_label[label] = (scores, truth)
            return mean_average_precision(per_label)[0]

        base = mean_ap(score_mats[8:])
        stacked = mean_ap(refined)
        assert stacked >= base


# ---------------------------------------------------------------------------
# 12. percentage of correct parts

def test_criterion_12_pcp():
    with _limit(1.0, "criterion 12 (PCP)"):
        truth = {"r_shoulder": (10.0, 10.0), "r_elbow": (10.0, 20.0),
                 "r_wrist": (10.0, 30.0), "l_shoulder": (30.0, 10.0),
                 "l_elbow": (30.0, 20.0), "l_wrist": (30.0, 30.0)}
        frac, per_stick, excluded = pcp_eval(dict(truth), truth)
        assert frac == 1.0
        assert all(per_stick.values())
        assert excluded == ()
        # push one wrist 0.6 stick lengths away: only its stick fails
        pred = dict(truth)
        pred["r_wrist"] = (10.0, 36.0)
        frac, per_stick, _ = pcp_eval(pred, truth)
        assert frac == pytest.approx(3 / 4)
        assert per_stick == {"r_upper_arm": True, "l_upper_arm": True,
                             "r_lower_arm": False, "l_lower_arm": True}
