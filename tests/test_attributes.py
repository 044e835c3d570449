import json
import re
import zipfile

import numpy as np
import pytest

from actkit import attributes, tables
from actkit.attributes import (
    DEFAULT_FLOOR,
    STACK_MODES,
    TrainConfig,
    load_annotations,
    load_models_npz,
    save_annotations,
    save_models_npz,
    score_intervals,
    train_and_score_stacked,
    train_linear_ova,
)


def hinge_objective(X, y, w, b, lam) -> float:
    """The objective the trainer descends: lam/2 (||w||^2 + b^2) plus the
    mean hinge loss.  The bias enters the regularizer because it is
    trained as a constant-one feature."""
    margins = y * (X @ w + b)
    reg = 0.5 * lam * (float(w @ w) + b * b)
    return reg + float(np.maximum(0.0, 1.0 - margins).mean())


def context_feature(scores, t: int, floor: float = DEFAULT_FLOOR) -> np.ndarray:
    """Element-wise maximum over all intervals except t, the oracle of
    attributes._context_block.

    For single-interval sequences there is no context; the feature is a
    constant floor vector.
    """
    S = np.asarray(scores, dtype=float)
    n, T = S.shape
    if not 0 <= t < T:
        raise IndexError(f"interval {t} out of range for T={T}")
    if T == 1:
        return np.full(n, floor)
    rest = np.delete(S, t, axis=1)
    return rest.max(axis=1)


def _hinge_descent(X, y, lam, epochs):
    """The trainer on one label: returns (w, b)."""
    from actkit.attributes import _hinge_descent_batch
    W, _ = _hinge_descent_batch(X, np.asarray(y, dtype=float)[:, None], lam,
                                epochs)
    return W[:-1, 0], float(W[-1, 0])


def _rows(ms):
    """(weights, bias, mean, std, constant) of each row of a fitted table."""
    D = ms.feature_dim
    return [(r[:D], r[D], r[D + 1], r[D + 2], r[D + 3]) for r in ms.models]


def _separable_1d():
    X = np.array([[1.0], [1.2], [-1.0], [-1.2]])
    labels = [{"wash"}, {"wash"}, set(), set()]
    return X, labels


def test_train_separable_positive_weight():
    X, labels = _separable_1d()
    ms = train_linear_ova(X, labels, ["wash"])
    w, b, *_ = _rows(ms)[0]
    assert w[0] > 0
    # every training margin has the right sign
    scores = X @ w + b
    y = np.array([1, 1, -1, -1])
    assert np.all(y * scores > 0)


def test_train_deterministic():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 5))
    labels = [{"a"} if x[0] > 0 else set() for x in X]
    m1 = train_linear_ova(X, labels, ["a"])
    m2 = train_linear_ova(X, labels, ["a"])
    assert m1.models.tobytes() == m2.models.tobytes()


def test_train_skips_single_class_attributes():
    X, labels = _separable_1d()
    ms = train_linear_ova(X, labels, ["wash", "ghost"])
    assert ms.trained.tolist() == [True, False]
    assert len(ms.models) == 1
    assert ms.skipped[0][0] == "ghost"


def test_train_rejects_nan():
    X = np.array([[np.nan], [1.0]])
    with pytest.raises(ValueError):
        train_linear_ova(X, [set(), {"a"}], ["a"])


def test_objective_non_increasing_after_first_epoch():
    # separable 1-D toy data; the descent hits its fixed point quickly and
    # the descended objective must never increase after epoch 1
    X = np.array([[1.0], [1.2], [-1.0], [-1.2]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    lam = 2.0
    values = []
    for epochs in range(1, 30):
        w, b = _hinge_descent(X, y, lam, epochs)
        values.append(hinge_objective(X, y, w, b, lam))
    for a, b_ in zip(values, values[1:]):
        assert b_ <= a + 1e-12


def test_score_intervals_fills_floor_for_skipped():
    X, labels = _separable_1d()
    ms = train_linear_ova(X, labels, ["wash", "ghost"])
    S = score_intervals(ms, X)
    assert S.shape == (2, len(X))
    assert np.all(S[1] == DEFAULT_FLOOR)


def test_score_znorm_uses_training_statistics():
    X, labels = _separable_1d()
    ms = train_linear_ova(X, labels, ["wash"])
    S = score_intervals(ms, X)
    # z-normalized training scores have zero mean, unit variance
    assert S[0].mean() == pytest.approx(0.0, abs=1e-9)
    assert S[0].std() == pytest.approx(1.0, abs=1e-9)


def test_score_dimension_mismatch():
    X = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    ms = train_linear_ova(X, [{"a"}, set()], ["a"], TrainConfig(epochs=5))
    with pytest.raises(ValueError):
        score_intervals(ms, np.zeros((2, 4)))


def test_context_feature_example():
    S = np.array([[1.0, 5.0, 2.0]])
    # excluding the middle interval leaves max(1, 2)
    assert context_feature(S, 1)[0] == 2.0
    # excluding the first leaves max(5, 2)
    assert context_feature(S, 0)[0] == 5.0


def test_context_feature_single_interval_floor():
    S = np.array([[3.0], [4.0]])
    assert np.all(context_feature(S, 0) == -10.0)
    assert np.all(context_feature(S, 0, floor=-5.0) == -5.0)


def test_context_feature_dominates_other_columns():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = rng.integers(1, 8)
        T = rng.integers(2, 10)
        S = rng.normal(size=(n, T))
        t = int(rng.integers(0, T))
        con = context_feature(S, t)
        others = np.delete(S, t, axis=1)
        assert np.all(con[:, None] >= others)
        # and equals one of them per row
        assert np.all((con[:, None] == others).any(axis=1))


NAMES3 = ("a0", "a1", "a2")


def _stacking_data(seed=0, n_seq=6, T=8):
    """Score matrices over NAMES3 where attribute a1 is noisy but always
    co-occurs with the cleanly scored a0."""
    rng = np.random.default_rng(seed)
    mats, labels = [], []
    for _ in range(n_seq):
        present = rng.integers(0, 2, size=T).astype(bool)
        S = np.zeros((3, T))
        S[0] = np.where(present, 3.0, -3.0) + rng.normal(0, 0.3, T)
        S[1] = np.where(present, 0.6, -0.6) + rng.normal(0, 2.0, T)
        S[2] = rng.normal(0, 1.0, T)
        mats.append(S)
        labels.append([{"a0", "a1"} if p else set() for p in present])
    return mats, labels


def test_stacked_modes_run_and_shape():
    mats, labels = _stacking_data()
    refined, _ = train_and_score_stacked(mats[:4], labels[:4], mats[4:], NAMES3,
                                         "context")
    assert len(refined) == 2
    assert refined[0].shape == mats[4].shape


def test_stacked_base_modes_require_features():
    mats, labels = _stacking_data()
    with pytest.raises(ValueError):
        train_and_score_stacked(mats[:4], labels[:4], mats[4:], NAMES3,
                                "base+context")


def test_stacked_unknown_mode():
    mats, labels = _stacking_data()
    with pytest.raises(ValueError):
        train_and_score_stacked(mats[:4], labels[:4], mats[4:], NAMES3,
                                "bogus")


def test_stacked_all_mode_feature_dimension():
    # with n attributes and N base dims, each attribute's classifier has
    # N + n + (n-1) free feature columns: the shared design carries all n
    # co-occurrence columns and the mask removes the attribute's own one
    mats, labels = _stacking_data()
    feats = [np.ones((m.shape[1], 7)) for m in mats]
    from actkit.attributes import _stacked_design
    X, mask = _stacked_design(mats[:2], feats[:2], True, True, True)
    assert X.shape[1] == 7 + 3 + 3
    assert mask.shape == (X.shape[1] + 1, 3)
    assert np.all(mask[:-1].sum(axis=0) == 7 + 3 + 2)
    assert np.all(mask[-1] == 1)          # the bias always trains
    for i in range(3):
        assert mask[7 + 3 + i, i] == 0


def test_stacked_context_constant_for_single_interval_sequences():
    rng = np.random.default_rng(4)
    mats = [rng.normal(size=(2, 1)) for _ in range(6)]
    labels = [[{"a0"}] if i % 2 == 0 else [{"a1"}] for i in range(4)]
    refined, _ = train_and_score_stacked(mats[:4], labels, mats[4:],
                                         ("a0", "a1"), "context")
    # all context features equal the floor vector, so scores are constant
    for S in refined:
        assert np.allclose(S, S[:, :1])


def test_stacked_cooccurrence_improves_noisy_attribute():
    # frozen check: a1 co-occurs with the clean a0, so co-occurrence
    # stacking must not degrade its ranking quality
    from actkit.metrics import average_precision
    mats, labels = _stacking_data(seed=5, n_seq=10, T=12)
    refined, _ = train_and_score_stacked(mats[:6], labels[:6], mats[6:], NAMES3,
                                         "cooccurrence")
    base_ap, ref_ap = [], []
    for d in range(4):
        truth = np.array([1 if "a1" in s else 0 for s in labels[6 + d]])
        if truth.sum() == 0 or truth.sum() == len(truth):
            continue
        base_ap.append(average_precision(mats[6 + d][1], truth))
        ref_ap.append(average_precision(refined[d][1], truth))
    assert np.mean(ref_ap) >= np.mean(base_ap)


def _ragged_stacking_case(seed=11, n=5, N=4):
    """Random ragged sequences (T = 1 included), tied maxima, and an
    attribute ("a4") that never occurs in training: the score matrices,
    features, label sets and attribute names.  Scores are not rounded: a
    coarse grid puts hinge margins exactly on 1, where the last bit of a
    sum decides which side of the hinge a row falls."""
    rng = np.random.default_rng(seed)
    names = tuple(f"a{i}" for i in range(n))
    lengths = [1, 3, 6, 1, 4, 7, 2, 5, 1, 3]
    mats, feats, labels = [], [], []
    for T in lengths:
        S = rng.normal(size=(n, T))
        if T > 2:
            S[:, -1] = S.max(axis=1)
        mats.append(S)
        feats.append(rng.normal(size=(T, N)))
        labels.append([{a for a in names[:-1] if rng.random() < 0.4}
                       for _ in range(T)])
    return mats, feats, labels, names


def _per_label_stacked(train, labels, evals, names, mode, ftr, fev, cfg):
    """Per-label reference: one design and one descent per attribute."""
    use_base, use_con, use_coocc = STACK_MODES[mode]

    def design(mats, feats, i):
        rows = []
        for d, M in enumerate(mats):
            for t in range(M.shape[1]):
                parts = [feats[d][t]] if use_base else []
                if use_con:
                    parts.append(context_feature(M, t, DEFAULT_FLOOR))
                if use_coocc:
                    parts.append(np.delete(M[:, t], i))
                rows.append(np.concatenate(parts))
        return np.array(rows)

    flat = [s for seq in labels for s in seq]
    out = np.full((len(names), sum(M.shape[1] for M in evals)),
                  DEFAULT_FLOOR)
    floored = []
    for i, a in enumerate(names):
        y = np.array([1.0 if a in s else -1.0 for s in flat])
        if (y > 0).all() or (y < 0).all():
            floored.append(a)
            continue
        Xtr = design(train, ftr, i)
        w, b = _hinge_descent(Xtr, y, cfg.lam, cfg.epochs)
        tr = Xtr @ w + b
        std = tr.std() if tr.std() >= 1e-12 else 1.0
        out[i] = (design(evals, fev, i) @ w + b - tr.mean()) / std
    return out, tuple(floored)


@pytest.mark.parametrize("mode", STACK_MODES)
def test_stacked_matches_per_label_reference(mode):
    mats, feats, labels, names = _ragged_stacking_case()
    cfg = TrainConfig(epochs=60)
    refined, _ = train_and_score_stacked(mats[:6], labels[:6], mats[6:], names,
                                         mode, feats[:6], feats[6:], cfg)
    ref, floored = _per_label_stacked(mats[:6], labels[:6], mats[6:], names,
                                      mode, feats[:6], feats[6:], cfg)
    got = np.concatenate(refined, axis=1)
    assert floored == ("a4",)
    assert np.all(got[names.index("a4")] == DEFAULT_FLOOR)
    assert np.max(np.abs(got - ref)) <= 1e-12


def test_stacked_table_scores_the_eval_design_to_the_refined_arrays():
    # the untrained attribute a4 sits between trained ones, so the
    # co-occurrence mask must be sliced by the trained flags
    mats, feats, labels, names = _ragged_stacking_case()
    order = [0, 4, 1, 2, 3]
    mats = [S[order] for S in mats]
    names = tuple(names[i] for i in order)
    cfg = TrainConfig(epochs=60)
    refined, model_set = train_and_score_stacked(
        mats[:6], labels[:6], mats[6:], names, "all", feats[:6], feats[6:],
        cfg)
    from actkit.attributes import _stacked_design
    X, _ = _stacked_design(mats[6:], feats[6:], *STACK_MODES["all"])
    got = score_intervals(model_set, X)
    assert np.array_equal(np.concatenate(refined, axis=1), got)
    assert model_set.labels == names and model_set.config is cfg
    assert model_set.trained.tolist() == [True, False, True, True, True]
    m = sum(map(len, labels[:6]))
    assert model_set.skipped == (("a4", f"0 positive / {m} negative "
                                  "intervals"),)
    own = X.shape[1] - len(names) + np.flatnonzero(model_set.trained)
    assert np.all(model_set.models[np.arange(4), own] == 0.0)
    ref, _ = _per_label_stacked(mats[:6], labels[:6], mats[6:], names, "all",
                                feats[:6], feats[6:], cfg)
    assert np.max(np.abs(got - ref)) <= 1e-12


def test_batched_ova_matches_per_label_reference():
    from actkit.composites import classify_svm
    rng = np.random.default_rng(12)
    X = rng.normal(size=(30, 4))
    names = ("a0", "a1", "a2", "none", "all")
    sets = [{a for a in names[:3] if rng.random() < 0.4} | {"all"}
            for _ in range(30)]
    cfg = TrainConfig(epochs=80)
    ms = train_linear_ova(X, sets, names, cfg)
    assert [a for a, _ in ms.skipped] == ["none", "all"]
    assert ms.trained.tolist() == [True, True, True, False, False]
    for a, (w_, b_, mean, std, constant) in zip(names, _rows(ms)):
        y = np.array([1.0 if a in s else -1.0 for s in sets])
        w, b = _hinge_descent(X, y, cfg.lam, cfg.epochs)
        tr = X @ w + b
        assert np.max(np.abs(w_ - w)) <= 1e-12
        assert abs(b_ - b) <= 1e-12
        assert abs(mean - tr.mean()) <= 1e-12
        assert abs(std - tr.std()) <= 1e-12
        assert constant == 0.0

    comps = [sorted(s - {"all"})[0] if s != {"all"} else "a0" for s in sets]
    Xt = rng.normal(size=(9, 4))
    scores, report, _ = classify_svm(X, comps, Xt, names[:4], config=cfg)
    assert report["skipped"] == ["none"]
    for z, c in enumerate(names[:3]):
        y = np.array([1.0 if cc == c else -1.0 for cc in comps])
        w, b = _hinge_descent(X, y, cfg.lam, cfg.epochs)
        tr = X @ w + b
        ref = (Xt @ w + b - tr.mean()) / tr.std()
        assert np.max(np.abs(scores[:, z] - ref)) <= 1e-12
    assert np.all(scores[:, 3] == DEFAULT_FLOOR)


def _hinge_descent_reference(X, Y, lam, epochs, mask=1.0, dtype=np.float32):
    """The trainer's epoch loop in dtype, written out plainly: margins and
    violators allocated afresh every epoch, and the gradient summed
    block by block of 256 rows, in row order."""
    Xa = np.hstack([X, np.ones((X.shape[0], 1))]).astype(dtype)
    Y, mask = Y.astype(dtype), np.asarray(mask, dtype)
    W = np.zeros((Xa.shape[1], Y.shape[1]), dtype)
    for t in range(1, epochs + 1):
        viol = np.where(Y * (Xa @ W) < 1.0, Y, dtype(0.0))
        grad = Xa[:256].T @ viol[:256]
        for r in range(256, len(Y), 256):
            grad += Xa[r:r + 256].T @ viol[r:r + 256]
        W -= (lam * W - grad / len(Y)) * mask / (lam * t)
    return W.astype(float)


def _cooccurrence_mask(D, A):
    """Ones, except each label's own score among the last A features."""
    mask = np.ones((D + 1, A))
    mask[D - A + np.arange(A), np.arange(A)] = 0.0
    return mask


# A float64 case scales the features by 2^60: exactly, and far beyond
# the float32 range bound, so the descent must pick float64 for them.
# The float32 cases keep their ids from before the dtype was a parameter.
DESCENT_CASES = [
    (1, 3, 1, 0.01, 20, False),         # one row, one label
    (40, 6, 1, 0.01, 30, False),        # one label
    (5, 12, 4, 0.01, 25, False),        # more weights than rows
    (60, 9, 7, 0.01, 40, True),         # co-occurrence-style mask
    (30, 5, 3, 1.0, 15, True),          # lam = 1
    (30, 5, 3, 0.1, 1, False),          # one epoch
    (200, 16, 11, 0.05, 50, True),
    (700, 8, 5, 0.01, 20, True),        # three gradient blocks
]


@pytest.mark.parametrize("m, D, A, lam, epochs, masked, dtype", [
    pytest.param(*case, dtype, id="-".join(map(str, case))
                 + ("-float64" if dtype is np.float64 else ""))
    for case in DESCENT_CASES for dtype in (np.float32, np.float64)])
def test_hinge_descent_batch_matches_the_former_loop_bitwise(
        m, D, A, lam, epochs, masked, dtype):
    from actkit.attributes import _hinge_descent_batch
    rng = np.random.default_rng(m * 1000 + D * 10 + A)
    X = rng.normal(size=(m, D)) * (2.0 ** 60 if dtype is np.float64 else 1)
    Y = np.where(rng.random((m, A)) < 0.4, 1.0, -1.0)
    mask = _cooccurrence_mask(D, A) if masked else 1.0
    got, _ = _hinge_descent_batch(X, Y, lam, epochs, mask)
    assert got.tobytes() == \
        _hinge_descent_reference(X, Y, lam, epochs, mask, dtype).tobytes()


def test_hinge_descent_batch_margin_of_one_is_no_violation():
    # after one epoch at lam = 1 the bias alone gives margins of exactly
    # 1.0, which must not count as violations in the second epoch
    from actkit.attributes import _hinge_descent_batch
    X = np.zeros((2, 1))
    Y = np.array([[1.0, -1.0], [1.0, -1.0]])
    got, _ = _hinge_descent_batch(X, Y, 1.0, 2)
    assert got.tobytes() == _hinge_descent_reference(X, Y, 1.0, 2).tobytes()
    assert np.array_equal(got, [[0.0, 0.0], [0.5, -0.5]])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("epochs", [1, 7, 30, 95])
def test_descent_objective_matches_the_oracle(dtype, epochs):
    # row 0: the weights entering the first epoch of the last tenth, that
    # is a descent of epochs - ceil(epochs / 10) epochs; row 1: those
    # entering the last epoch, a descent of epochs - 1.  The descent
    # reads float32 margins, the oracle forms float64 ones.
    from actkit.attributes import _hinge_descent_batch
    rng = np.random.default_rng(21)
    X = rng.normal(size=(300, 7)) * (2.0 ** 60 if dtype is np.float64 else 1)
    Y = np.where(rng.random((300, 4)) < 0.3, 1.0, -1.0)
    lam = 0.05
    _, objective = _hinge_descent_batch(X, Y, lam, epochs)
    rtol = 1e-5 if dtype is np.float32 else 1e-12
    for row, done in enumerate((epochs - -(-epochs // 10), epochs - 1)):
        W, _ = _hinge_descent_batch(X, Y, lam, done)    # zeros when done = 0
        want = [hinge_objective(X, Y[:, k], W[:-1, k], W[-1, k], lam)
                for k in range(4)]
        assert objective[row] == pytest.approx(want, rel=rtol)


def test_descent_dtype_follows_the_range_bound():
    # float32 while max(m max(s, 1), (sum s_j^2 + 1) / lam, lam epochs)
    # is at most 2^100 and every nonzero |x| is a normal float32
    from actkit.attributes import _descent_dtype
    X = np.zeros((4, 2))
    X[0, 0] = 2.0 ** 50                 # sum s_j^2 + 1 rounds to 2^100
    assert _descent_dtype(X, 1.0, 200) is np.float32
    assert _descent_dtype(X * 2, 1.0, 200) is np.float64
    assert _descent_dtype(X, 0.5, 200) is np.float64
    assert _descent_dtype(np.zeros((4, 2)), 2.0 ** 98, 4) is np.float32
    assert _descent_dtype(np.zeros((4, 2)), 2.0 ** 98, 5) is np.float64
    X[0, 0] = 2.0 ** 98                 # every bound exactly 2^100 ...
    assert _descent_dtype(X, 2.0 ** 96, 1) is np.float32
    assert _descent_dtype(np.vstack([X, X[1:2]]), 2.0 ** 96, 1) \
        is np.float64                   # ... but m s with a fifth row
    X[1, 1] = np.finfo(np.float32).tiny / 2
    assert _descent_dtype(X[1:], 1.0, 200) is np.float64
    X[1, 1] = np.nan
    assert _descent_dtype(X[1:], 1.0, 200) is np.float64


def test_context_block_equals_context_feature_exactly():
    from actkit.attributes import _context_block
    rng = np.random.default_rng(13)
    for _ in range(200):
        n, T = int(rng.integers(1, 6)), int(rng.integers(1, 8))
        S = rng.integers(-2, 3, size=(n, T)).astype(float)   # many ties
        C = _context_block(S)
        for t in range(T):
            assert np.array_equal(C[t], context_feature(S, t))


@pytest.mark.parametrize("bad, words", [
    (np.zeros(3), "score matrix must be 2-D"),
    (np.zeros((2, 3)), "score matrix row count does not match labels"),
    (np.full((3, 2), np.inf), "score matrix contains non-finite values"),
    (np.full((3, 2), np.nan), "score matrix contains non-finite values"),
])
@pytest.mark.parametrize("side", ["train", "eval"])
def test_stacked_rejects_bad_score_matrices(bad, words, side):
    mats, labels = _stacking_data()
    train, evals = list(mats[:4]), list(mats[4:])
    (train if side == "train" else evals)[-1] = bad
    with pytest.raises(ValueError, match=words):
        train_and_score_stacked(train, labels[:4], evals, NAMES3, "context")


def test_score_matrix_validation():
    # score_intervals is the scoring step that interval scoring, stacking
    # and the composite SVM share: it rejects non-finite features and a
    # non-finite score result
    from actkit.composites import classify_svm
    X, labels = _separable_1d()
    ms = train_linear_ova(X, labels, ["wash"])
    ms.models[0, 0] = np.nan
    with pytest.raises(ValueError, match="score matrix contains non-finite"):
        score_intervals(ms, X)
    Xt = np.array([[0.5], [np.inf]])
    with pytest.raises(ValueError, match="features contain non-finite values"):
        classify_svm(X, ["a", "a", "b", "b"], Xt, ("a", "b"))


def test_ova_training_rejects_non_finite_features():
    # fit_ova checks the design of every one-vs-all problem, so a NaN or
    # infinite feature is not reported as an overflow
    from actkit.composites import classify_svm
    X, labels = _scaled_sample(1.0)
    X[3, 2] = np.nan
    with pytest.raises(ValueError, match="features contain non-finite"):
        train_linear_ova(X, labels, ("a", "b"))
    with pytest.raises(ValueError, match="features contain non-finite"):
        classify_svm(X[:30], ["a", "b", "c"] * 10, X[30:], ("a", "b", "c"))
    mats, seq_labels = _stacking_data()
    feats = [np.ones((S.shape[1], 2)) for S in mats]
    feats[0][0, 1] = np.inf
    with pytest.raises(ValueError, match="features contain non-finite"):
        train_and_score_stacked(mats[:4], seq_labels[:4], mats[4:], NAMES3,
                                "base+context", feats[:4], feats[4:])


def _scaled_sample(scale):
    """A 40 x 6 normal sample times scale, labels a and b alternating."""
    X = np.random.default_rng(0).normal(size=(40, 6)) * scale
    return X, [{"a"} if i % 2 else {"b"} for i in range(40)]


OVERFLOW = "training score mean or std is not finite: the features are too large"


@pytest.mark.parametrize("scale", [1e78, 1e160])
def test_ova_training_rejects_overflowing_scores(scale):
    # at 1e78 the score std overflows (the model file would not load and
    # every z-score would read 0); at 1e160 the descent overflows too
    from actkit.composites import classify_svm
    X, labels = _scaled_sample(scale)
    with pytest.raises(ValueError, match=OVERFLOW):
        train_linear_ova(X, labels, ("a", "b"))
    with pytest.raises(ValueError, match=OVERFLOW):
        classify_svm(X[:30], ["a", "b", "c"] * 10, X[30:], ("a", "b", "c"))
    mats, seq_labels = _stacking_data()
    mats = [S * scale for S in mats]
    with pytest.raises(ValueError, match=OVERFLOW):
        train_and_score_stacked(mats[:4], seq_labels[:4], mats[4:], NAMES3,
                                "context")


def test_ova_training_just_below_overflow_round_trips(tmp_path):
    X, labels = _scaled_sample(1e76)
    ms = train_linear_ova(X, labels, ("a", "b"))
    assert np.isfinite(ms.models).all()
    save_models_npz(ms, tmp_path / "m.npz")
    loaded = load_models_npz(tmp_path / "m.npz")
    assert np.array_equal(loaded.models, ms.models)
    S = score_intervals(loaded, X)
    assert S.tobytes() == score_intervals(ms, X).tobytes()
    assert np.isfinite(S).all() and np.any(S != 0)


def test_ova_training_just_inside_the_float32_bound_round_trips(tmp_path):
    # the largest scale whose margin bound (sum s_j^2 + 1) / lam stays at
    # most 2^100 trains in float32; 2 % more takes float64
    from actkit.attributes import _descent_dtype
    X, labels = _scaled_sample(1.0)
    s = np.abs(X).max(axis=0)
    lam, epochs = TrainConfig.lam, TrainConfig.epochs
    edge = np.sqrt((2.0 ** 100 * lam - 1) / (s @ s))
    assert _descent_dtype(X * edge * 1.01, lam, epochs) is np.float64
    X = X * edge * 0.99
    assert _descent_dtype(X, lam, epochs) is np.float32
    ms = train_linear_ova(X, labels, ("a", "b"))
    W = ms.models[:, :7]
    assert np.array_equal(W.astype(np.float32), W)    # float32 weights
    assert np.isfinite(ms.models).all()
    save_models_npz(ms, tmp_path / "m.npz")
    loaded = load_models_npz(tmp_path / "m.npz")
    assert np.array_equal(loaded.models, ms.models)
    S = score_intervals(loaded, X)
    assert np.isfinite(S).all() and np.any(S != 0)


# ---------------------------------------------------------------------------
# file round trips

def test_models_npz_round_trip(tmp_path):
    X, labels = _separable_1d()
    ms = train_linear_ova(X, labels, ["wash", "ghost"])
    save_models_npz(ms, tmp_path / "m.npz")
    loaded = load_models_npz(tmp_path / "m.npz")
    assert loaded.labels == ms.labels
    assert loaded.skipped == ms.skipped
    assert np.array_equal(loaded.models, ms.models)
    assert np.array_equal(loaded.trained, ms.trained)
    S1 = score_intervals(ms, X)
    S2 = score_intervals(loaded, X)
    assert np.allclose(S1, S2)


def _models_npz_former(ms, path, labels=None, **settings):
    """A model file as the former per-label writer laid it out: one
    contiguous weight vector and one [bias, mean, std, constant] array of
    Python floats per trained label.  labels replaces the JSON label
    string: earlier versions stored an object array.  settings go into
    the config: earlier files also record a seed, and still earlier ones
    the then-optional znorm and floor settings."""
    arrays = {
        "labels": np.array(json.dumps(list(ms.labels))) if labels is None
        else labels,
        "feature_dim": np.array(ms.feature_dim),
        "config": np.array(json.dumps({
            "lam": ms.config.lam, "epochs": ms.config.epochs,
            **settings})),
        "skipped": np.array(json.dumps(list(ms.skipped))),
    }
    for idx, (w, *meta) in zip(np.flatnonzero(ms.trained), _rows(ms)):
        arrays[f"w_{idx}"] = w.copy()
        arrays[f"meta_{idx}"] = np.array([float(v) for v in meta])
    np.savez(path, **arrays)


def _random_model_set(seed, n_labels, trained, D=6, m=40):
    """A set over n_labels labels; the first `trained` of them occur in
    some but not all rows, the rest in none (so they are skipped)."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(m, D))
    names = [f"a{i}" for i in range(n_labels)]
    sets = [{a for a in names[:trained] if rng.random() < 0.4}
            for _ in range(m)]
    sets[0] |= set(names[:trained])
    sets[1] = set()
    return train_linear_ova(X, sets, names, TrainConfig(epochs=30))


def _per_label_scores(ms, X):
    """The former scoring loop: one matrix-vector product per trained
    label, DEFAULT_FLOOR rows for the others."""
    out = np.full((len(ms.labels), len(X)), DEFAULT_FLOOR)
    for i, (w, b, mean, std, _) in zip(np.flatnonzero(ms.trained),
                                       _rows(ms)):
        out[i] = (X @ w.copy() + float(b) - float(mean)) / float(std)
    return out


@pytest.mark.parametrize("n_labels, trained", [(3, 0), (5, 5), (7, 4),
                                               (0, 0), (1, 1)])
@pytest.mark.parametrize("rows", [1, 2, 33])
def test_score_intervals_matches_the_per_label_formula(n_labels, trained,
                                                       rows):
    ms = _random_model_set(n_labels * 10 + trained, n_labels, trained)
    assert len(ms.models) == int(ms.trained.sum()) == trained
    X = np.random.default_rng(rows).normal(size=(rows, ms.feature_dim))
    S = score_intervals(ms, X)
    assert S.shape == (n_labels, rows)
    assert np.max(np.abs(S - _per_label_scores(ms, X)),
                  initial=0.0) <= 1e-12
    assert np.all(S[trained:] == DEFAULT_FLOOR)


def _constant_score_set():
    """All-zero features: every trained label scores a constant."""
    ms = train_linear_ova(np.zeros((4, 2)), [{"a"}, set(), {"a"}, {"b"}],
                          ["a", "b", "c"], TrainConfig(epochs=7))
    assert [row[-1] for row in _rows(ms)] == [1.0, 1.0]
    return ms


@pytest.mark.parametrize("make", [lambda: _random_model_set(3, 5, 3),
                                  _constant_score_set],
                         ids=["random", "constant"])
def test_models_npz_matches_the_former_writer(tmp_path, make):
    ms = make()
    save_models_npz(ms, tmp_path / "new.npz")
    _models_npz_former(ms, tmp_path / "old.npz")
    with zipfile.ZipFile(tmp_path / "new.npz") as new, \
            zipfile.ZipFile(tmp_path / "old.npz") as old:
        assert new.namelist() == old.namelist()
        for name in new.namelist():
            assert new.read(name) == old.read(name), name
    loaded = load_models_npz(tmp_path / "old.npz")
    assert loaded.models.tobytes() == ms.models.tobytes()
    assert loaded.trained.tobytes() == ms.trained.tobytes()
    assert (loaded.labels, loaded.skipped, loaded.config,
            loaded.feature_dim) == (ms.labels, ms.skipped, ms.config,
                                    ms.feature_dim)
    X = np.random.default_rng(0).normal(size=(9, ms.feature_dim))
    assert score_intervals(loaded, X).tobytes() == \
        score_intervals(ms, X).tobytes()


@pytest.mark.parametrize("seed", [0, 3])
def test_models_npz_recording_a_seed_loads_bit_identically(tmp_path, seed):
    # every file written before the seed was dropped records one
    ms = _random_model_set(3, 5, 3)
    path = tmp_path / "seeded.npz"
    _models_npz_former(ms, path, seed=seed)
    with np.load(path) as data:
        assert json.loads(str(data["config"]))["seed"] == seed
    loaded = load_models_npz(path)
    assert loaded.config == ms.config == TrainConfig(epochs=30)
    assert loaded.models.tobytes() == ms.models.tobytes()
    X = np.random.default_rng(1).normal(size=(9, ms.feature_dim))
    assert score_intervals(loaded, X).tobytes() == \
        score_intervals(ms, X).tobytes()


def test_train_config_has_lam_and_epochs_only():
    from dataclasses import fields
    assert [f.name for f in fields(TrainConfig)] == ["lam", "epochs"]


@pytest.mark.parametrize("key, value", [
    ("w_0", lambda a: a[:5]),             # truncated weights
    ("w_0", lambda a: np.append(a, 1.0)),
    ("w_2", lambda a: a[None, :]),
    ("meta_0", None),                     # missing
    ("meta_2", lambda a: a[:3]),
    ("meta_0", lambda a: np.append(a, 0.0)),
])
def test_models_npz_malformed_table_rejected(tmp_path, key, value):
    ms = _random_model_set(4, 3, 3, D=32)
    save_models_npz(ms, tmp_path / "m.npz")
    with np.load(tmp_path / "m.npz") as data:
        arrays = {k: data[k] for k in data.files}
    if value is None:
        del arrays[key]
    else:
        arrays[key] = value(arrays[key])
    path = tmp_path / "bad.npz"
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match=re.escape(f"{path}: ")):
        load_models_npz(path)


def _edited_model_file(tmp_path, key, edit):
    """A saved model file with arrays[key] replaced by edit(arrays[key])."""
    ms = _random_model_set(4, 3, 3, D=8)
    save_models_npz(ms, tmp_path / "m.npz")
    with np.load(tmp_path / "m.npz") as data:
        arrays = {k: data[k] for k in data.files}
    arrays[key] = edit(arrays[key])
    path = tmp_path / "bad.npz"
    np.savez(path, **arrays)
    return path


@pytest.mark.parametrize("key, i, value", [
    ("w_1", 3, np.nan),
    ("w_0", 0, np.inf),
    ("meta_2", 0, np.nan),              # bias
    ("meta_1", 1, -np.inf),             # score mean
    ("meta_0", 2, np.nan),              # score std
    ("meta_0", 2, 0.0),
    ("meta_2", 2, -1.0),
    ("meta_1", 3, np.nan),              # constant flag
], ids=["w-nan", "w-inf", "bias-nan", "mean-inf", "std-nan", "std-zero",
        "std-negative", "flag-nan"])
def test_models_npz_bad_cell_names_the_file(tmp_path, key, i, value):
    path = _edited_model_file(
        tmp_path, key, lambda a: np.where(np.arange(a.size) == i, value, a))
    with pytest.raises(ValueError, match=re.escape(f"{path}: ")) as err:
        load_models_npz(path)
    idx = key.split("_")[1]
    assert f"w_{idx} and meta_{idx} must be finite, with a positive " \
        "score std" in str(err.value)


@pytest.mark.parametrize("config, words", [
    ({"lam": 0.0, "epochs": 5}, "lam must be positive"),
    ({"lam": float("nan"), "epochs": 5}, "lam must be positive"),
    ({"lam": 0.01, "epochs": 0}, "epochs must be at least 1"),
    ({"lam": 0.01, "epochs": 5, "znorm": True}, "'znorm'"),
    ({"lam": 0.01, "epochs": 5, "seed": 0, "floor": -10.0}, "'floor'"),
    ({"lam": "x", "epochs": 5}, "lam must be a number, got 'x'"),
    ({"lam": True, "epochs": 5}, "lam must be a number, got True"),
    ({"lam": 0.01, "epochs": 1.5}, "epochs must be an integer, got 1.5"),
    ({"lam": 0.01, "epochs": True}, "epochs must be an integer, got True"),
    ({"lam": 0.01}, "missing fields ['epochs']"),
    ([0.01, 5], "list"),
], ids=["lam", "lam-nan", "epochs", "znorm", "floor", "lam-str", "lam-bool",
        "epochs-float", "epochs-bool", "epochs-missing", "list"])
def test_models_npz_bad_config_names_the_file(tmp_path, config, words):
    path = _edited_model_file(tmp_path, "config",
                              lambda a: np.array(json.dumps(config)))
    with pytest.raises(ValueError, match=re.escape(f"{path}: bad config: ")) \
            as err:
        load_models_npz(path)
    assert words in str(err.value)


@pytest.mark.parametrize("key", ["labels", "config", "skipped"])
def test_models_npz_unparsable_json_names_the_file(tmp_path, key):
    path = _edited_model_file(tmp_path, key, lambda a: np.array("["))
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: {key}: invalid JSON: Expecting value: line 1 column 2")):
        load_models_npz(path)


@pytest.mark.parametrize("znorm, floor", [(False, -10.0), (True, -5.0),
                                          (False, 0.0)])
def test_models_npz_other_score_settings_rejected(tmp_path, znorm, floor):
    X, labels = _separable_1d()
    path = tmp_path / "old.npz"
    ms = train_linear_ova(X, labels, ["wash"])
    _models_npz_former(ms, path, np.array(ms.labels, dtype=object),
                       znorm=znorm, floor=floor)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_models_npz(path)


@pytest.mark.parametrize("settings", [{}, {"znorm": True, "floor": -10.0}])
def test_models_npz_pickled_labels_rejected(tmp_path, settings):
    X, labels = _separable_1d()
    path = tmp_path / "old.npz"
    ms = train_linear_ova(X, labels, ["wash"])
    _models_npz_former(ms, path, np.array(ms.labels, dtype=object),
                       **settings)
    with pytest.raises(ValueError, match="retrain") as err:
        load_models_npz(path)
    assert str(path) in str(err.value)


def test_models_npz_holds_no_pickled_array(tmp_path):
    X, labels = _separable_1d()
    ms = train_linear_ova(X, labels, ["wash", "ghost"])
    save_models_npz(ms, tmp_path / "m.npz")
    with np.load(tmp_path / "m.npz", allow_pickle=False) as data:
        assert all(data[key].dtype != object for key in data.files)
        assert json.loads(str(data["labels"])) == ["wash", "ghost"]
    loaded = load_models_npz(tmp_path / "m.npz")
    assert loaded.labels == ms.labels
    assert loaded.config == ms.config
    assert np.array_equal(score_intervals(loaded, X),
                          score_intervals(ms, X))


def test_annotations_round_trip(tmp_path):
    recs = [
        {"video": "v0", "start_frame": 0, "end_frame": 59,
         "attributes": ["wash", "cucumber"], "composite": "salad"},
        {"video": "v0", "start_frame": 60, "end_frame": 119,
         "attributes": [], "composite": "salad"},
    ]
    save_annotations(recs, tmp_path / "ann.jsonl")
    loaded = load_annotations(tmp_path / "ann.jsonl")
    assert loaded[0]["attributes"] == ["cucumber", "wash"]
    assert loaded[1]["start_frame"] == 60


def test_annotations_validation(tmp_path):
    (tmp_path / "bad.jsonl").write_text('{"video": "v"}\n')
    with pytest.raises(ValueError):
        load_annotations(tmp_path / "bad.jsonl")
    (tmp_path / "bad2.jsonl").write_text(
        '{"video": "v", "start_frame": 5, "end_frame": 1, '
        '"attributes": [], "composite": "c"}\n')
    with pytest.raises(ValueError):
        load_annotations(tmp_path / "bad2.jsonl")


_GOOD_LINE = ('{"video": "v", "start_frame": 0, "end_frame": 1, '
              '"attributes": [], "composite": "c"}\n')


@pytest.mark.parametrize("line, words", [
    ("not json", "Expecting value"),
    ("[1]", "expected a JSON object, got list"),
    ('"v"', "expected a JSON object, got str"),
])
def test_annotations_bad_line_names_file_and_line(tmp_path, line, words):
    path = tmp_path / "ann.jsonl"
    path.write_text(_GOOD_LINE + "\n" + line + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: ")) as err:
        load_annotations(path)
    assert words in str(err.value)


def _record(**fields):
    return json.dumps({"video": "v", "start_frame": 0, "end_frame": 29,
                       "attributes": ["a0"], "composite": "c", **fields},
                      ensure_ascii=False)


# the fields load_annotations asks tables.read_json_lines for
_FIELDS = {"video": tables.STR, "start_frame": tables.INT,
           "end_frame": tables.INT, "attributes": tables.STRS,
           "composite": tables.STR}
_SPAN = ("start_frame", "end_frame")


def _line_walk(monkeypatch, path, fields, span):
    """tables.read_json_lines with its one parse declined: the records
    of the per-line reader."""
    def decline(path):
        raise ValueError("declined")
    with monkeypatch.context() as patch:
        patch.setattr(tables, "_one_parse", decline)
        return tables.read_json_lines(path, fields, span)


def test_annotations_one_parse_equals_line_reader(tmp_path, monkeypatch):
    recs = [{"video": f"v{i % 3}", "start_frame": 30 * i,
             "end_frame": 30 * i + 29, "attributes": ["a1", "a0"][:i % 3],
             "composite": "c,{}"} for i in range(40)]
    path = tmp_path / "ann.jsonl"
    save_annotations(recs, path)
    lines = path.read_text().splitlines(keepends=True)
    # blank lines anywhere, whitespace around records, CRLF endings
    path.write_text("\n \t\n" + "".join(lines[:20]) + "\n\n"
                    + "".join(" " + ln.rstrip("\n") + "\t\r\n"
                              for ln in lines[20:]) + "  \n")
    fast = tables.check_records(tables._one_parse(path), _FIELDS, path, _SPAN)
    assert fast == _line_walk(monkeypatch, path, _FIELDS, _SPAN)
    assert load_annotations(path) == fast
    assert [r["end_frame"] for r in fast] == [30 * i + 29 for i in range(40)]


def test_annotations_two_objects_pattern_in_a_string(tmp_path):
    # a valid file the one parse declines still loads, line by line
    path = tmp_path / "ann.jsonl"
    path.write_text(_record(composite="x}, {y\u2028") + "\n"
                    + _record() + "\n", encoding="utf-8")
    assert "\u2028" in path.read_text(encoding="utf-8")
    with pytest.raises(ValueError, match="not one JSON value per line"):
        tables._one_parse(path)
    assert [r["composite"] for r in load_annotations(path)] == \
        ["x}, {y\u2028", "c"]


def test_annotations_split_record_beside_two_objects(tmp_path):
    # joined into one array, these three lines parse as three valid
    # records; the per-line reader rejects the first line
    lines = [_record() + "," + _record(), *_SPLIT]
    joined = json.loads("[" + ",".join(lines) + "]")
    assert len(joined) == 3
    tables.check_records(joined, _FIELDS, "joined", _SPAN)
    path = tmp_path / "ann.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="not one JSON value per line"):
        tables._one_parse(path)


def _json_error(line):
    """The per-line reader's message for line: the error json.loads gives
    for it as read, newline included."""
    try:
        json.loads(line + "\n")
    except json.JSONDecodeError as exc:
        return f"invalid JSON: {exc}"
    raise AssertionError(f"{line!r} parses")


# a record split over two lines, in the middle of its attribute list
_SPLIT = ['{"video": "v", "start_frame": 0, "end_frame": 29, '
          '"attributes": ["a0"', '"a1"], "composite": "c"}']


@pytest.mark.parametrize("lines, bad, message", [
    ([_record(), _record() + _record()], 2,
     _json_error(_record() + _record())),
    ([_record(), _record() + ", " + _record()], 2,
     _json_error(_record() + ", " + _record())),
    ([_record() + "," + _record(), *_SPLIT], 1,
     _json_error(_record() + "," + _record())),
    ([_record(), *_SPLIT], 2, _json_error(_SPLIT[0])),
    ([_record(), _record() + ",", _record()], 2,
     _json_error(_record() + ",")),
    ([_record(), "[1]"], 2, "expected a JSON object, got list"),
    ([_record(), "1"], 2, "expected a JSON object, got int"),
    (["\ufeff" + _record(), _record()], 1, _json_error("\ufeff" + _record())),
    ([_record(), '{"video": "v", "start_frame": 0, "end_frame": 29, '
      '"attributes": []}'], 2, "missing fields ['composite']"),
    ([_record(), _record(start_frame="0")], 2,
     "start_frame must be an integer, got '0'"),
    ([_record(), _record(attributes=["a0", 1])], 2,
     "attributes must be a list of strings, got ['a0', 1]"),
], ids=["two objects", "two objects and a comma",
        "split record beside two objects", "split record", "trailing comma",
        "list", "number", "BOM", "missing field", "start_frame a string",
        "attribute a number"])
def test_annotations_malformed_file_names_its_line(tmp_path, lines, bad,
                                                   message):
    path = tmp_path / "ann.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError):                 # the one parse declines
        tables.check_records(tables._one_parse(path), _FIELDS, path, _SPAN)
    with pytest.raises(ValueError) as err:
        load_annotations(path)
    assert str(err.value) == f"{path}:{bad}: {message}"
