import os
import re
from types import SimpleNamespace

import numpy as np
import pytest

from actkit import cli, experiment, temporal
from actkit.attributes import TrainConfig, score_intervals, train_linear_ova
from actkit.tables import read_npy
from actkit.temporal import (Detection, IntegralHistogram, Segment,
                             build_integral, load_detections_csv,
                             load_segments_jsonl, merge_adjacent, nms,
                             save_detections_csv, save_segments_jsonl,
                             score_windows, segment_agglomerative,
                             uniform_intervals, window_counts,
                             window_histogram, window_schedule)

EXPECTED_SIZES = [30, 42, 60, 85, 120, 170, 240, 339, 480, 679, 960, 1358]
EXPECTED_STEPS = [6, 8, 12, 17, 24, 34, 48, 68, 96, 136, 192, 272]


# ---------------------------------------------------------------------------
# schedule

def test_window_schedule_exact_ladder():
    sched = window_schedule()
    assert [s for s, _ in sched] == EXPECTED_SIZES
    assert [t for _, t in sched] == EXPECTED_STEPS


# ---------------------------------------------------------------------------
# integral tables

def test_window_counts_example():
    counts = np.array([[1, 0], [2, 1], [0, 2], [1, 1]])
    table = build_integral(counts)
    assert np.array_equal(window_counts(table, 1, 2), [2.0, 3.0])
    assert np.array_equal(window_counts(table, 0, 3), [4.0, 4.0])
    assert np.array_equal(window_counts(table, 2, 2), [0.0, 2.0])


def test_window_counts_match_direct_sum_exhaustive():
    rng = np.random.default_rng(0)
    counts = rng.integers(0, 5, size=(40, 3)).astype(float)
    table = build_integral(counts)
    for s in range(40):
        for e in range(s, 40):
            assert np.array_equal(window_counts(table, s, e),
                                  counts[s:e + 1].sum(axis=0))


def test_window_counts_bounds():
    table = build_integral(np.ones((5, 2)))
    with pytest.raises(ValueError):
        window_counts(table, -1, 2)
    with pytest.raises(ValueError):
        window_counts(table, 0, 5)
    with pytest.raises(ValueError):
        window_counts(table, 3, 2)


def test_window_counts_bounds_name_the_window_in_a_batch():
    table = build_integral(np.ones((5, 2)))
    with pytest.raises(ValueError, match=r"window \[3, 5\] outside 0\.\.4"):
        window_counts(table, np.array([0, 3, 1]), np.array([2, 5, 0]))
    with pytest.raises(ValueError, match=r"window \[1, 0\]"):
        window_counts(table, np.array([0, 1]), np.array([2, 0]))
    assert window_counts(table, np.array([0, 2]), 4).shape == (2, 2)


def test_window_bounds_must_be_integers():
    # a bool bound was read as a mask, a float one raised a bare IndexError
    table = build_integral(np.ones((6, 2)))
    for start, end in ((True, 3), (0, 1.0), (np.array([0, 1]), 2.5),
                       (np.array([True, False]), 3), (0, np.array([1.0]))):
        bad = start if np.asarray(start).dtype.kind not in "iu" else end
        with pytest.raises(ValueError,
                           match=re.escape(f"must be integers, got {bad!r}")):
            window_counts(table, start, end)
        with pytest.raises(ValueError, match="must be integers"):
            window_histogram(table, start, end)
    for start in (1, np.int32(1), np.int64(1), np.uint8(1)):
        assert np.array_equal(window_histogram(table, start, np.int16(3)),
                              [0.5, 0.5])
    assert window_counts(table, [0, 2], np.array([1, 5])).shape == (2, 2)


def test_window_histogram_unit_mass():
    counts = np.array([[2, 0, 2], [0, 4, 0]])
    table = build_integral(counts)
    hist = window_histogram(table, 0, 1)
    assert hist == pytest.approx([0.25, 0.5, 0.25])


def test_window_histogram_is_plain_l1_of_counts():
    rng = np.random.default_rng(12)
    counts = rng.integers(0, 3, size=(24, 5)).astype(float)
    counts[8:12] = 0                    # windows inside are all-zero
    table = build_integral(counts)
    zero_windows = 0
    for start in range(24):
        for end in range(start, 24):
            c = counts[start:end + 1].sum(axis=0)
            got = window_histogram(table, start, end)
            if c.sum() == 0:
                zero_windows += 1
                assert np.array_equal(got, np.zeros(5))
            else:
                assert np.array_equal(got, c / c.sum())
    assert zero_windows == 10


def test_window_histogram_empty_stays_zero():
    table = build_integral(np.zeros((4, 3)))
    assert np.array_equal(window_histogram(table, 0, 3), np.zeros(3))
    assert np.array_equal(window_histogram(table, np.arange(3), 3),
                          np.zeros((3, 3)))


@pytest.mark.parametrize("bins", [1, 5, 256])
def test_window_histogram_rows_equal_scalar_calls(bins):
    rng = np.random.default_rng(bins)
    counts = rng.poisson(0.7, size=(300, bins)).astype(float)
    counts[40:90] = 0                   # windows inside are all-zero
    table = build_integral(counts)
    starts = rng.integers(0, 300, size=400)
    ends = np.minimum(starts + rng.integers(0, 60, size=400), 299)
    starts[:20], ends[:20] = 45, 80
    H = window_histogram(table, starts, ends)
    assert H.shape == (400, bins)
    for row, s, e in zip(H, starts.tolist(), ends.tolist()):
        assert np.array_equal(row, window_histogram(table, s, e))
        assert np.array_equal(window_counts(table, s, e),
                              counts[s:e + 1].sum(axis=0))
    assert not H[:20].any()


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (9, 1), (300, 17),
                                   # around the 256-row block edge
                                   (255, 3), (256, 3), (257, 3), (513, 5),
                                   (1000, 17)])
def test_build_integral_matches_cumsum_bit_for_bit(shape):
    rng = np.random.default_rng(11)
    counts = rng.gamma(0.7, 3.0, size=shape)      # non-integer counts
    counts[rng.random(shape) < 0.2] = 0.0
    counts[rng.random(shape) < 0.05] = -0.0       # legal; the sign is kept
    want = np.cumsum(counts, axis=0)
    prefix = build_integral(counts).prefix
    assert not prefix[0].any()
    assert prefix[1:].tobytes() == want.tobytes()


def test_integral_validation():
    with pytest.raises(ValueError):
        IntegralHistogram(np.array([[1.0, 0.0], [2.0, 1.0]]))
    with pytest.raises(ValueError):
        build_integral(np.zeros(5))


@pytest.mark.parametrize("value, message", [
    (np.nan, "non-negative: frame 300, bin 4 holds nan"),
    (-0.5, "non-negative: frame 300, bin 4 holds -0.5"),
    (-np.inf, "non-negative: frame 300, bin 4 holds -inf"),
    (np.inf, "finite totals: bin 4 is inf from frame 300 on"),
])
def test_build_integral_rejects_bad_counts(value, message):
    counts = np.ones((600, 6))
    counts[300, 4] = value
    counts[450, 1] = value
    with pytest.raises(ValueError, match=message):
        build_integral(counts)


def test_build_integral_rejects_overflowing_totals():
    counts = np.zeros((5, 2))
    counts[1:4, 1] = 1e308
    with pytest.raises(ValueError, match="bin 1 is inf from frame 2 on"):
        build_integral(counts)


def test_build_integral_empty_streams():
    assert build_integral(np.zeros((0, 3))).prefix.shape == (1, 3)
    assert build_integral(np.zeros((4, 0))).prefix.shape == (5, 0)


# ---------------------------------------------------------------------------
# integral tables read from .npy files

def _gamma_counts(shape, dtype=float):
    rng = np.random.default_rng(17)
    counts = rng.gamma(0.7, 3.0, size=shape)
    counts[rng.random(shape) < 0.2] = 0.0
    counts[rng.random(shape) < 0.05] = -0.0       # the sign is kept
    if np.dtype(dtype).kind in "iu":
        counts = np.floor(counts)
    return counts.astype(dtype)


@pytest.mark.parametrize("name, counts", [
    ("float64", _gamma_counts((700, 9))),
    ("float64 fortran", np.asfortranarray(_gamma_counts((700, 9)))),
    ("float32", _gamma_counts((700, 9), np.float32)),
    ("int64", _gamma_counts((700, 9), np.int64)),
    ("big-endian", _gamma_counts((700, 9), ">f8")),
    ("no frames", np.zeros((0, 5))),
    ("no bins", np.zeros((6, 0))),
    ("one frame", _gamma_counts((1, 3))),
])
def test_integral_from_file_matches_the_loaded_array(tmp_path, name,
                                                     counts):
    path = tmp_path / "c.npy"
    np.save(path, counts)
    want = build_integral(np.load(path)).prefix
    for p in (path, str(path)):
        got = build_integral(p).prefix
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_integral_reads_native_float64_into_the_table(tmp_path,
                                                      monkeypatch):
    # a C-order native float64 file never goes through read_npy; every
    # other file does
    calls = []
    read = temporal.read_npy
    monkeypatch.setattr(temporal, "read_npy",
                        lambda path: calls.append(path) or read(path))
    np.save(tmp_path / "c.npy", _gamma_counts((300, 4)))
    build_integral(tmp_path / "c.npy")
    assert calls == []
    for dtype in (np.float32, ">f8"):
        np.save(tmp_path / "c.npy", _gamma_counts((300, 4), dtype))
        build_integral(tmp_path / "c.npy")
    np.save(tmp_path / "c.npy", np.asfortranarray(_gamma_counts((300, 4))))
    build_integral(tmp_path / "c.npy")
    assert len(calls) == 3


def _error(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


_BAD_COUNTS = [
    (np.nan, "non-negative: frame 300, bin 4 holds nan"),
    (-0.5, "non-negative: frame 300, bin 4 holds -0.5"),
    (-np.inf, "non-negative: frame 300, bin 4 holds -inf"),
    (np.inf, "finite totals: bin 4 is inf from frame 300 on"),
]


# float32 counts cannot overflow a float64 total
@pytest.mark.parametrize("dtype, value, message", [
    *[(dtype, *bad) for dtype in (float, np.float32, ">f8")
      for bad in _BAD_COUNTS],
    *[(dtype, 1e308, "finite totals: bin 4 is inf from frame 301 on")
      for dtype in (float, ">f8")]])
def test_integral_file_errors_match_the_array_path(tmp_path, dtype, value,
                                                   message):
    counts = np.ones((600, 6), dtype=dtype)
    if value == 1e308:                   # finite counts, infinite total
        counts[300:, 4] = value
    else:
        counts[300, 4] = value
        counts[450, 1] = value
    path = tmp_path / "c.npy"
    np.save(path, counts)
    got = _error(build_integral, path)
    assert message in got
    assert got == _error(build_integral, np.load(path))
    # the command line loader names the file
    assert _error(cli._load_integral, str(path)) == f"{path}: {got}"


def _truncated(cut):
    def write(path):
        np.save(path, np.ones((60, 3)))
        data = path.read_bytes()
        path.write_bytes(data[:cut if cut >= 0 else len(data) + cut])
    return write


def _npz_in_place(path):
    with open(path, "wb") as fh:
        np.savez(fh, counts=np.ones((60, 3)))


def _npy_of(array):
    return lambda path: np.save(path, array)


@pytest.mark.parametrize("write, message", [
    (_truncated(-10), "Failed to read all data"),
    (_truncated(50), "EOF: reading array header"),
    (_truncated(4), "pickled"),
    (_truncated(0), "No data left in file"),
    (_npz_in_place, "expected a .npy array, got a .npz archive"),
    (_npy_of(np.ones(60)), "counts must be (T, B)"),
    (_npy_of(np.ones((2, 3, 4))), "counts must be (T, B)"),
])
def test_integral_bad_files_keep_their_errors(tmp_path, write, message):
    path = tmp_path / "c.npy"
    write(path)
    got = _error(cli._load_integral, str(path))
    assert got.startswith(f"{path}: ") and message in got
    # the same error as the former load: read_npy, then the array
    try:
        want = f"{path}: " + _error(build_integral, read_npy(str(path)))
    except ValueError as exc:
        want = str(exc)
    assert got == want


# ---------------------------------------------------------------------------
# window scanning

def test_score_windows_offsets():
    # stream of 36 frames, only level (30, 6) fits: starts 0 and 6
    table = build_integral(np.ones((36, 2)))
    dets = score_windows(table, lambda H: np.ones(len(H)))
    assert [(d.start, d.end) for d in dets] == [(0, 29), (6, 35)]


def test_score_windows_skips_oversized_levels():
    table = build_integral(np.ones((40, 1)))
    dets = score_windows(table, lambda H: np.zeros(len(H)))
    assert all(d.length == 30 for d in dets)


def test_score_windows_scorer_sees_normalized():
    counts = np.zeros((30, 2))
    counts[:, 0] = 3.0
    table = build_integral(counts)
    seen = []
    score_windows(table, lambda H: seen.append(H.copy()) or np.zeros(len(H)))
    assert seen[0] == pytest.approx(np.array([[1.0, 0.0]]))


def test_score_windows_full_schedule_counts():
    T = 500
    table = build_integral(np.ones((T, 1)))
    dets = score_windows(table, lambda H: np.zeros(len(H)))
    expected = 0
    for size, step in window_schedule():
        if size <= T:
            expected += (T - size) // step + 1
    assert len(dets) == expected


def test_score_windows_one_scorer_call_per_level():
    # levels (30, 6), (42, 8), (60, 12) and (85, 17) fit 100 frames
    table = build_integral(np.ones((100, 2)))
    sizes = []
    score_windows(table, lambda H: sizes.append(H.shape) or np.zeros(len(H)))
    assert sizes == [(12, 2), (8, 2), (4, 2), (1, 2)]


@pytest.mark.parametrize("scorer", [
    lambda H: 0.0,                          # a scalar
    lambda H: np.zeros((len(H), 1)),        # a column
    lambda H: np.zeros(len(H) - 1),         # one short
    lambda H: np.zeros((1, len(H))),        # a row matrix
])
def test_score_windows_rejects_misshapen_scores(scorer):
    table = build_integral(np.ones((40, 2)))
    with pytest.raises(ValueError, match="scorer returned shape"):
        score_windows(table, scorer)


def _per_window_detections(table, scorer, video="", attribute=""):
    """The former scan: one window_histogram and one scorer call per
    window, the scorer mapping a (B,) histogram to a float."""
    T = table.num_frames
    out = []
    for size, step in window_schedule():
        if size > T:
            continue
        for start in range(0, T - size + 1, step):
            hist = window_histogram(table, start, start + size - 1)
            out.append(Detection(video, attribute, start, start + size - 1,
                                 float(scorer(hist))))
    return out


def test_score_windows_match_per_window_oracle():
    rng = np.random.default_rng(5)
    B = 6
    X = rng.dirichlet(np.ones(B), size=80)
    labels = [{"a"} if x[0] > 0.3 else set() for x in X]
    models = train_linear_ova(X, labels, ("a", "ghost"),
                              TrainConfig(epochs=50))
    for row in range(2):                     # a trained and a floored row
        for trial in range(4):
            T = int(rng.integers(30, 700))
            counts = rng.poisson(0.5, size=(T, B)).astype(float)
            gap = int(rng.integers(0, T - 29))
            counts[gap:gap + 90] = 0         # some windows are all-zero
            table = build_integral(counts)
            got = score_windows(
                table, lambda H: score_intervals(models, H)[row],
                video="v", attribute="a")
            want = _per_window_detections(
                table,
                lambda h: score_intervals(models, h[None, :])[row, 0],
                video="v", attribute="a")
            assert [(d.video, d.attribute, d.start, d.end) for d in got] \
                == [(d.video, d.attribute, d.start, d.end) for d in want]
            assert all(type(d.start) is int and type(d.end) is int
                       and type(d.score) is float for d in got)
            diff = max(abs(a.score - b.score) for a, b in zip(got, want))
            assert diff <= 1e-12


def test_score_windows_returns_columns():
    table = build_integral(np.ones((100, 2)))
    rec = score_windows(table, lambda H: np.arange(len(H)) / 2.0, "v", "a")
    assert isinstance(rec, temporal.WindowScores)
    assert (rec.video, rec.attribute, len(rec)) == ("v", "a", 25)
    assert rec.starts.dtype == rec.ends.dtype == np.int64
    assert rec.scores.dtype == np.float64
    assert list(rec.ends - rec.starts + 1) == [30] * 12 + [42] * 8 \
        + [60] * 4 + [85]
    assert list(rec.starts[:3]) == [0, 6, 12]
    assert list(rec.scores[12:15]) == [0.0, 0.5, 1.0]
    assert list(rec) == [rec.detection(i) for i in range(25)]
    assert rec.detection(13) == Detection("v", "a", 8, 49, 0.5)
    # a stream shorter than every window
    short = score_windows(build_integral(np.ones((29, 2))),
                          lambda H: np.zeros(len(H)))
    assert len(short) == 0 and list(short) == [] and nms(short) == []
    assert short.starts.dtype == np.int64


# ---------------------------------------------------------------------------
# non-maximum suppression

def _det(start, end, score, attr="a"):
    return Detection("v", attr, start, end, score)


def test_nms_removes_any_overlap_by_default():
    dets = [_det(0, 9, 1.0), _det(5, 14, 0.9), _det(20, 29, 0.8)]
    kept = nms(dets)
    assert [(d.start, d.end) for d in kept] == [(0, 9), (20, 29)]


def test_nms_touching_windows_survive():
    # [0, 9] and [10, 19] share no frame
    dets = [_det(0, 9, 1.0), _det(10, 19, 0.9)]
    assert len(nms(dets)) == 2


def test_nms_overlap_threshold_in_frames():
    dets = [_det(0, 9, 1.0), _det(8, 17, 0.9)]
    assert len(nms(dets, overlap_threshold=1)) == 1
    assert len(nms(dets, overlap_threshold=2)) == 2


def test_nms_iou_criterion():
    dets = [_det(0, 9, 1.0), _det(5, 14, 0.9)]
    # IoU = 5 / 15
    assert len(nms(dets, overlap_threshold=0.5, criterion="iou")) == 2
    assert len(nms(dets, overlap_threshold=0.2, criterion="iou")) == 1
    with pytest.raises(ValueError):
        nms(dets, criterion="jaccard")


def test_nms_tie_order_prefers_early_then_short():
    dets = [_det(10, 19, 1.0), _det(0, 19, 1.0), _det(0, 9, 1.0)]
    kept = nms(dets)
    assert [(d.start, d.end) for d in kept] == [(0, 9), (10, 19)]


def test_nms_properties_random():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(1, 12))
        dets = []
        for _ in range(n):
            s = int(rng.integers(0, 50))
            e = s + int(rng.integers(0, 20))
            dets.append(_det(s, e, float(rng.normal())))
        kept = nms(dets)
        # kept windows are pairwise disjoint
        for i in range(len(kept)):
            for j in range(i + 1, len(kept)):
                a, b = kept[i], kept[j]
                assert min(a.end, b.end) < max(a.start, b.start)
        # every dropped window overlaps some kept window with an equal
        # or higher score
        kept_set = set(kept)
        for d in dets:
            if d in kept_set:
                continue
            assert any(min(d.end, k.end) >= max(d.start, k.start)
                       and k.score >= d.score for k in kept)
        # idempotent
        assert nms(kept) == kept


def _nested_loop_nms(detections, overlap_threshold=0.0, criterion="overlap"):
    """Greedy suppression testing each candidate against one kept
    window at a time."""
    def overlap(a, b):
        return min(a.end, b.end) - max(a.start, b.start) + 1

    def iou(a, b):
        inter = max(0, overlap(a, b))
        union = a.length + b.length - inter
        return inter / union if union > 0 else 0.0

    measure = overlap if criterion == "overlap" else iou
    kept = []
    for cand in sorted(detections, key=lambda d: (-d.score, d.start, d.length)):
        if not any(measure(cand, k) > overlap_threshold for k in kept):
            kept.append(cand)
    return kept


@pytest.mark.parametrize("criterion", ["overlap", "iou"])
def test_nms_matches_nested_loop_oracle(criterion):
    rng = np.random.default_rng(43)
    for trial in range(120):
        n = int(rng.integers(0, 40))
        dets = []
        for _ in range(n):
            s = int(rng.integers(0, 80))
            e = s + int(rng.integers(0, 25))
            # few distinct scores, so ties are common
            dets.append(_det(s, e, float(rng.integers(0, 4)) / 2))
        for thr in (-0.5, 0, 0.3, 0.5, 1, 3, 30):
            assert nms(dets, thr, criterion) \
                == _nested_loop_nms(dets, thr, criterion)
    # thresholds above any possible overlap keep everything
    assert nms(dets, 30, criterion) == sorted(
        dets, key=lambda d: (-d.score, d.start, d.length))
    assert nms([], 0, criterion) == []


def _scored_stream(T=3000, B=16, seed=12):
    """Every schedule level of one scored stream, as actkit detect
    produces it."""
    rng = np.random.default_rng(seed)
    counts = rng.poisson(0.4, size=(T, B)).astype(float)
    for start in rng.integers(0, T - 200, 6):
        counts[start:start + 150, int(rng.integers(B))] += 3.0
    w = rng.normal(size=B)
    return score_windows(build_integral(counts), lambda H: H @ w, "v", "a")


@pytest.mark.parametrize("thr, criterion",
                         [(0, "overlap"), (0.3, "iou"), (0.5, "iou")])
def test_nms_matches_nested_loop_oracle_on_scored_stream(thr, criterion):
    dets = _scored_stream()
    assert len(dets) > 1000
    kept = nms(dets, thr, criterion)
    assert 0 < len(kept) < len(dets)
    assert kept == _nested_loop_nms(dets, thr, criterion)
    # coarse scores: many ties, broken by start, length, then input order
    tied = [Detection(d.video, d.attribute, d.start, d.end,
                      round(d.score, 1)) for d in dets]
    assert nms(tied, thr, criterion) == _nested_loop_nms(tied, thr, criterion)
    assert nms([], thr, criterion) == []


@pytest.mark.parametrize("thr, criterion",
                         [(0, "overlap"), (3, "overlap"), (0.5, "iou")])
def test_nms_of_the_record_matches_its_detection_list(thr, criterion,
                                                       monkeypatch):
    rec = _scored_stream()
    want = nms(list(rec), thr, criterion)
    built = []
    detection = temporal.WindowScores.detection
    monkeypatch.setattr(temporal.WindowScores, "detection",
                        lambda self, i: built.append(i) or detection(self, i))
    kept = nms(rec, thr, criterion)
    assert kept == want
    assert all(type(d.start) is int and type(d.end) is int
               and type(d.score) is float for d in kept)
    # only the kept windows became Detection records
    assert len(built) == len(kept) < len(rec)
    # coarse scores: ties broken by start, length, then scan order
    tied = temporal.WindowScores("v", "a", rec.starts, rec.ends,
                                 np.round(rec.scores, 1))
    assert nms(tied, thr, criterion) == nms(list(tied), thr, criterion)


def test_nms_names_a_nan_window_of_the_record():
    rec = temporal.WindowScores("v", "a", np.array([0, 5]), np.array([9, 14]),
                                np.array([1.0, np.nan]))
    with pytest.raises(ValueError, match=r"detection Detection\(video='v', "
                       r"attribute='a', start=5, end=14, score=nan\) has a "
                       "NaN score"):
        nms(rec)


def test_nms_rejects_nan_scores_keeps_infinities():
    dets = [_det(0, 9, 1.0), _det(5, 14, float("nan"))]
    with pytest.raises(ValueError, match="NaN score"):
        nms(dets)
    dets = [_det(0, 9, -np.inf), _det(5, 14, np.inf), _det(20, 29, 0.0)]
    assert [d.start for d in nms(dets)] == [5, 20]


@pytest.mark.parametrize("criterion", ["overlap", "iou"])
def test_nms_rejects_nan_threshold(criterion):
    dets = [_det(0, 9, 1.0), _det(5, 14, 0.5)]
    with pytest.raises(ValueError, match="overlap_threshold cannot be NaN"):
        nms(dets, float("nan"), criterion)


# ---------------------------------------------------------------------------
# segmentation

def test_uniform_intervals_trailing_short():
    segs = uniform_intervals(150, span=60)
    assert [(s.start, s.end) for s in segs] == [(0, 59), (60, 119), (120, 149)]


def test_uniform_intervals_exact_fit():
    segs = uniform_intervals(120, span=60)
    assert [(s.start, s.end) for s in segs] == [(0, 59), (60, 119)]


def test_uniform_intervals_validation():
    with pytest.raises(ValueError):
        uniform_intervals(0)


def test_segment_agglomerative_merges_similar_neighbours():
    # three spans: first two share a histogram direction, third differs
    counts = np.zeros((9, 2))
    counts[0:3, 0] = 1.0
    counts[3:6, 0] = 2.0
    counts[6:9, 1] = 1.0
    table = build_integral(counts)
    segs = segment_agglomerative(table, threshold=0.9, span=3)
    assert [(s.start, s.end) for s in segs] == [(0, 5), (6, 8)]


def test_segment_agglomerative_threshold_above_one_keeps_uniform():
    rng = np.random.default_rng(1)
    counts = rng.uniform(size=(180, 4))
    table = build_integral(counts)
    segs = segment_agglomerative(table, threshold=1.1, span=60)
    assert [(s.start, s.end) for s in segs] == \
        [(s.start, s.end) for s in uniform_intervals(180, 60)]


def test_segment_agglomerative_identical_stream_merges_fully():
    counts = np.tile([1.0, 2.0], (240, 1))
    table = build_integral(counts)
    segs = segment_agglomerative(table, threshold=0.99, span=60)
    assert [(s.start, s.end) for s in segs] == [(0, 239)]


def test_segment_agglomerative_tie_prefers_leftmost():
    # spans A = [3, 0], B = [3, 3], C = [0, 3]: both adjacent pairs have
    # cosine 1/sqrt(2).  Merging the left pair first leaves AB = [6, 3]
    # vs C with cosine 0.447 < threshold, so the result pins the order.
    counts = np.zeros((9, 2))
    counts[0:3, 0] = 1.0
    counts[3:6] = 1.0
    counts[6:9, 1] = 1.0
    table = build_integral(counts)
    segs = segment_agglomerative(table, threshold=0.7, span=3)
    assert [(s.start, s.end) for s in segs] == [(0, 5), (6, 8)]


def test_segment_agglomerative_zero_norm_cosine_is_zero():
    counts = np.zeros((6, 2))
    counts[3:, 0] = 1.0
    table = build_integral(counts)
    # first span is all zero; cosine with anything is 0 < threshold
    segs = segment_agglomerative(table, threshold=0.5, span=3)
    assert len(segs) == 2


def test_merge_adjacent_rejects_non_finite_threshold():
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="finite"):
            merge_adjacent(np.ones((3, 2)), bad)
    table = build_integral(np.random.default_rng(0).poisson(
        1.0, size=(600, 8)).astype(float))
    with pytest.raises(ValueError, match="finite"):
        segment_agglomerative(table, float("nan"))
    assert len(segment_agglomerative(table, 1.5)) == 10


def test_merge_adjacent_runs_and_sums():
    V = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [0.0, 0.0],
                  [0.0, 3.0]])
    kept = V.copy()
    runs, sums = merge_adjacent(V, 0.9)
    assert np.array_equal(V, kept)
    # the zero row has cosine 0 with both neighbours, so it stays alone
    assert runs.dtype == np.int64
    assert runs.tolist() == [[0, 1], [2, 2], [3, 3], [4, 4]]
    assert np.array_equal(sums, [[3.0, 0.0], [0.0, 1.0], [0.0, 0.0],
                                 [0.0, 3.0]])
    runs, sums = merge_adjacent(V, -1.0)
    assert runs.tolist() == [[0, 4]]
    assert np.array_equal(sums, V.sum(axis=0, keepdims=True))
    # unit_mass compares rows over their sums, but returns raw sums
    C = np.array([[1.0, 1.0], [3.0, 3.0], [0.0, 0.0], [0.0, 2.0]])
    runs, sums = merge_adjacent(C, 0.9, unit_mass=True)
    assert runs.tolist() == [[0, 1], [2, 2], [3, 3]]
    assert np.array_equal(sums, [[4.0, 4.0], [0.0, 0.0], [0.0, 2.0]])
    for n, d in ((0, 3), (1, 3), (4, 0)):
        runs, sums = merge_adjacent(np.zeros((n, d)), 0.5)
        assert runs.shape == (n, 2) and sums.shape == (n, d)
    with pytest.raises(ValueError, match=r"\(n, d\)"):
        merge_adjacent(np.ones(3), 0.5)
    for bad in (np.nan, np.inf):
        V[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            merge_adjacent(V, 0.5)


def _cosine(u, v) -> float:
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0 or nv == 0:
        return 0.0
    return float(u @ v) / (nu * nv)


def _former_merge_adjacent(items, similarity, combine, threshold):
    """temporal.merge_adjacent in its former callback form, recomputing
    every adjacent similarity after each merge: the oracle for the array
    kernel's neighbour-only update."""
    out = list(items)
    while len(out) > 1:
        sims = [similarity(out[i], out[i + 1]) for i in range(len(out) - 1)]
        best = int(np.argmax(sims))
        if sims[best] < threshold:
            break
        out[best:best + 2] = [combine(out[best], out[best + 1])]
    return out


def _former_segment_agglomerative(table, threshold, span):
    """The former segmenter: cosines of L1-normalized window_histogram
    rows, one window_histogram call per span and per merge."""
    def hist(seg):
        return window_histogram(table, seg.start, seg.end)

    items = _former_merge_adjacent(
        [(s, hist(s)) for s in uniform_intervals(table.num_frames, span)],
        similarity=lambda a, b: _cosine(a[1], b[1]),
        combine=lambda a, b: (
            Segment(a[0].start, b[0].end),
            hist(Segment(a[0].start, b[0].end))),
        threshold=threshold)
    return [s for s, _ in items]


def _former_apply_segmentation(bundle, cfg, mats, out_dir):
    """experiment._apply_segmentation before the array kernel."""
    seg_dir = os.path.join(out_dir, "segments")
    os.makedirs(seg_dir, exist_ok=True)
    out = []
    for seq, V in zip(bundle.sequences, mats):
        items = [([t], V[:, t].copy()) for t in range(V.shape[1])]
        merged = _former_merge_adjacent(
            items, lambda a, b: _cosine(a[1], b[1]),
            lambda a, b: (a[0] + b[0], a[1] + b[1]),
            cfg["segment_threshold"])
        out.append(np.stack([vec / len(idx) for idx, vec in merged], axis=1))
        save_segments_jsonl(
            [Segment(seq.intervals[idx[0]][0], seq.intervals[idx[-1]][1])
             for idx, _ in merged],
            os.path.join(seg_dir, f"{seq.sequence_id}.jsonl"))
    return out


def _tied_columns(rng, n, dim):
    """n rows drawn from three coordinate permutations of one integer
    vector, the all-ones vector and zero, never the same one twice in a
    row.  Their dot products and norms are exact, so mathematically equal
    cosines are equal floats, and which of two tied pairs merges first
    changes the result."""
    base = np.arange(dim, dtype=float)
    patterns = np.stack([rng.permutation(base) for _ in range(3)]
                        + [np.ones(dim), np.zeros(dim)])
    picks = [int(rng.integers(0, 5))]
    for _ in range(n - 1):
        picks.append((picks[-1] + int(rng.integers(1, 5))) % 5)
    return patterns[picks]


THRESHOLDS = (0.3, 0.6, 0.8, 0.9, 0.97)


def test_segment_agglomerative_matches_former_merge():
    # the tied patterns have cosines of exactly 0.8 (two permutations of
    # [0, 1, 2]) and 1 (parallel sums); cosines of raw counts round to
    # either side of such a threshold, so unit_mass must keep the former
    # histogram bits
    rng = np.random.default_rng(8)
    merged = 0
    for trial in range(25):
        span = int(rng.integers(1, 8))
        n = int(rng.integers(1, 40))
        rows = np.repeat(_tied_columns(rng, n, 3), span, axis=0)
        table = build_integral(rows[:n * span - int(rng.integers(0, span))])
        for threshold in (-1.0, 0.0, 0.5, 0.95, 1.0, 1.5) + THRESHOLDS:
            got = segment_agglomerative(table, threshold, span)
            assert got == _former_segment_agglomerative(table, threshold,
                                                        span)
            merged += len(got) < len(uniform_intervals(table.num_frames,
                                                       span))
    assert merged > 100


def test_segment_agglomerative_matches_former_on_poisson_streams():
    rng = np.random.default_rng(12)
    merged = 0
    for trial in range(200):
        T = int(rng.integers(1, 400))
        B = int(rng.integers(1, 12))
        lam = rng.uniform(0.05, 3.0, size=B) * rng.uniform(0.2, 1.0)
        table = build_integral(rng.poisson(lam, size=(T, B)).astype(float))
        span = int(rng.integers(1, 40))
        for threshold in THRESHOLDS:
            got = segment_agglomerative(table, threshold, span)
            assert got == _former_segment_agglomerative(table, threshold,
                                                        span)
            merged += len(got) < len(uniform_intervals(T, span))
    assert merged > 800


def test_segment_agglomerative_huge_counts_give_the_same_segments():
    # counts scaled by 1e160 overflow their squared norms unless the
    # kernel rescales them; a NaN cosine would merge silently
    rng = np.random.default_rng(13)
    for trial in range(20):
        counts = rng.poisson(rng.uniform(0.1, 2.0, size=6),
                             size=(500, 6)).astype(float)
        span = int(rng.integers(5, 40))
        for threshold in (0.3, 0.8, 0.9, 0.97):
            want = segment_agglomerative(build_integral(counts), threshold,
                                         span)
            with np.errstate(all="raise"):
                for scale in (2.0 ** 530, 1e160):
                    assert segment_agglomerative(
                        build_integral(counts * scale), threshold,
                        span) == want


def _segmentation_bundle(rng, columns):
    seqs, mats = [], []
    for i in range(30):
        T = int(rng.integers(1, 25))
        seqs.append(SimpleNamespace(
            sequence_id=f"s{i}", intervals=[(10 * t, 10 * t + 9)
                                            for t in range(T)]))
        mats.append(columns(T))
    return SimpleNamespace(sequences=seqs), mats


def test_experiment_segmentation_matches_former_merge(tmp_path):
    rng = np.random.default_rng(9)
    kinds = {
        "tied": lambda T: _tied_columns(rng, T, 4).T,
        "normal": lambda T: rng.normal(size=(6, T)),
        # skipped attributes sit at the -10 score floor in every column
        "floored": lambda T: np.concatenate(
            [rng.normal(size=(5, T)), np.full((2, T), -10.0)]),
    }
    for kind, columns in kinds.items():
        bundle, mats = _segmentation_bundle(rng, columns)
        merged = 0
        for threshold in (-1.0, 0.0, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0,
                          2.0):
            cfg = {"segment_threshold": threshold}
            got = experiment._apply_segmentation(bundle, cfg, mats,
                                                 tmp_path / "new")
            want = _former_apply_segmentation(bundle, cfg, mats,
                                              tmp_path / "old")
            for d, s in enumerate(bundle.sequences):
                assert got[d].shape == want[d].shape
                assert got[d].tobytes() == want[d].tobytes()
                name = f"segments/{s.sequence_id}.jsonl"
                assert (tmp_path / "new" / name).read_bytes() \
                    == (tmp_path / "old" / name).read_bytes()
                merged += got[d].shape[1] < mats[d].shape[1]
        assert merged > 50, kind


# ---------------------------------------------------------------------------
# dataclasses and files

def test_detection_validation_and_length():
    with pytest.raises(ValueError):
        Detection("v", "a", 5, 4, 0.0)
    assert Detection("v", "a", 5, 5, 0.0).length == 1


def test_detections_csv_round_trip(tmp_path):
    dets = [_det(0, 29, 0.5), _det(6, 35, -1.25, attr="b")]
    path = tmp_path / "dets.csv"
    save_detections_csv(dets, path)
    assert load_detections_csv(path) == dets
    path.write_text("video,start,end,score\n")
    with pytest.raises(ValueError):
        load_detections_csv(path)


def test_detections_csv_rejects_nan_keeps_infinities(tmp_path):
    path = tmp_path / "dets.csv"
    dets = [_det(0, 29, np.inf), _det(6, 35, -np.inf)]
    save_detections_csv(dets, path)
    assert load_detections_csv(path) == dets
    path.write_text("video,attribute,start,end,score\nv,a,0,29,1.0\n"
                    "v,a,6,35,nan\n")
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}:3: NaN"):
        load_detections_csv(path)


def test_segments_jsonl_round_trip(tmp_path):
    segs = [Segment(0, 59, 1.5), Segment(60, 149)]
    path = tmp_path / "segs.jsonl"
    save_segments_jsonl(segs, path)
    assert load_segments_jsonl(path) == segs
    path.write_text('{"start": 0}\n')
    with pytest.raises(ValueError):
        load_segments_jsonl(path)
