import numpy as np
import pytest

from actkit.metrics import (average_precision, eval_detection,
                            match_detections)
from actkit.temporal import Detection


def _ap_reference(scores, hits, P):
    """Ranked-list AP written out step by step, as both callers once
    computed it inline."""
    order = np.argsort(-np.asarray(scores, dtype=float), kind="stable")
    h = np.asarray(hits, dtype=float)[order]
    precision = np.cumsum(h) / np.arange(1, len(h) + 1)
    return float((precision * h).sum() / P)


def test_average_precision_hand_example():
    ap = average_precision([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0])
    assert ap == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-15)


def test_average_precision_ties_keep_input_order():
    assert average_precision([1.0, 1.0], [1, 0]) == 1.0
    assert average_precision([1.0, 1.0], [0, 1]) == 0.5


def test_average_precision_matches_reference_bitwise():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 40))
        scores = np.round(rng.normal(size=n), 1)        # many ties
        labels = rng.integers(0, 2, size=n)
        labels[int(rng.integers(0, n))] = 1
        assert average_precision(scores, labels) == \
            _ap_reference(scores, labels == 1, int(labels.sum()))


def _ann(video, start, end, attrs):
    return {"video": video, "start_frame": start, "end_frame": end,
            "attributes": attrs, "composite": "c"}


def test_eval_detection_ties_across_videos_keep_video_order():
    # one ground truth per video; the tied true positive is in video "b",
    # which ranks after video "a"'s false positive
    anns = [_ann("a", 0, 9, ["x"]), _ann("b", 0, 9, ["x"])]
    dets = [Detection("b", "x", 0, 9, 1.0), Detection("a", "x", 50, 59, 1.0)]
    mean_ap, aps, excluded = eval_detection(dets, anns)
    assert aps == {"x": 0.25} and mean_ap == 0.25 and excluded == ()


def test_eval_detection_matches_reference_bitwise():
    rng = np.random.default_rng(1)
    for _ in range(50):
        anns = [_ann(f"v{v}", s, s + 19, ["x"])
                for v in range(3) for s in range(0, 200, 50)
                if rng.random() < 0.7]
        anns.append(_ann("v0", 300, 319, ["x"]))
        dets = [Detection(f"v{int(rng.integers(0, 3))}", "x", s, s + 19,
                          float(np.round(rng.normal(), 1)))
                for s in rng.integers(0, 320, size=int(rng.integers(1, 30)))]
        flags, scores = [], []
        for video in sorted({a["video"] for a in anns} |
                            {d.video for d in dets}):
            vd = [(d.start, d.end, d.score) for d in dets if d.video == video]
            vg = [(a["start_frame"], a["end_frame"]) for a in anns
                  if a["video"] == video]
            tp, order = match_detections(vd, vg)
            flags.extend(tp)
            scores.extend(vd[i][2] for i in order)
        _, aps, _ = eval_detection(dets, anns)
        assert aps["x"] == _ap_reference(scores, flags, len(anns))


@pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf])
def test_eval_detection_rejects_non_finite_iou_threshold(threshold):
    anns = [_ann("v", 0, 29, ["a0"])]
    dets = [Detection("v", "a0", 0, 29, 2.0)]
    assert eval_detection(dets, anns, criterion="iou",
                          iou_threshold=0.5) == (1.0, {"a0": 1.0}, ())
    with pytest.raises(ValueError, match="iou_threshold"):
        eval_detection(dets, anns, criterion="iou", iou_threshold=threshold)
    with pytest.raises(ValueError, match="iou_threshold"):
        match_detections([(0, 29, 2.0)], [(0, 29)], "iou", threshold)


def test_unknown_criterion_raises_before_any_match():
    anns = [_ann("v", 0, 29, ["a"])]
    with pytest.raises(ValueError, match="unknown detection criterion 'bogus'"):
        eval_detection([], anns, criterion="bogus")
    with pytest.raises(ValueError, match="unknown detection criterion 'bogus'"):
        eval_detection([Detection("w", "a", 0, 9, 1.0)], anns,
                       criterion="bogus")     # no video in common
    with pytest.raises(ValueError, match="unknown detection criterion 'bogus'"):
        match_detections([], [(0, 29)], "bogus")
