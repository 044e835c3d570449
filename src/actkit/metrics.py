"""Evaluation metrics and reports.

Average precision follows the ranking convention: detections or
intervals are sorted by descending score (ties resolved by original
index), and AP is the mean of the precision values at the ranks of the
positives, with the number of positives as denominator.  Detection AP
additionally matches each detection to at most one unmatched
ground-truth interval, greedily in score order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np


def _ranked_ap(scores, hits, P) -> float:
    """AP of 0/1 float hits ranked by descending score (stable), over P
    positives."""
    hits = hits[np.argsort(-scores, kind="stable")]
    precision = np.cumsum(hits) / np.arange(1, len(hits) + 1)
    return float((precision * hits).sum() / P)


def average_precision(scores, labels) -> float:
    """AP of a ranked list: (1/P) * sum of precision@k over positive ranks.

    Sorting is stable so equal scores keep their original order.  Raises
    on inputs without a single positive label, where AP is undefined.
    """
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and labels must be 1-D and aligned")
    P = int((y == 1).sum())
    if P == 0:
        raise ValueError("average precision undefined without positives")
    return _ranked_ap(s, (y == 1).astype(float), P)


def mean_average_precision(per_label) -> tuple:
    """Mean AP over labels; labels without positives are excluded.

    per_label maps label -> (scores, binary labels).  Returns
    (mean, per-label AP dict, tuple of excluded labels).
    """
    aps, excluded = {}, []
    for label, (scores, labels) in per_label.items():
        if int(np.sum(np.asarray(labels) == 1)) == 0:
            excluded.append(label)
            continue
        aps[label] = average_precision(scores, labels)
    if not aps:
        raise ValueError("no label had a positive example")
    return float(np.mean(list(aps.values()))), aps, tuple(excluded)


def accuracy(predicted, truth) -> float:
    predicted = list(predicted)
    truth = list(truth)
    if len(predicted) != len(truth) or not truth:
        raise ValueError("predictions and truth must align and be non-empty")
    return sum(p == t for p, t in zip(predicted, truth)) / len(truth)


def confusion_counts(truth, predicted, labels) -> np.ndarray:
    """(Z, Z) count matrix with true labels as rows, predictions as columns."""
    index = {lab: i for i, lab in enumerate(labels)}
    M = np.zeros((len(labels), len(labels)), dtype=int)
    for t, p in zip(truth, predicted):
        M[index[t], index[p]] += 1
    return M


# ---------------------------------------------------------------------------
# temporal detection evaluation

def _interval_iou(s1, e1, s2, e2) -> float:
    inter = max(0, min(e1, e2) - max(s1, s2) + 1)
    union = (e1 - s1 + 1) + (e2 - s2 + 1) - inter
    return inter / union if union > 0 else 0.0


def _check_criterion(criterion, iou_threshold):
    if criterion not in ("midpoint", "iou"):
        raise ValueError(f"unknown detection criterion {criterion!r}")
    if not math.isfinite(iou_threshold):
        raise ValueError(f"iou_threshold {iou_threshold} is not finite")


def _criterion_holds(det, gt, criterion, iou_threshold):
    if criterion == "midpoint":
        mid = (det[0] + det[1]) / 2.0
        return gt[0] <= mid <= gt[1]
    return _interval_iou(det[0], det[1], gt[0], gt[1]) >= iou_threshold


def match_detections(dets, gts, criterion="midpoint", iou_threshold=0.5):
    """Greedy matching of one attribute's detections in one video.

    dets: list of (start, end, score); gts: list of (start, end).
    Detections are visited by descending score (ties: earlier start,
    shorter window) and each may claim at most one unmatched ground
    truth; among candidates the one with the highest interval IoU wins
    (ties: earlier start).  Returns a list of booleans (true positive
    flags) aligned with the visiting order and that order's indices.
    An unknown criterion or a non-finite iou_threshold raises ValueError.
    """
    _check_criterion(criterion, iou_threshold)
    order = sorted(range(len(dets)),
                   key=lambda i: (-dets[i][2], dets[i][0], dets[i][1] - dets[i][0]))
    matched = [False] * len(gts)
    tp_flags = []
    for i in order:
        d = dets[i]
        best, best_key = None, None
        for j, g in enumerate(gts):
            if matched[j]:
                continue
            if not _criterion_holds(d, g, criterion, iou_threshold):
                continue
            key = (-_interval_iou(d[0], d[1], g[0], g[1]), g[0], j)
            if best_key is None or key < best_key:
                best, best_key = j, key
        if best is not None:
            matched[best] = True
            tp_flags.append(True)
        else:
            tp_flags.append(False)
    return tp_flags, order


def eval_detection(detections, annotations, criterion="midpoint",
                   iou_threshold=0.5):
    """Per-attribute detection AP against interval annotations.

    detections: objects with video/attribute/start/end/score fields.
    annotations: interval records (video, start_frame, end_frame,
    attributes list).  An annotation counts once per attribute it lists.
    Attributes without any ground-truth interval are excluded from the
    mean and reported.  Returns (mean AP, per-attribute AP dict,
    excluded attribute tuple).  criterion and iou_threshold are checked first.
    """
    _check_criterion(criterion, iou_threshold)
    gt_by_attr = {}
    for rec in annotations:
        for a in rec["attributes"]:
            gt_by_attr.setdefault(a, []).append(
                (rec["video"], rec["start_frame"], rec["end_frame"]))
    det_by_attr = {}
    for d in detections:
        det_by_attr.setdefault(d.attribute, []).append(d)

    aps, excluded = {}, []
    for a in sorted(set(gt_by_attr) | set(det_by_attr)):
        gts = gt_by_attr.get(a, [])
        if not gts:
            excluded.append(a)
            continue
        dets = det_by_attr.get(a, [])
        flags, scores = [], []
        for video in sorted({g[0] for g in gts} | {d.video for d in dets}):
            vdets = [(d.start, d.end, d.score) for d in dets if d.video == video]
            vgts = [(g[1], g[2]) for g in gts if g[0] == video]
            tp, order = match_detections(vdets, vgts, criterion, iou_threshold)
            flags.extend(tp)
            scores.extend(vdets[i][2] for i in order)
        if not flags:
            aps[a] = 0.0
            continue
        aps[a] = _ranked_ap(np.asarray(scores, dtype=float),
                            np.asarray(flags, dtype=float), len(gts))
    if not aps:
        raise ValueError("no attribute had ground-truth intervals")
    return float(np.mean(list(aps.values()))), aps, tuple(excluded)


# ---------------------------------------------------------------------------
# reports

@dataclass(eq=False)
class EvalReport:
    """Evaluation summary for one experiment run."""

    task: str
    mean_ap: float | None = None
    per_label_ap: dict = field(default_factory=dict)
    accuracy: float | None = None
    labels: tuple = ()
    confusion: np.ndarray | None = None
    excluded: tuple = ()
    config: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "task": self.task,
            "mean_ap": self.mean_ap,
            "per_label_ap": self.per_label_ap,
            "accuracy": self.accuracy,
            "labels": list(self.labels),
            "confusion": None if self.confusion is None
            else np.asarray(self.confusion).tolist(),
            "excluded": list(self.excluded),
            "config": self.config,
            "extra": self.extra,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")

    def to_table(self) -> str:
        """Human-readable summary table."""
        lines = [f"task: {self.task}"]
        if self.accuracy is not None:
            lines.append(f"accuracy: {self.accuracy:.4f}")
        if self.mean_ap is not None:
            lines.append(f"mean AP:  {self.mean_ap:.4f}")
        if self.per_label_ap:
            width = max(len(str(k)) for k in self.per_label_ap)
            lines.append("per-label AP:")
            for k, v in sorted(self.per_label_ap.items()):
                lines.append(f"  {str(k):<{width}}  {v:.4f}")
        if self.excluded:
            lines.append("excluded (no positives): " + ", ".join(map(str, self.excluded)))
        if self.confusion is not None and len(self.labels):
            lines.append("confusion (rows=truth):")
            width = max(len(str(l)) for l in self.labels)
            header = " " * (width + 2) + " ".join(f"{str(l):>{width}}" for l in self.labels)
            lines.append(header)
            for lab, row in zip(self.labels, np.asarray(self.confusion)):
                cells = " ".join(f"{int(c):>{width}}" for c in row)
                lines.append(f"  {str(lab):<{width}}{cells}")
        return "\n".join(lines)
