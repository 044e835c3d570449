"""Temporal localization: sliding windows, non-maximum suppression and
agglomerative segmentation over frame-level word count streams.

Windows are placed on a geometric schedule (size and stride grow by
sqrt(2) per level).  Window histograms are read from an integral
(cumulative) table of frame word counts so each window costs O(1)
regardless of its length, and every window of one schedule level is
read and scored as one batch.  A stream of native float64 rows in a
.npy file is read straight into the table, so the counts are held once.
score_windows returns its windows as columns (WindowScores), and nms
ranks and suppresses those arrays; Detection records are built only
for the windows nms keeps.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .tables import (INT, NUMBER, names_file, read_json_lines, read_npy,
                     read_table, write_table)

BASE_WINDOW = 30
BASE_STEP = 6
WINDOW_GROWTH = math.sqrt(2.0)
MAX_WINDOW = 1800
SEGMENT_SPAN = 60


@dataclass(frozen=True)
class Detection:
    """A scored window of one attribute in one video (inclusive frames)."""

    video: str
    attribute: str
    start: int
    end: int
    score: float

    def __post_init__(self):
        if self.end < self.start:
            raise ValueError("detection must end at or after its start")

    @property
    def length(self) -> int:
        return self.end - self.start + 1


@dataclass(frozen=True)
class Segment:
    """A scored stretch of frames produced by segmentation (inclusive)."""

    start: int
    end: int
    score: float = 0.0

    def __post_init__(self):
        if self.end < self.start:
            raise ValueError("segment must end at or after its start")

    @property
    def length(self) -> int:
        return self.end - self.start + 1


def window_schedule() -> list:
    """Geometric ladder of (size, step) pairs: level k has size
    round(BASE_WINDOW * WINDOW_GROWTH^k) and step round(BASE_STEP *
    WINDOW_GROWTH^k); levels stop once the size would exceed MAX_WINDOW.
    That is twelve levels, 30 to 1358 frames."""
    out = []
    k = 0
    while (size := round(BASE_WINDOW * WINDOW_GROWTH ** k)) <= MAX_WINDOW:
        out.append((size, round(BASE_STEP * WINDOW_GROWTH ** k)))
        k += 1
    return out


# ---------------------------------------------------------------------------
# integral word count tables

@dataclass(eq=False)
class IntegralHistogram:
    """Prefix sums of a (T, B) frame count stream.

    prefix has shape (T + 1, B) with prefix[0] = 0, so any window sum is
    one subtraction.
    """

    prefix: np.ndarray

    def __post_init__(self):
        self.prefix = np.asarray(self.prefix, dtype=float)
        if self.prefix.ndim != 2 or self.prefix.shape[0] < 1:
            raise ValueError("integral table must be (T + 1, B)")
        if np.any(self.prefix[0] != 0):
            raise ValueError("integral table must start at zero")

    @property
    def num_frames(self) -> int:
        return self.prefix.shape[0] - 1


_INTEGRAL_BLOCK = 256


def _read_into_table(path):
    """A (T + 1, B) table whose rows 1..T are the counts of the .npy file
    path, read into it with one readinto; row 0 is zero.  None unless
    the file is a version 1 or 2 .npy of a native float64 2-D array in C
    order that holds all T rows."""
    fmt = np.lib.format
    with open(path, "rb") as fh:
        try:
            version = fmt.read_magic(fh)
            if version not in ((1, 0), (2, 0)):
                return None
            shape, fortran, dtype = (
                fmt.read_array_header_1_0 if version == (1, 0)
                else fmt.read_array_header_2_0)(fh)
        except ValueError:
            return None
        if len(shape) != 2 or fortran or dtype != np.float64:
            return None
        prefix = np.empty((shape[0] + 1, shape[1]))
        prefix[0] = 0.0
        if fh.readinto(prefix[1:]) != prefix[1:].nbytes:
            return None
    return prefix


def build_integral(counts) -> IntegralHistogram:
    """Cumulative table over per-frame word counts (T, B): an array, or
    the path of a .npy file that holds one.

    A file of native float64 counts in C order is read straight into
    rows 1..T of the table, so the counts are never held twice; any
    other file loads with read_npy, whose errors it keeps, and is cast
    into those rows.  Counts must be non-negative and their column
    totals finite; a NaN, negative or infinite count raises ValueError
    naming its frame and bin.  Rows are accumulated in place in blocks
    of _INTEGRAL_BLOCK, each block starting from the last prefix row of
    the one before, so every column is summed top-down in frame order:
    the same bits as np.cumsum(counts, axis=0), with the working block
    kept in cache."""
    prefix = None
    if isinstance(counts, (str, os.PathLike)):
        prefix = _read_into_table(counts)
        if prefix is None:
            counts = read_npy(counts)
    if prefix is None:
        C = np.asarray(counts, dtype=float)
        if C.ndim != 2:
            raise ValueError("counts must be (T, B)")
        prefix = np.empty((C.shape[0] + 1, C.shape[1]))
        prefix[0] = 0.0
        prefix[1:] = C
    rows = prefix[1:]
    if rows.size and not rows.min() >= 0:     # NaN fails this test too
        f, b = np.argwhere(~(rows >= 0))[0]
        raise ValueError(f"counts must be non-negative: frame {f}, bin {b} "
                         f"holds {rows[f, b]}")
    T = rows.shape[0]
    with np.errstate(over="ignore"):          # an overflow raises below
        for start in range(0, T, _INTEGRAL_BLOCK):
            block = prefix[start + 1:start + 1 + _INTEGRAL_BLOCK]
            if start:
                block[0] += prefix[start]
            np.add.accumulate(block, axis=0, out=block)
    if not np.isfinite(prefix[-1]).all():
        f, b = np.argwhere(~np.isfinite(rows))[0]
        raise ValueError(f"counts must have finite totals: bin {b} is "
                         f"{prefix[f + 1, b]} from frame {f} on")
    return IntegralHistogram(prefix)


def window_counts(table: IntegralHistogram, start, end) -> np.ndarray:
    """Raw bin counts of the inclusive frame window [start, end].

    start and end are ints (one (B,) row) or arrays of them (one row
    per window); a bool or float bound raises ValueError."""
    for name, b in (("start", start), ("end", end)):
        if np.asarray(b).dtype.kind not in "iu":
            raise ValueError(f"window {name} must be integers, got {b!r}")
    s, e = np.broadcast_arrays(start, end)
    bad = ~((0 <= s) & (s <= e) & (e < table.num_frames))
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise ValueError(f"window [{s.flat[i]}, {e.flat[i]}] outside "
                         f"0..{table.num_frames - 1}")
    return table.prefix[e + 1] - table.prefix[s]


def window_histogram(table: IntegralHistogram, start, end) -> np.ndarray:
    """Window counts normalized to unit L1 mass per row; an empty window
    stays zero.  Takes one window or arrays of them, as window_counts.
    Per-block normalization of bag-of-words histograms lives in
    posefeat.encode_bow."""
    raw = window_counts(table, start, end)
    total = raw.sum(axis=-1, keepdims=True)
    return np.divide(raw, total, out=np.zeros_like(raw), where=total > 0)


@dataclass(frozen=True, eq=False)
class WindowScores:
    """The windows of one score_windows call, in scan order, as columns:
    inclusive start and end frames (int64) and scores (float64) of one
    attribute in one video.  len() counts the windows, and detection(i)
    builds window i as a Detection record."""

    video: str
    attribute: str
    starts: np.ndarray
    ends: np.ndarray
    scores: np.ndarray

    def __len__(self) -> int:
        return len(self.scores)

    def detection(self, i) -> Detection:
        """Window i as a Detection record."""
        return Detection(self.video, self.attribute, int(self.starts[i]),
                         int(self.ends[i]), float(self.scores[i]))


def score_windows(table: IntegralHistogram, scorer, video: str = "",
                  attribute: str = "") -> WindowScores:
    """Slide each window_schedule level over the stream, scoring windows.

    Windows are placed at offsets 0, step, 2*step, ... while offset +
    size <= T.  scorer maps the (N, B) window_histogram rows (unit L1
    mass) of one whole level to N scores; it is called once per level
    that fits the stream.  Returns the windows in scan order.
    """
    T = table.num_frames
    starts, ends = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    scores = [np.zeros(0)]
    for size, step in window_schedule():
        if size > T:
            continue
        s = np.arange(0, T - size + 1, step, dtype=np.int64)
        v = np.asarray(scorer(window_histogram(table, s, s + size - 1)),
                       dtype=float)
        if v.shape != s.shape:
            raise ValueError(f"scorer returned shape {v.shape} for "
                             f"{len(s)} windows of size {size}")
        starts.append(s)
        ends.append(s + size - 1)
        scores.append(v)
    return WindowScores(video, attribute, np.concatenate(starts),
                        np.concatenate(ends), np.concatenate(scores))


# ---------------------------------------------------------------------------
# non-maximum suppression

def nms(detections: WindowScores, overlap_threshold: float = 0.0,
        criterion: str = "overlap") -> list:
    """Greedy non-maximum suppression, suppress-the-rest form, of the
    windows of a WindowScores record.

    Candidates are ranked by descending score (ties: earlier start,
    then shorter window, then scan order).  The best live candidate is
    kept and every later candidate whose overlap with it exceeds the
    threshold is dropped in one array expression; this repeats until no
    candidate is live, so the loop runs once per kept window.  The default
    threshold of zero removes anything that overlaps a kept window at
    all.  criterion "overlap" measures shared frames, "iou" the
    intersection-over-union ratio.  Both are symmetric, so the kept
    list is the one a candidate-by-candidate greedy pass keeps.  Returns
    the kept windows as Detection records, best first.  A NaN score (no
    rank) or threshold (no suppression) raises ValueError.
    """
    if criterion not in ("overlap", "iou"):
        raise ValueError(f"unknown suppression criterion {criterion!r}")
    if math.isnan(overlap_threshold):
        raise ValueError("overlap_threshold cannot be NaN")
    starts, ends = detections.starts, detections.ends
    scores, pick = detections.scores, detections.detection
    nan = np.flatnonzero(np.isnan(scores))
    if nan.size:
        raise ValueError(f"detection {pick(nan[0])} has a NaN score")
    rest = np.lexsort((ends - starts, starts, -scores))
    S, E = starts[rest], ends[rest]
    kept = []
    while rest.size:
        kept.append(rest[0])
        overlap = np.minimum(E, E[0]) - np.maximum(S, S[0]) + 1
        if criterion == "iou":
            inter = np.maximum(overlap, 0)
            overlap = inter / (E - S + 1 + E[0] - S[0] + 1 - inter)
        live = ~(overlap > overlap_threshold)
        live[0] = False
        rest, S, E = rest[live], S[live], E[live]
    return [pick(i) for i in kept]


# ---------------------------------------------------------------------------
# agglomerative segmentation

def uniform_intervals(num_frames: int, span: int = SEGMENT_SPAN) -> list:
    """Chop a stream into fixed spans; the trailing piece may be shorter."""
    if num_frames < 1 or span < 1:
        raise ValueError("need positive stream length and span")
    out = []
    for start in range(0, num_frames, span):
        out.append(Segment(start, min(start + span, num_frames) - 1))
    return out


def _compared(v, unit_mass):
    """(v, norm) as cosines see v: with unit_mass, over its positive sum."""
    if unit_mass and (total := v.sum()) > 0:
        v = v / total
    return v, math.sqrt(v @ v)


def _cosines(rows) -> list:
    """Cosines of adjacent (row, norm) pairs; 0 at a zero norm."""
    return [float(u @ v) / (nu * nv) if nu and nv else 0.0
            for (u, nu), (v, nv) in zip(rows, rows[1:])]


def merge_adjacent(vectors, threshold: float, unit_mass: bool = False):
    """Greedy agglomeration of an ordered (n, d) stack of row vectors.

    While the highest cosine of an adjacent pair (leftmost on ties, 0 at
    a zero vector) is at or above the threshold, replaces that pair by
    its sum, left plus right.  With unit_mass a cosine compares each row
    divided by its sum, as window_histogram does; the sums stay raw.
    The rows are copied into C order and scaled by the power of two that
    puts the largest magnitude in [0.5, 1): the bits of unscaled
    arithmetic, but no norm or dot product overflows.  A NaN or infinite
    entry raises ValueError.  Returns (runs, sums): the (m, 2) int64
    first and last input rows of each merged vector, and the (m, d) sums.
    """
    if not math.isfinite(threshold):
        raise ValueError(f"merge threshold must be finite, got {threshold!r}")
    V = np.asarray(vectors, dtype=float)
    if V.ndim != 2 or not math.isfinite(top := np.abs(V).max(initial=0.0)):
        raise ValueError("vectors must be a finite (n, d) stack")
    _, exp = np.frexp(top)
    sums = list(np.ldexp(V, -exp, order="C"))
    rows = [_compared(v, unit_mass) for v in sums]
    runs = [(i, i) for i in range(len(sums))]
    sims = _cosines(rows)
    while sims and (high := max(sims)) >= threshold:
        best = sims.index(high)
        sums[best:best + 2] = [sums[best] + sums[best + 1]]
        rows[best:best + 2] = [_compared(sums[best], unit_mass)]
        runs[best:best + 2] = [(runs[best][0], runs[best + 1][1])]
        lo = max(best - 1, 0)
        sims[lo:best + 2] = _cosines(rows[lo:best + 2])
    return (np.array(runs, dtype=np.int64).reshape(-1, 2),
            np.ldexp(sums, exp).reshape(len(sums), V.shape[1]))


def segment_agglomerative(table: IntegralHistogram, threshold: float,
                          span: int = SEGMENT_SPAN) -> list:
    """Merge adjacent spans whose histograms agree: merge_adjacent with
    unit_mass on the window_counts rows of uniform spans, read in one
    batch.  On integer counts a merged row is its span's exact count, so
    the cosines are those of window_histogram rows, bit for bit."""
    spans = uniform_intervals(table.num_frames, span)
    runs, _ = merge_adjacent(window_counts(
        table, [s.start for s in spans], [s.end for s in spans]),
        threshold, unit_mass=True)
    return [Segment(spans[a].start, spans[b].end) for a, b in runs]


# ---------------------------------------------------------------------------
# file formats

_DETECTION_HEADER = ("video", "attribute", "start", "end", "score")


def save_detections_csv(detections, path) -> None:
    write_table(path, ([d.video, d.attribute, d.start, d.end, d.score]
                       for d in detections), _DETECTION_HEADER)


def _score(cell) -> float:
    """read_table converter for a detection score: ±inf rank, NaN not."""
    v = float(cell)
    if math.isnan(v):
        raise ValueError(f"NaN score {cell!r}")
    return v


@names_file
def load_detections_csv(path) -> list:
    _, rows = read_table(path, (str, str, int, int, _score), _DETECTION_HEADER)
    out = []
    for row in rows:
        try:
            out.append(Detection(*row))
        except ValueError as exc:
            raise ValueError(f"row {','.join(map(str, row))}: {exc}") \
                from None
    return out


def save_segments_jsonl(segments, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in segments:
            fh.write(json.dumps({"start": s.start, "end": s.end,
                                 "score": s.score}) + "\n")


@names_file
def load_segments_jsonl(path) -> list:
    """Read segment JSON lines: integers start <= end and a number score,
    0 where left out; errors are prefixed with path:line."""
    fields = {"start": INT, "end": INT,
              "score": NUMBER._replace(required=False)}
    return [Segment(rec["start"], rec["end"], rec.get("score", 0.0))
            for rec in read_json_lines(path, fields, span=("start", "end"))]
