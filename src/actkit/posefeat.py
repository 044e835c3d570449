"""Pose trajectory features, codebooks, and bag-of-words encoding.

Tracks of ten upper-body joints are summarized over fixed-length
windows by two feature families:

- body-model statistics ("bm"): direction histograms of joint velocity
  and acceleration, statistics and signed rate-of-change histograms of
  inter-joint distance trajectories, and statistics of inner-joint angle
  and angle-speed trajectories;
- spectral descriptors ("fft"): per coordinate trajectory of the eight
  arm joints, four exponential frequency-band energies, ten cepstral
  coefficients, the spectral entropy and the spectral energy.

Descriptors are computed a block of up to 64 window centres at a time,
per kind and window length, with array operations over the windows,
joints, distance pairs, angle triples and trajectories, not one of them
at a time.  pose_frame_features still answers one frame: it returns,
per window length that fits, read-only views of its window's row of the
block, which the track set memoises (see JointTrackSet).

Every per-frame quantity the bm statistics reduce (velocity,
acceleration, their magnitudes and direction bins, pair distances, their
changes and rate bins, inner-joint angles and angle speeds) depends on
one or a few neighbouring frames only.  A JointTrackSet therefore
computes each of them once over the whole track, on its first bm
window, and a bm block only gathers and reduces its windows of those
tables.  An fft block gathers its windows' 16 arm trajectories as one
contiguous (16, C, L) array and runs one transform each way over it.
The track set is immutable: a frozen dataclass holding a read-only copy
of its positions, so the tables and blocks cannot go stale.

The kernels are written for speed but keep the bits of the plain numpy
expressions they replace, one window at a time: _norm is
np.linalg.norm's own sum of squares for real input, slices subtract as
np.diff does, _row_stats sums each contiguous row once with the
reductions and divisions of x.mean and x.std, each histogram bin takes
its window's frames in time order, and each trajectory is transformed
and reduced on its own contiguous row.
The codebook k-means keeps its draws and sums (see _kmeans_pp_init and
_kmeans), so descriptors, codebooks and word counts are bit-identical
to the straightforward code, which the tests hold as oracles.

Each sub-feature gets its own k-means codebook with k = 2 x dimension;
windows of several lengths are quantized separately and the
per-(length, sub-feature) histograms are concatenated, L1-normalized
per block.  stream_word_counts is the one place that groups descriptors
by block and quantizes them; encode_bow sums its rows.

Dimension accounting, frozen here and bound by the tests:

    bm:  velocity-hist 80 + acceleration-hist 80 + distance-stats 80
         + distance-rate-hist 128 + angle-stats 30 + angle-speed-stats 30
         = 428
    fft: 16 trajectories x (4 bands + 10 cepstra + entropy + energy)
         = 256

With codebooks of size 2 x dim and three window lengths the encoded
histograms have 2 x 428 x 3 = 2568 (bm) and 2 x 256 x 3 = 1536 (fft)
dimensions.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .tables import (INT, STR, finite_float, names_file, parse_json,
                     read_table, write_table)

log = logging.getLogger(__name__)

PARTS = ("head", "torso", "r_shoulder", "l_shoulder", "r_elbow", "l_elbow",
         "r_wrist", "l_wrist", "r_hand", "l_hand")

ARM_JOINTS = ("r_shoulder", "l_shoulder", "r_elbow", "l_elbow",
              "r_wrist", "l_wrist", "r_hand", "l_hand")

WINDOW_LENGTHS = (20, 50, 100)

_SIDE_JOINTS = ("shoulder", "elbow", "wrist", "hand")

# left-right pairs first, then all pairs within each body side
DISTANCE_PAIRS = tuple(
    (f"r_{j}", f"l_{j}") for j in _SIDE_JOINTS
) + tuple(
    (f"{side}_{a}", f"{side}_{b}")
    for side in ("r", "l")
    for ai, a in enumerate(_SIDE_JOINTS)
    for b in _SIDE_JOINTS[ai + 1:]
)

# inner joint -> the two incident segments' far ends
ANGLE_TRIPLES = (
    ("r_shoulder", "torso", "r_elbow"),
    ("l_shoulder", "torso", "l_elbow"),
    ("r_elbow", "r_shoulder", "r_wrist"),
    ("l_elbow", "l_shoulder", "l_wrist"),
    ("r_wrist", "r_elbow", "r_hand"),
    ("l_wrist", "l_elbow", "l_hand"),
)

BM_SUBFEATURES = (
    ("velocity-hist", 8 * len(PARTS)),
    ("acceleration-hist", 8 * len(PARTS)),
    ("distance-stats", 5 * len(DISTANCE_PAIRS)),
    ("distance-rate-hist", 8 * len(DISTANCE_PAIRS)),
    ("angle-stats", 5 * len(ANGLE_TRIPLES)),
    ("angle-speed-stats", 5 * len(ANGLE_TRIPLES)),
)

FFT_SUBFEATURES = (
    ("fft-bands", 4 * 2 * len(ARM_JOINTS)),
    ("fft-cepstrum", 10 * 2 * len(ARM_JOINTS)),
    ("fft-entropy", 2 * len(ARM_JOINTS)),
    ("fft-energy", 2 * len(ARM_JOINTS)),
)

BM_DIM = sum(d for _, d in BM_SUBFEATURES)
FFT_DIM = sum(d for _, d in FFT_SUBFEATURES)

FFT_BANDS = ((1, 2), (2, 4), (4, 8), (8, 16))
FFT_NUM_CEPSTRA = 10
FFT_LOG_EPS = 1e-8

# signed px/frame rate-of-change bin edges for distance trajectories
RATE_EDGES = (-np.inf, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, np.inf)
_RATE_INNER = np.array(RATE_EDGES[1:-1])


def bow_dim(feature_dim: int) -> int:
    """Encoded histogram size: one 2x-sized codebook per dimension group,
    stacked over the WINDOW_LENGTHS."""
    return 2 * feature_dim * len(WINDOW_LENGTHS)


def _integer(value, name: str) -> int:
    """value as an int: Python and numpy integers pass, bool, float and
    everything else raise ValueError naming the value."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True, eq=False)
class JointTrackSet:
    """Joint positions over a contiguous frame range.

    positions has shape (len(PARTS), num_frames, 2) in PARTS order;
    first_frame, an integer, is the frame index of positions[:, 0].  The
    set is immutable: it holds a read-only copy of the positions it is
    given, so what it computes from them cannot go stale.  It builds,
    each once:
    - the per-frame motion tables that bm windows slice, on its first bm
      window;
    - descriptor blocks: the descriptors of up to _DESCRIPTOR_BLOCK
      windows of one kind and length, whose offsets start at a multiple
      of _DESCRIPTOR_BLOCK, as one read-only (C, dim) array.  The set
      keeps the block last built for each (kind, length) and builds
      another when a window falls outside it, so a walk over the frames
      in either direction builds each block once and holds at most one
      per (kind, length).
    Track sets compare by identity, as a field-wise == of their arrays
    would raise.
    """

    positions: np.ndarray
    first_frame: int = 0

    def __post_init__(self):
        first_frame = _integer(self.first_frame, "first_frame")
        pos = np.array(self.positions, dtype=float)
        if pos.ndim != 3 or pos.shape[0] != len(PARTS) or pos.shape[2] != 2:
            raise ValueError("positions must have shape (10, frames, 2)")
        if pos.shape[1] < 1:
            raise ValueError("track needs at least one frame")
        if not np.isfinite(pos).all():
            raise ValueError("positions contain non-finite values")
        pos.flags.writeable = False
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "first_frame", first_frame)

    @property
    def num_frames(self) -> int:
        return self.positions.shape[1]

    @property
    def frame_range(self) -> tuple:
        return (self.first_frame, self.first_frame + self.num_frames - 1)

    @cached_property
    def _motion(self) -> _MotionTables:
        return _motion_tables(self.positions)

    @cached_property
    def _blocks(self) -> dict:
        """(kind, length) -> (first window offset, read-only descriptors,
        sub-feature columns) of the block last built for that kind and
        length."""
        return {}


# PARTS rows of the distance pairs, angle triples and arm joints
_PAIR_IDX = np.array([[PARTS.index(n) for n in pair]
                      for pair in DISTANCE_PAIRS]).T     # (2, 16)
_TRIPLE_IDX = np.array([[PARTS.index(n) for n in triple]
                        for triple in ANGLE_TRIPLES]).T  # (3, 6)
_ARM_IDX = np.array([PARTS.index(n) for n in ARM_JOINTS])


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean length along the last axis: np.linalg.norm(v, axis=-1)'s
    own expression for real input, without its dispatch."""
    return np.sqrt(np.add.reduce(v * v, axis=-1))


def _direction_bins(vectors: np.ndarray) -> np.ndarray:
    """8-sector direction of each (x, y) vector along the last axis.

    Bin 0 is centered on the +x axis, bins advance counter-clockwise in
    45 degree sectors.
    """
    theta = np.arctan2(vectors[..., 1], vectors[..., 0])
    return np.floor((theta + np.pi / 8) / (np.pi / 4)).astype(int) % 8


def _row_stats(x: np.ndarray) -> np.ndarray:
    """Mean, median, std, min and max along the last axis, on a new last
    axis of five.

    The mean is summed once and reused for the deviations; the sums and
    divisions are those of x.mean(axis=-1) and x.std(axis=-1)."""
    n = x.shape[-1]
    out = np.empty(x.shape[:-1] + (5,))
    s = np.sort(x, axis=-1)
    mean = np.add.reduce(x, axis=-1) / n
    dev = x - mean[..., None]
    dev *= dev
    out[..., 0] = mean
    out[..., 1] = (s[..., (n - 1) // 2] + s[..., n // 2]) / 2
    out[..., 2] = np.sqrt(np.add.reduce(dev, axis=-1) / n)
    out[..., 3] = s[..., 0]
    out[..., 4] = s[..., -1]
    return out


def _angles(inner, end_a, end_b) -> np.ndarray:
    """Angle at each inner joint between its two segments, in [0, pi].
    Frames where a segment degenerates to zero length get angle 0."""
    va = end_a - inner
    vb = end_b - inner
    na = _norm(va)
    nb = _norm(vb)
    ok = (na > 0) & (nb > 0)
    cosv = np.divide(np.add.reduce(va * vb, axis=-1), na * nb,
                     out=np.zeros_like(na), where=ok)
    return np.where(ok, np.arccos(np.clip(cosv, -1.0, 1.0)), 0.0)


# Bin layout of the one histogram count per bm window, 8 bins per row:
# velocity rows, then acceleration rows, then distance-rate rows.
_ACC_OFFSET = 8 * len(PARTS)
_RATE_OFFSET = 2 * _ACC_OFFSET
_HIST_BINS = _RATE_OFFSET + 8 * len(DISTANCE_PAIRS)


@dataclass(frozen=True, eq=False)
class _MotionTables:
    """Every per-frame quantity that a bm window reduces, over a whole
    track of T frames; a window is a slice of each.

    step_bins/step_weights (26, T-1): velocity direction bins and speeds
    of the joints, then signed rate bins and absolute distance changes
    of the pairs.  acc_bins/acc_weights (10, T-2): acceleration
    direction bins and magnitudes.  Bins are offset by row into the
    _HIST_BINS layout.  geometry (22, T): pair distances, then
    inner-joint angles.  ang_speed (6, T-1): absolute angle changes.
    """

    step_bins: np.ndarray
    step_weights: np.ndarray
    acc_bins: np.ndarray
    acc_weights: np.ndarray
    geometry: np.ndarray
    ang_speed: np.ndarray


def _motion_tables(pos: np.ndarray) -> _MotionTables:
    """Per-frame tables of a (10, T, 2) track.  Each entry is computed
    as the per-window code computed it, elementwise in time, so a slice
    of a table holds the bits of the same quantity over that window."""
    vel = pos[:, 1:] - pos[:, :-1]                # (10, T-1, 2)
    acc = vel[:, 1:] - vel[:, :-1]                # (10, T-2, 2)
    dist = _norm(pos[_PAIR_IDX[0]] - pos[_PAIR_IDX[1]])
    deltas = dist[:, 1:] - dist[:, :-1]           # (16, T-1)
    ang = _angles(*pos[_TRIPLE_IDX])              # (6, T)
    joint_rows = 8 * np.arange(len(PARTS))[:, None]
    pair_rows = _RATE_OFFSET + 8 * np.arange(len(DISTANCE_PAIRS))[:, None]
    return _MotionTables(
        step_bins=np.concatenate((
            _direction_bins(vel) + joint_rows,
            _RATE_INNER.searchsorted(deltas, side="right") + pair_rows)),
        step_weights=np.concatenate((_norm(vel), np.abs(deltas))),
        acc_bins=_direction_bins(acc) + _ACC_OFFSET + joint_rows,
        acc_weights=_norm(acc),
        geometry=np.concatenate((dist, ang)),
        ang_speed=np.abs(ang[:, 1:] - ang[:, :-1]),
    )


@dataclass(eq=False)
class SubFeature:
    """A named, fixed-dimension slice of a window descriptor."""

    name: str
    values: np.ndarray


def _window_view(table: np.ndarray, start: int, count: int,
                 width: int) -> np.ndarray:
    """(rows, count, width) view of the windows table[:, o:o + width] at
    the offsets o = start, ..., start + count - 1."""
    return np.lib.stride_tricks.sliding_window_view(
        table[:, start:start + count + width - 1], width, axis=1)


def _by_window(per_row: np.ndarray) -> np.ndarray:
    """(rows, count, k) values as (count, rows * k): one row per window."""
    return per_row.transpose(1, 0, 2).reshape(per_row.shape[1], -1)


def _bm_block(tracks: JointTrackSet, length: int, start: int,
              count: int) -> np.ndarray:
    """(count, BM_DIM) body-model descriptors of the windows at offsets
    start, ..., start + count - 1, columns in BM_SUBFEATURES order.

    Each window reduces its slices of the track's per-frame tables as a
    window on its own would.  The three histograms are two weighted
    bincounts, of the step rows and of the acceleration rows, with each
    window's bins offset by _HIST_BINS: every bin belongs to one table
    row, so it takes its own window's frames in time order, and the sum
    of the two counts adds only +0.0 to each bin.  The distance and angle
    rows and the angle speeds are two _row_stats calls."""
    tables = tracks._motion
    offsets = _HIST_BINS * np.arange(count)[:, None]
    hist = np.zeros(count * _HIST_BINS)
    for bins, weights, width in (
            (tables.step_bins, tables.step_weights, length - 1),
            (tables.acc_bins, tables.acc_weights, length - 2)):
        hist += np.bincount(
            np.add(_window_view(bins, start, count, width), offsets).ravel(),
            weights=_window_view(weights, start, count, width).ravel(),
            minlength=count * _HIST_BINS)
    hist = hist.reshape(count, _HIST_BINS)
    stats = _by_window(_row_stats(np.ascontiguousarray(
        _window_view(tables.geometry, start, count, length))))
    speed = _by_window(_row_stats(np.ascontiguousarray(
        _window_view(tables.ang_speed, start, count, length - 1))))
    split = 5 * len(DISTANCE_PAIRS)
    return np.concatenate((hist[:, :_RATE_OFFSET], stats[:, :split],
                           hist[:, _RATE_OFFSET:], stats[:, split:], speed),
                          axis=1)


def _fft_block(tracks: JointTrackSet, length: int, start: int,
               count: int) -> np.ndarray:
    """(count, FFT_DIM) spectral descriptors of the windows at offsets
    start, ..., start + count - 1, columns in FFT_SUBFEATURES order.

    Every x and y trajectory of the eight arm joints is mean-removed and
    described by four exponential band energies ([1,2), [2,4), [4,8),
    [8,16) in DFT bins), ten cepstral coefficients (inverse transform of
    the log magnitude spectrum), the spectral entropy of the
    L1-normalized power spectrum, and the spectral energy.  Constant
    trajectories yield zero bands, zero energy and zero entropy.  The 16
    trajectories of every window, joint-major, x before y, are one
    contiguous row each, and all the rows of the block go through one
    transform each way."""
    arm = tracks.positions[_ARM_IDX, start:start + count + length - 1]
    x = _window_view(arm.transpose(0, 2, 1).reshape(2 * len(ARM_JOINTS), -1),
                     0, count, length).copy()               # (16, C, L)
    x -= x.mean(axis=-1, keepdims=True)
    mag = np.abs(np.fft.rfft(x, axis=-1))
    power = mag ** 2
    bands = np.stack([power[..., lo:hi].sum(axis=-1) for lo, hi in FFT_BANDS],
                     axis=-1)
    cep = np.fft.irfft(np.log(mag + FFT_LOG_EPS), n=length, axis=-1)
    total = power.sum(axis=-1, keepdims=True)
    p = np.divide(power, total, out=np.zeros_like(power), where=total > 0)
    plogp = p * np.log(p, out=np.zeros_like(p), where=p > 0)
    return np.concatenate((
        _by_window(bands), _by_window(cep[..., :FFT_NUM_CEPSTRA]),
        -plogp.sum(axis=-1).T, power[..., 1:].sum(axis=-1).T), axis=1)


_DESCRIPTOR_BLOCK = 64      # window centres per memoised descriptor block

_BLOCK_FNS = {"bm": _bm_block, "fft": _fft_block}
_MIN_FRAMES = {"bm": (3, "three"), "fft": (2, "two")}    # window minimum


def _block_columns(kind: str, length: int) -> tuple:
    """(name, start, stop) of each sub-feature's columns in a block.  A
    window of fewer than FFT_NUM_CEPSTRA frames has only that many
    cepstra per trajectory."""
    dims = dict(BM_SUBFEATURES if kind == "bm" else FFT_SUBFEATURES)
    if kind == "fft":
        dims["fft-cepstrum"] = (2 * len(ARM_JOINTS)
                                * min(FFT_NUM_CEPSTRA, length))
    stops = np.cumsum(list(dims.values())).tolist()
    return tuple((name, stop - dim, stop)
                 for (name, dim), stop in zip(dims.items(), stops))


def pose_frame_features(tracks: JointTrackSet, center_frame: int,
                        lengths=WINDOW_LENGTHS, kind="bm") -> dict:
    """Descriptors of the windows [center - L/2, center + L/2) at one pose
    frame, for every length L that fits.

    Returns {length: [SubFeature, ...]} in BM_SUBFEATURES or
    FFT_SUBFEATURES order, read-only views of the window's row of the
    track's memoised block for (kind, length).  On a miss the block of
    the up to _DESCRIPTOR_BLOCK windows from the multiple of
    _DESCRIPTOR_BLOCK at or below the window's offset replaces it.
    Lengths whose window would leave the frame range are omitted, so
    frames near the stream borders contribute only their shorter
    windows.  A length below the kind's minimum (bm second differences
    need three frames, fft two), or a center_frame or length that is not
    an integer, raises ValueError.
    """
    if kind not in _BLOCK_FNS:
        raise ValueError(f"unknown feature kind {kind!r}")
    minimum, word = _MIN_FRAMES[kind]
    center_frame = _integer(center_frame, "center_frame")
    out = {}
    for L in lengths:
        length = _integer(L, "length")
        if length < minimum:
            raise ValueError(f"{kind} windows need at least {word} frames")
        off = center_frame - length // 2 - tracks.first_frame
        if off < 0 or off + length > tracks.num_frames:
            continue
        start, block, columns = tracks._blocks.get((kind, length),
                                                   (0, None, None))
        if block is None or not 0 <= off - start < len(block):
            start = off - off % _DESCRIPTOR_BLOCK
            count = min(_DESCRIPTOR_BLOCK,
                        tracks.num_frames - length + 1 - start)
            block = _BLOCK_FNS[kind](tracks, length, start, count)
            block.flags.writeable = False
            columns = _block_columns(kind, length)
            tracks._blocks[kind, length] = (start, block, columns)
        row = block[off - start]
        out[L] = [SubFeature(name, row[a:b]) for name, a, b in columns]
    return out


# ---------------------------------------------------------------------------
# codebooks

def _max_sq_norm(X) -> float:
    """Largest squared row norm of X: inf where it overflows, NaN where
    a value is NaN.  The squared distance between two rows whose squared
    norms are at most this is at most 4 x this."""
    with np.errstate(over="ignore"):
        return float(np.einsum("ij,ij->i", X, X).max(initial=0.0))


@dataclass(eq=False)
class Codebook:
    """k-means codebook of one sub-feature; k = 2 x dimension.  Centres
    whose squared distances may overflow raise."""

    sub_feature: str
    centers: np.ndarray
    seed: int

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=float)
        if self.centers.ndim != 2:
            raise ValueError("centers must be (k, dim)")
        if not np.isfinite(4.0 * _max_sq_norm(self.centers)):
            raise ValueError("centers not finite or too large: squared "
                             "distances overflow")

    @property
    def size(self) -> int:
        return self.centers.shape[0]


def _pairwise_sq(X, C) -> np.ndarray:
    """Squared Euclidean distances via the expanded dot product."""
    d2 = (X * X).sum(axis=1)[:, None] - 2.0 * (X @ C.T) + (C * C).sum(axis=1)[None, :]
    return np.maximum(d2, 0.0)


# unit roundoff and smallest subnormal of float64, for the seeding's
# rounding bound (see _kmeans_pp_init)
_UNIT_ROUNDOFF = np.finfo(float).eps / 2
_SUBNORMAL = np.finfo(float).smallest_subnormal


def _kmeans_pp_init(samples, k, rng):
    """k-means++ seeding.  Each centre is drawn as Generator.choice(n,
    p=d2 / d2.sum()) draws it (same cdf, same single uniform), without
    choice's per-call checks of p.

    Each row's d2 is the exact sum((x - c)**2) of the former code,
    lowered by np.minimum, but the exact sum runs only on the rows it
    can lower.  Per step one matrix-vector product estimates every
    row's distance as E = |x|² - 2 x·c + |c|², with |x|² summed once
    per call (c is a row, so |c|² is one of them); a row takes the exact
    path unless E - B >= d2 for the rounding bound B below, which keeps
    every d2, draw and centre unchanged.

    The bound.  Let u = 2**-53 be the unit roundoff, eta = 2**-1074 the
    smallest subnormal, d the number of columns and D = |x - c|² the
    true distance; to first order in u:
    - the exact sum S rounds each difference and square once and adds d
      non-negative terms, so |S - D| <= (d + 2)u D + d eta;
    - |x|² and |c|² each err by at most d u |x|² + d eta / 2, x·c (in
      any summation order) by d u sum|x_i c_i| + d eta / 2 <= d u (|x|²
      + |c|²) / 2 + d eta / 2, and each of the two additions of E
      rounds a value of at most 2(|x|² + |c|²) once, so |E - D| <=
      2(d + 2)u (|x|² + |c|²) + 2 d eta;
    - D <= 2(|x|² + |c|²), so E - S <= (4d + 10)u (|x|² + |c|²) +
      3 d eta.
    B = 8(d + 4)u (|x|² + |c|²) + 4 d eta is twice the relative part
    of that, which also covers the second-order terms and the rounding
    of the test itself: it computes E - B as (|x|² - r|x|²) - 2 x·c +
    (|c|² - r|c|² - 4 d eta), r = 8(d + 4)u, with the row terms once per
    call, and each of its few roundings errs by at most u times 2(|x|² +
    |c|²), or not at all where the value is subnormal.  So fl(E - B) >=
    d2 implies S >= d2, where np.minimum keeps d2.  Where |x|² overflows
    E - B is inf or NaN; the test is written as a negation so that such
    rows take the exact path (build_codebook rejects those samples
    anyway)."""
    n, dim = samples.shape
    centers = np.empty((k, dim))
    sq = np.add.reduce(samples * samples, axis=1)
    low = sq - 8 * (dim + 4) * _UNIT_ROUNDOFF * sq      # |x|² - r|x|²
    tiny = 4 * dim * _SUBNORMAL
    centers[0] = samples[rng.integers(n)]
    d2 = ((samples - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[j] = samples[rng.integers(n)]
            continue
        cdf = (d2 / total).cumsum()
        cdf /= cdf[-1]
        pick = cdf.searchsorted(rng.random(), side="right")
        c = centers[j] = samples[pick]
        est = samples @ (-2.0 * c)                        # E - B
        est += low
        est += float(low[pick]) - tiny
        near = np.flatnonzero(~(est >= d2))
        diff = samples[near] - c
        d2[near] = np.minimum(d2[near], np.add.reduce(diff * diff, axis=1))
    return centers


KMEANS_MAX_ITER = 100       # Lloyd assignments at most
KMEANS_TOL = 1e-6           # stop once inertia falls by less than this share


def _kmeans(samples, k, seed):
    """Seeded Lloyd iterations; empty clusters are re-seeded from the
    sample farthest from its assigned center.  Returns (centers,
    inertia history after each assignment).

    The steps stop at a fixed point, once a step leaves every centre
    bit-equal to the one it started from: a step is a function of the
    centres alone, so every later step would repeat it.  Otherwise they
    stop once the inertia falls by less than KMEANS_TOL of itself, or
    after KMEANS_MAX_ITER steps.

    A live cluster's new center is its rows summed in row order from
    +0.0 and divided by its count: the same bits as samples[assign ==
    j].mean(axis=0) for samples of two or more columns.  One bincount
    does every sum: it adds each weight, in element order, into a
    zeroed array, so each (cluster, column) bin takes its rows in row
    order from +0.0."""
    dim = samples.shape[1]
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_init(samples, k, rng)
    history = []
    prev = None
    for _ in range(KMEANS_MAX_ITER):
        d2 = _pairwise_sq(samples, centers)
        assign = d2.argmin(axis=1)
        mind2 = d2[np.arange(len(samples)), assign]
        inertia = float(mind2.sum())
        history.append(inertia)
        before = centers.tobytes()
        counts = np.bincount(assign, minlength=k)
        taken = mind2.copy()
        for j in np.flatnonzero(counts == 0):
            far = int(taken.argmax())
            centers[j] = samples[far]
            taken[far] = -1.0
        sums = np.bincount((assign[:, None] * dim + np.arange(dim)).ravel(),
                           weights=samples.ravel(),
                           minlength=k * dim).reshape(k, dim)
        live = counts > 0
        centers[live] = sums[live] / counts[live, None]
        if centers.tobytes() == before:
            break
        if prev and (prev - inertia) / prev < KMEANS_TOL:   # None or >= 0
            break
        prev = inertia
    else:
        if inertia > 0:         # a zero inertia has nothing left to lower
            log.warning("k-means did not converge within KMEANS_MAX_ITER "
                        "= %d Lloyd steps: inertia %.6g, k = %d, %d samples "
                        "of dimension %d", KMEANS_MAX_ITER, inertia, k,
                        len(samples), dim)
    return centers, history


def build_codebook(sub_feature: str, samples, seed: int = 0) -> Codebook:
    """Cluster sample vectors of one sub-feature into a codebook.

    The codebook size is twice the feature dimension and the sample
    count must reach it.  Identical samples cannot be clustered and
    raise, and so do samples so large that a sum of squared distances
    over them overflows.  A warning is logged when the Lloyd steps stop
    at KMEANS_MAX_ITER before the inertia settles within KMEANS_TOL.
    """
    X = np.asarray(samples, dtype=float)
    if X.ndim != 2:
        raise ValueError("samples must be (num, dim)")
    if not np.isfinite(X).all():
        raise ValueError("samples contain non-finite values")
    # the seeding and every Lloyd step sum num distances of at most
    # 4 max |x|² each
    if not np.isfinite(4.0 * X.shape[0] * _max_sq_norm(X)):
        raise ValueError("samples too large: sums of squared distances "
                         "overflow")
    k = 2 * X.shape[1]
    if X.shape[0] < k:
        raise ValueError(f"need at least {k} samples, got {X.shape[0]}")
    if np.all(X == X[0]):
        raise ValueError("all samples identical; codebook would be degenerate")
    centers, _ = _kmeans(X, k, seed)
    return Codebook(sub_feature, centers, seed)


def quantize(codebook: Codebook, samples) -> np.ndarray:
    """Nearest-center index per sample; ties pick the lowest index.
    Samples whose squared distances to a centre may overflow raise (a
    Codebook's centres are checked alike)."""
    X = np.atleast_2d(np.asarray(samples, dtype=float))
    if X.shape[1] != codebook.centers.shape[1]:
        raise ValueError("sample dimension does not match the codebook")
    if not np.isfinite(4.0 * _max_sq_norm(X)):
        raise ValueError("samples not finite or too large: squared "
                         "distances overflow")
    return _pairwise_sq(X, codebook.centers).argmin(axis=1)


@dataclass
class CodebookSet:
    """Codebooks keyed by (window length, sub-feature name); the dict's
    insertion order is the block order of the encoded histograms."""

    codebooks: dict

    def block_layout(self) -> tuple:
        """Tuple of (length, name, start, stop) in block order."""
        layout = []
        offset = 0
        for (length, name), book in self.codebooks.items():
            layout.append((length, name, offset, offset + book.size))
            offset += book.size
        return tuple(layout)

    @property
    def dim(self) -> int:
        return sum(book.size for book in self.codebooks.values())


def build_codebook_set(samples_by_key, seed: int = 0) -> CodebookSet:
    """Build one codebook per (length, sub-feature) key.

    samples_by_key maps (length, name) -> (num, dim) arrays; insertion
    order fixes the histogram block order.  Per-key seeds are derived
    from the base seed and the key position so results do not depend on
    build concurrency.
    """
    return CodebookSet({
        key: build_codebook(key[1], samples, seed=seed + pos)
        for pos, (key, samples) in enumerate(samples_by_key.items())})


@dataclass(eq=False)
class BowHistogram:
    """Concatenated per-(length, sub-feature) histogram, each block
    L1-normalized; empty blocks stay all-zero."""

    values: np.ndarray
    layout: tuple


def encode_bow(per_frame_features, codebook_set: CodebookSet) -> BowHistogram:
    """Bag-of-words histogram of per-frame window descriptors.

    per_frame_features: iterable over pose frames of {length:
    [SubFeature, ...]} as produced by pose_frame_features.  The
    histogram is the column sum of stream_word_counts over these frames,
    L1-normalized per block, so every (length, sub-feature) pair must
    have a codebook.  An empty input yields the all-zero histogram.
    """
    records = list(per_frame_features)
    counts = stream_word_counts(records, range(len(records)), codebook_set,
                                len(records)).sum(axis=0)
    layout = codebook_set.block_layout()
    values = np.zeros(codebook_set.dim)
    for (_, _, start, stop) in layout:
        total = counts[start:stop].sum()
        if total > 0:
            values[start:stop] = counts[start:stop] / total
    return BowHistogram(values, layout)


def stream_word_counts(frame_features, frames, codebook_set: CodebookSet,
                       num_frames: int) -> np.ndarray:
    """Per-frame codebook word counts for a whole stream.

    frame_features / frames: aligned lists of per-frame descriptor
    records and their integer frame indices, of equal length (a length
    mismatch or non-integer frame raises ValueError).  Returns a
    (num_frames, dim) count matrix suitable for integral histograms;
    frames without descriptors stay zero.  Descriptors are quantized
    once per (length, sub-feature) block, which must have a codebook.
    """
    starts = {(L, n): start for (L, n, start, _)
              in codebook_set.block_layout()}
    blocks = {}
    for record, frame in zip(frame_features, frames, strict=True):
        frame = _integer(frame, "frame")
        if not 0 <= frame < num_frames:
            raise ValueError(f"frame {frame} outside the stream")
        for length, feats in record.items():
            for sf in feats:
                key = (length, sf.name)
                if key not in starts:
                    raise ValueError(f"no codebook for block {key!r}")
                rows, vecs = blocks.setdefault(key, ([], []))
                rows.append(frame)
                vecs.append(sf.values)
    counts = np.zeros((num_frames, codebook_set.dim))
    for key, (rows, vecs) in blocks.items():
        idx = quantize(codebook_set.codebooks[key], np.array(vecs))
        np.add.at(counts, (rows, starts[key] + idx), 1)
    return counts


# ---------------------------------------------------------------------------
# file formats

_TRACK_HEADER = ("frame", "part", "x", "y")


def save_tracks_csv(tracks: JointTrackSet, path) -> None:
    """Write tracks as CSV rows frame,part,x,y (header included)."""
    first, _ = tracks.frame_range
    pos = tracks.positions.tolist()
    write_table(path, ([first + f, part, *pos[p][f]]
                       for f in range(tracks.num_frames)
                       for p, part in enumerate(PARTS)), _TRACK_HEADER)


@names_file
def load_tracks_csv(path) -> JointTrackSet:
    """Read a frame,part,x,y CSV; each (frame, part) appears once and
    every part must cover the same contiguous frame range and positions
    are finite."""
    _, table = read_table(path, (int, str, finite_float, finite_float),
                          _TRACK_HEADER, key=2)
    rows = {}
    for frame, part, x, y in table:
        rows.setdefault(part, {})[frame] = (x, y)
    if set(rows) != set(PARTS):
        odd = sorted(set(rows) ^ set(PARTS))
        raise ValueError(f"missing or unknown parts {odd}")
    frames = sorted(rows[PARTS[0]])
    if frames != list(range(frames[0], frames[-1] + 1)):
        raise ValueError("frames are not contiguous")
    for part in PARTS:
        if sorted(rows[part]) != frames:
            raise ValueError(f"part {part!r} has a different frame set")
    positions = np.array([[rows[part][f] for f in frames] for part in PARTS])
    return JointTrackSet(positions, first_frame=frames[0])


def save_codebook_set(cbs: CodebookSet, path) -> None:
    """Serialize a codebook bundle as npz with a JSON block-order header
    (names, dimensions, seeds) stored as a unicode string, so loading
    needs no pickle."""
    header = [
        {"length": int(L), "sub_feature": n,
         "dim": int(book.centers.shape[1]), "size": int(book.size),
         "seed": int(book.seed)}
        for (L, n), book in cbs.codebooks.items()
    ]
    arrays = {"header": np.array(json.dumps(header))}
    for i, book in enumerate(cbs.codebooks.values()):
        arrays[f"centers_{i}"] = book.centers
    np.savez(path, **arrays)


@names_file
def load_codebook_set(path) -> CodebookSet:
    """Read a file written by save_codebook_set: every header entry
    names its block, and its centers_<i> are finite and (size, dim)."""
    # np.load leaves a file it opened open when it is not a valid zip
    with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
        header = parse_json(str(data["header"]), "header", {
            "length": INT, "sub_feature": STR, "dim": INT, "size": INT,
            "seed": INT})
        codebooks = {}
        for i, entry in enumerate(header):
            key = (entry["length"], entry["sub_feature"])
            if key in codebooks:
                raise ValueError(f"header entry {i} repeats block {key}")
            centers = data[f"centers_{i}"]
            shape = (entry["size"], entry["dim"])
            if centers.shape != shape or not np.isfinite(centers).all():
                raise ValueError(f"centers_{i} must be finite and shaped "
                                 f"{shape}, got {centers.shape}")
            codebooks[key] = Codebook(entry["sub_feature"], centers,
                                      entry["seed"])
    return CodebookSet(codebooks)
