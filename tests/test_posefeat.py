import dataclasses
import logging
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from actkit import posefeat
from actkit.posefeat import (
    ANGLE_TRIPLES,
    ARM_JOINTS,
    BM_DIM,
    BM_SUBFEATURES,
    BowHistogram,
    Codebook,
    CodebookSet,
    DISTANCE_PAIRS,
    FFT_DIM,
    FFT_SUBFEATURES,
    JointTrackSet,
    PARTS,
    RATE_EDGES,
    FFT_BANDS,
    FFT_LOG_EPS,
    FFT_NUM_CEPSTRA,
    SubFeature,
    _ARM_IDX,
    _DESCRIPTOR_BLOCK,
    _PAIR_IDX,
    _TRIPLE_IDX,
    bow_dim,
    build_codebook,
    build_codebook_set,
    encode_bow,
    load_codebook_set,
    load_tracks_csv,
    pose_frame_features,
    quantize,
    save_codebook_set,
    save_tracks_csv,
    stream_word_counts,
)


def _static_positions(num_frames=30):
    """All joints parked on a loose grid, nothing moves."""
    base = np.array([[50.0, 10.0], [50.0, 40.0], [65.0, 25.0], [35.0, 25.0],
                     [70.0, 45.0], [30.0, 45.0], [72.0, 60.0], [28.0, 60.0],
                     [74.0, 70.0], [26.0, 70.0]])
    return np.repeat(base[:, None, :], num_frames, axis=1)


def _static_tracks(num_frames=30, first_frame=0):
    return JointTrackSet(_static_positions(num_frames), first_frame)


def _random_walk_positions(num_frames=60, seed=0):
    rng = np.random.default_rng(seed)
    start = rng.uniform(0, 100, size=(len(PARTS), 1, 2))
    steps = rng.normal(0, 2.0, size=(len(PARTS), num_frames - 1, 2))
    return np.concatenate([start, start + np.cumsum(steps, axis=1)], axis=1)


def _random_walk_tracks(num_frames=60, seed=0, first_frame=0):
    return JointTrackSet(_random_walk_positions(num_frames, seed), first_frame)


def _subfeature_map(feats):
    return {sf.name: sf.values for sf in feats}


def _window(tracks, center_frame, length, kind="bm"):
    """Sub-features of one window that fits, through pose_frame_features."""
    return pose_frame_features(tracks, center_frame, (length,), kind)[length]


def test_dimension_accounting():
    assert BM_DIM == 428
    assert FFT_DIM == 256
    assert dict(BM_SUBFEATURES) == {
        "velocity-hist": 80, "acceleration-hist": 80, "distance-stats": 80,
        "distance-rate-hist": 128, "angle-stats": 30, "angle-speed-stats": 30}
    assert dict(FFT_SUBFEATURES) == {
        "fft-bands": 64, "fft-cepstrum": 160, "fft-entropy": 16,
        "fft-energy": 16}
    assert len(DISTANCE_PAIRS) == 16


def test_bow_dim_formula():
    assert bow_dim(BM_DIM) == 2568
    assert bow_dim(FFT_DIM) == 1536
    # the formula reproduces the published totals for a 556-dim variant
    assert bow_dim(556) == 3336


def test_bm_velocity_histogram_known_mass():
    pos = _static_positions(20)
    # head moves +2 px/frame along +x: 19 transitions of speed 2
    pos[0, :, 0] += 2.0 * np.arange(20)
    tracks = JointTrackSet(pos)
    feats = _subfeature_map(_window(tracks, 10, 20))
    head_hist = feats["velocity-hist"][0:8]
    assert head_hist[0] == pytest.approx(38.0)
    assert np.all(head_hist[1:] == 0)
    # torso never moved
    assert np.all(feats["velocity-hist"][8:16] == 0)


def test_bm_stationary_is_all_zero_motion():
    feats = _subfeature_map(_window(_static_tracks(20), 10, 20))
    assert np.all(feats["velocity-hist"] == 0)
    assert np.all(feats["acceleration-hist"] == 0)
    assert np.all(feats["distance-rate-hist"] == 0)
    assert np.all(feats["angle-speed-stats"] == 0)


def test_bm_constant_distance_stats():
    pos = _static_positions(20)
    # force r_shoulder / l_shoulder to a 3-4-5 configuration
    pos[PARTS.index("r_shoulder")] = [0.0, 0.0]
    pos[PARTS.index("l_shoulder")] = [3.0, 4.0]
    tracks = JointTrackSet(pos)
    feats = _subfeature_map(_window(tracks, 10, 20))
    assert DISTANCE_PAIRS[0] == ("r_shoulder", "l_shoulder")
    stats = feats["distance-stats"][0:5]
    assert np.allclose(stats, [5.0, 5.0, 0.0, 5.0, 5.0])
    assert np.all(feats["distance-rate-hist"][0:8] == 0)


def test_bm_rate_histogram_signed_bins():
    pos = _static_positions(21)
    # r_shoulder walks away from l_shoulder by +3 px/frame along x
    pos[PARTS.index("l_shoulder")] = [0.0, 0.0]
    pos[PARTS.index("r_shoulder"), :, 1] = 0.0
    pos[PARTS.index("r_shoulder"), :, 0] = 10.0 + 3.0 * np.arange(21)
    tracks = JointTrackSet(pos)
    feats = _subfeature_map(_window(tracks, 10, 20))
    hist = feats["distance-rate-hist"][0:8]
    # deltas of +3 land in the [2, 4) bin (index 6), weighted by magnitude
    assert hist[6] == pytest.approx(3.0 * 19)
    assert np.all(np.delete(hist, 6) == 0)


def test_bm_angles_straight_and_right():
    pos = _static_positions(20)
    pos[PARTS.index("r_shoulder")] = [0.0, 0.0]
    pos[PARTS.index("r_elbow")] = [10.0, 0.0]
    pos[PARTS.index("r_wrist")] = [20.0, 0.0]
    pos[PARTS.index("r_hand")] = [20.0, 10.0]
    tracks = JointTrackSet(pos)
    feats = _subfeature_map(_window(tracks, 10, 20))
    stats = feats["angle-stats"]
    # triple order: the r_elbow angle is the third entry, r_wrist the fifth
    r_elbow = stats[2 * 5: 3 * 5]
    r_wrist = stats[4 * 5: 5 * 5]
    assert r_elbow[0] == pytest.approx(np.pi)
    assert r_wrist[0] == pytest.approx(np.pi / 2)


def test_bm_rotation_shifts_direction_bins():
    tracks = _random_walk_tracks(24, seed=1)
    rot = tracks.positions.copy()
    rot[..., 0], rot[..., 1] = -tracks.positions[..., 1], tracks.positions[..., 0]
    rotated = JointTrackSet(rot)
    f1 = _subfeature_map(_window(tracks, 12, 20))["velocity-hist"]
    f2 = _subfeature_map(_window(rotated, 12, 20))["velocity-hist"]
    for j in range(len(PARTS)):
        a = f1[8 * j: 8 * (j + 1)]
        b = f2[8 * j: 8 * (j + 1)]
        assert np.allclose(b, np.roll(a, 2), atol=1e-9)


def test_bm_translation_invariance():
    tracks = _random_walk_tracks(24, seed=2)
    shifted = JointTrackSet(tracks.positions + np.array([7.25, -3.5]))
    f1 = _window(tracks, 12, 20)
    f2 = _window(shifted, 12, 20)
    for a, b in zip(f1, f2):
        assert np.allclose(a.values, b.values, atol=1e-8)


def test_bm_window_bounds():
    tracks = _static_tracks(20)
    assert pose_frame_features(tracks, 5, (20,)) == {}   # start negative
    assert pose_frame_features(tracks, 15, (20,)) == {}  # stop past the end
    tracks2 = _static_tracks(20, first_frame=100)
    assert pose_frame_features(tracks2, 10, (20,)) == {}
    feats = _window(tracks2, 110, 20)  # offset range is honoured
    assert len(feats) == len(BM_SUBFEATURES)


def test_bm_total_dimension():
    feats = _window(_static_tracks(20), 10, 20)
    assert sum(len(sf.values) for sf in feats) == BM_DIM
    for sf, (name, dim) in zip(feats, BM_SUBFEATURES):
        assert sf.name == name and len(sf.values) == dim


def test_fft_dimension_for_all_lengths():
    tracks = _random_walk_tracks(220, seed=3)
    for L in (20, 50, 100):
        feats = _window(tracks, 110, L, "fft")
        assert sum(len(sf.values) for sf in feats) == FFT_DIM
        for sf, (name, dim) in zip(feats, FFT_SUBFEATURES):
            assert sf.name == name and len(sf.values) == dim


def test_fft_constant_trajectory_conventions():
    feats = _subfeature_map(_window(_static_tracks(20), 10, 20, "fft"))
    assert np.all(feats["fft-bands"] == 0)
    assert np.all(feats["fft-energy"] == 0)
    assert np.all(feats["fft-entropy"] == 0)
    # log-magnitude cepstrum of the empty spectrum: ln(eps) then zeros
    cep = feats["fft-cepstrum"][:10]
    assert cep[0] == pytest.approx(np.log(1e-8))
    assert np.allclose(cep[1:], 0.0, atol=1e-12)


def test_fft_pure_sinusoid_band():
    pos = _static_positions(20)
    t = np.arange(20)
    # r_shoulder x oscillates at DFT bin 2: amplitude L/2 = 10 in the spectrum
    pos[PARTS.index("r_shoulder"), :, 0] += np.sin(2 * np.pi * 2 * t / 20)
    tracks = JointTrackSet(pos)
    feats = _subfeature_map(_window(tracks, 10, 20, "fft"))
    assert ARM_JOINTS[0] == "r_shoulder"
    bands = feats["fft-bands"][0:4]
    assert bands[1] == pytest.approx(100.0, abs=1e-9)
    assert np.allclose(np.delete(bands, 1), 0.0, atol=1e-9)
    # all spectral mass in one bin: entropy 0, energy equals the band
    assert feats["fft-entropy"][0] == pytest.approx(0.0, abs=1e-9)
    assert feats["fft-energy"][0] == pytest.approx(100.0, abs=1e-9)


def test_fft_energy_scales_quadratically():
    tracks = _random_walk_tracks(24, seed=4)
    f1 = _subfeature_map(_window(tracks, 12, 20, "fft"))
    scaled = JointTrackSet(tracks.positions * 3.0)
    f2 = _subfeature_map(_window(scaled, 12, 20, "fft"))
    assert np.allclose(f2["fft-energy"], 9.0 * f1["fft-energy"], rtol=1e-9)


def test_pose_frame_features_skips_overlong_windows():
    tracks = _random_walk_tracks(30, seed=5)
    rec = pose_frame_features(tracks, 15, lengths=(20, 50, 100), kind="bm")
    assert set(rec) == {20}
    with pytest.raises(ValueError):
        pose_frame_features(tracks, 15, kind="nope")


def test_pose_frame_features_rejects_short_lengths():
    tracks = _random_walk_tracks(30, seed=5)
    with pytest.raises(ValueError, match="at least three"):
        pose_frame_features(tracks, 25, (2, 1, 0, -5), "bm")
    with pytest.raises(ValueError, match="at least two"):
        pose_frame_features(tracks, 25, (1, 0), "fft")
    # a short length raises even where its window would leave the range
    with pytest.raises(ValueError):
        pose_frame_features(tracks, 0, (20, 2), "bm")
    assert set(pose_frame_features(tracks, 25, (3, 2), "fft")) == {3, 2}


# ---------------------------------------------------------------------------
# per-window oracles: one joint, pair, triple or trajectory at a time

def _oracle_window(tracks, center_frame, length):
    start = center_frame - length // 2 - tracks.first_frame
    assert 0 <= start and start + length <= tracks.num_frames
    return tracks.positions[:, start:start + length]


def _oracle_part(pos, name):
    return pos[PARTS.index(name)]


def _direction_hist(vectors):
    mags = np.linalg.norm(vectors, axis=-1)
    hist = np.zeros(8)
    nz = mags > 0
    if nz.any():
        theta = np.arctan2(vectors[nz, 1], vectors[nz, 0])
        bins = np.floor((theta + np.pi / 8) / (np.pi / 4)).astype(int) % 8
        np.add.at(hist, bins, mags[nz])
    return hist


def _stats(x):
    return np.array([x.mean(), np.median(x), x.std(), x.min(), x.max()])


def _angle(inner, end_a, end_b):
    va = end_a - inner
    vb = end_b - inner
    na = np.linalg.norm(va, axis=-1)
    nb = np.linalg.norm(vb, axis=-1)
    ok = (na > 0) & (nb > 0)
    ang = np.zeros(inner.shape[0])
    if ok.any():
        cosv = (va[ok] * vb[ok]).sum(axis=-1) / (na[ok] * nb[ok])
        ang[ok] = np.arccos(np.clip(cosv, -1.0, 1.0))
    return ang


def _oracle_bm(tracks, center_frame, length):
    pos = _oracle_window(tracks, center_frame, length)
    vel = np.diff(pos, axis=1)
    acc = np.diff(vel, axis=1)
    vel_hist = np.concatenate([_direction_hist(v) for v in vel])
    acc_hist = np.concatenate([_direction_hist(a) for a in acc])
    dist_stats, dist_rate = [], []
    for a, b in DISTANCE_PAIRS:
        d = np.linalg.norm(_oracle_part(pos, a) - _oracle_part(pos, b),
                           axis=-1)
        dist_stats.append(_stats(d))
        deltas = np.diff(d)
        hist = np.zeros(8)
        bins = np.searchsorted(RATE_EDGES[1:-1], deltas, side="right")
        np.add.at(hist, bins, np.abs(deltas))
        dist_rate.append(hist)
    ang_stats, ang_speed_stats = [], []
    for inner, ea, eb in ANGLE_TRIPLES:
        ang = _angle(_oracle_part(pos, inner), _oracle_part(pos, ea),
                     _oracle_part(pos, eb))
        ang_stats.append(_stats(ang))
        ang_speed_stats.append(_stats(np.abs(np.diff(ang))))
    return [vel_hist, acc_hist, np.concatenate(dist_stats),
            np.concatenate(dist_rate), np.concatenate(ang_stats),
            np.concatenate(ang_speed_stats)]


def _oracle_fft(tracks, center_frame, length):
    pos = _oracle_window(tracks, center_frame, length)
    bands, cepstra, entropies, energies = [], [], [], []
    for joint in ARM_JOINTS:
        for axis in (0, 1):
            x = _oracle_part(pos, joint)[:, axis]
            x = x - x.mean()
            mag = np.abs(np.fft.rfft(x))
            power = mag ** 2
            for lo, hi in FFT_BANDS:
                bands.append(power[lo:hi].sum())
            cep = np.fft.irfft(np.log(mag + FFT_LOG_EPS), n=length)
            cepstra.extend(cep[:FFT_NUM_CEPSTRA])
            total = power.sum()
            if total > 0:
                p = power / total
                nz = p > 0
                entropies.append(float(-(p[nz] * np.log(p[nz])).sum()))
            else:
                entropies.append(0.0)
            energies.append(power[1:].sum())
    return [np.array(bands), np.array(cepstra), np.array(entropies),
            np.array(energies)]


def _oracle_tracks(num_frames=110, first_frame=37):
    """Seeded random walk with a static head and a right hand that sits
    on the right wrist for a stretch (a zero-length segment)."""
    pos = _random_walk_positions(num_frames, seed=21)
    pos[PARTS.index("head")] = pos[PARTS.index("head"), :1]
    pos[PARTS.index("r_hand"), 30:70] = pos[PARTS.index("r_wrist"), 30:70]
    return JointTrackSet(pos, first_frame)


@pytest.mark.parametrize("kind,lengths", [("bm", (3, 20, 50, 100)),
                                          ("fft", (2, 3, 20, 50, 100))])
def test_descriptors_match_per_window_oracle(kind, lengths):
    tracks = _oracle_tracks()
    oracle = {"bm": _oracle_bm, "fft": _oracle_fft}[kind]
    first, last = tracks.frame_range
    checked = 0
    for center in range(first, last + 1):
        rec = pose_frame_features(tracks, center, lengths, kind)
        for L in lengths:
            fits = (center - L // 2 >= first
                    and center - L // 2 + L - 1 <= last)
            assert (L in rec) == fits
            if not fits:
                continue
            names = BM_SUBFEATURES if kind == "bm" else FFT_SUBFEATURES
            assert [sf.name for sf in rec[L]] == [n for n, _ in names]
            for sf, want in zip(rec[L], oracle(tracks, center, L)):
                assert sf.values.shape == want.shape
                np.testing.assert_allclose(sf.values, want, rtol=1e-12,
                                           atol=1e-12, err_msg=sf.name)
            checked += 1
    assert checked == sum(len(tracks.positions[0]) - L + 1 for L in lengths)


def test_descriptor_oracle_covers_degenerate_geometry():
    tracks = _oracle_tracks()
    pos = _oracle_window(tracks, 37 + 50, 20)
    # static head: no velocity mass; zero-length r_wrist-r_hand segment
    assert np.all(_window(tracks, 37 + 50, 20)[0].values[:8] == 0)
    assert np.all(_oracle_part(pos, "r_hand") == _oracle_part(pos, "r_wrist"))
    r_wrist_angle = _window(tracks, 37 + 50, 20)[4].values[4 * 5:5 * 5]
    assert np.all(r_wrist_angle == 0)


def _offset_hist(bins, weights):
    """8-bin weighted histogram of each row of (rows, n) bin indices,
    concatenated row by row."""
    rows = bins.shape[0]
    flat = (bins + 8 * np.arange(rows)[:, None]).ravel()
    return np.bincount(flat, weights=weights.ravel(), minlength=8 * rows)


def _former_direction_hists(vectors):
    theta = np.arctan2(vectors[..., 1], vectors[..., 0])
    bins = np.floor((theta + np.pi / 8) / (np.pi / 4)).astype(int) % 8
    return _offset_hist(bins, np.linalg.norm(vectors, axis=-1))


def _former_row_stats(x):
    s = np.sort(x, axis=1)
    n = x.shape[1]
    median = (s[:, (n - 1) // 2] + s[:, n // 2]) / 2
    return np.stack([x.mean(axis=1), median, x.std(axis=1),
                     s[:, 0], s[:, -1]], axis=1).ravel()


def _former_angles(inner, end_a, end_b):
    va = end_a - inner
    vb = end_b - inner
    na = np.linalg.norm(va, axis=-1)
    nb = np.linalg.norm(vb, axis=-1)
    ok = (na > 0) & (nb > 0)
    ang = np.zeros(inner.shape[:-1])
    cosv = (va[ok] * vb[ok]).sum(axis=-1) / (na[ok] * nb[ok])
    ang[ok] = np.arccos(np.clip(cosv, -1.0, 1.0))
    return ang


def _former_bm_feature(tracks, center_frame, length):
    """The bm descriptor of one window as it was written with np.diff,
    np.linalg.norm, np.stack, x.mean and x.std: the bit-for-bit oracle of
    the bm blocks."""
    pos = _oracle_window(tracks, center_frame, length)
    vel = np.diff(pos, axis=1)
    acc = np.diff(vel, axis=1)
    dist = np.linalg.norm(pos[_PAIR_IDX[0]] - pos[_PAIR_IDX[1]], axis=-1)
    deltas = np.diff(dist, axis=1)
    rate_bins = np.searchsorted(RATE_EDGES[1:-1], deltas, side="right")
    ang = _former_angles(*pos[_TRIPLE_IDX])
    return [_former_direction_hists(vel), _former_direction_hists(acc),
            _former_row_stats(dist),
            _offset_hist(rate_bins, np.abs(deltas)),
            _former_row_stats(ang),
            _former_row_stats(np.abs(np.diff(ang, axis=1)))]


def _former_fft_feature(tracks, center_frame, length):
    """The fft descriptor as it was written one window at a time: the
    bit-for-bit oracle of the blocked transforms."""
    pos = _oracle_window(tracks, center_frame, length)
    x = pos[_ARM_IDX].transpose(0, 2, 1).reshape(-1, length)  # (16, L)
    x = x - x.mean(axis=1, keepdims=True)
    mag = np.abs(np.fft.rfft(x, axis=1))
    power = mag ** 2
    bands = np.stack([power[:, lo:hi].sum(axis=1) for lo, hi in FFT_BANDS],
                     axis=1)
    cep = np.fft.irfft(np.log(mag + FFT_LOG_EPS), n=length, axis=1)
    total = power.sum(axis=1, keepdims=True)
    p = np.divide(power, total, out=np.zeros_like(power), where=total > 0)
    plogp = p * np.log(p, out=np.zeros_like(p), where=p > 0)
    return [bands.ravel(), cep[:, :FFT_NUM_CEPSTRA].ravel(),
            -plogp.sum(axis=1), power[:, 1:].sum(axis=1)]


def _edge_segment_tracks(num_frames=90):
    """Random walk whose right hand sits on the right wrist for the first
    and the last five frames: zero-length segments and a zero distance
    that touch both ends of the track."""
    pos = _random_walk_positions(num_frames, seed=8)
    wrist, hand = PARTS.index("r_wrist"), PARTS.index("r_hand")
    pos[hand, :5] = pos[wrist, :5]
    pos[hand, -5:] = pos[wrist, -5:]
    return JointTrackSet(pos, first_frame=4)


_FORMER_TRACKS = {
    "oracle": _oracle_tracks(),             # static head, zero-length segment
    "walk-3": _random_walk_tracks(140, seed=3),
    "walk-4": _random_walk_tracks(120, seed=4, first_frame=9),
    "static": _static_tracks(110),
    "three-frames": _random_walk_tracks(3, seed=5, first_frame=2),
    "edge-segments": _edge_segment_tracks(),
}


@pytest.mark.parametrize("tracks", list(_FORMER_TRACKS.values()),
                         ids=list(_FORMER_TRACKS))
def test_bm_feature_matches_former_bit_for_bit(tracks):
    # the odd length 51 and the whole track (L = T) besides the usual ones
    lengths = sorted({3, 20, 50, 51, 100, tracks.num_frames})
    first, last = tracks.frame_range
    checked = 0
    for center in range(first, last + 1):
        for L, feats in pose_frame_features(tracks, center, lengths).items():
            for sf, want in zip(feats, _former_bm_feature(tracks, center, L)):
                # tobytes: the sign of zero counts too
                assert sf.values.tobytes() == want.tobytes(), (center, L,
                                                               sf.name)
            checked += 1
    assert checked == sum(max(tracks.num_frames - L + 1, 0) for L in lengths)


_FORMER_FNS = {"bm": _former_bm_feature, "fft": _former_fft_feature}
_MIN_LENGTH = {"bm": 3, "fft": 2}


def _visits(tracks, order):
    """(kind, center, length) of every window of both kinds at lengths 2,
    3, 20, 51, 100 and T that fits, in one of three orders."""
    first, last = tracks.frame_range
    lengths = sorted({2, 3, 20, 51, 100, tracks.num_frames})
    # centre by centre, every length and kind in turn
    windows = [(kind, center, L)
               for center in range(first, last + 1)
               for L in lengths
               for kind in ("bm", "fft")
               if L >= _MIN_LENGTH[kind] and first <= center - L // 2
               and center - L // 2 + L - 1 <= last]
    if order == "interleaved":
        return windows
    by_key = sorted(windows, key=lambda w: (w[0], w[2], w[1]))
    return by_key if order == "ascending" else by_key[::-1]


@pytest.mark.parametrize("order", ["ascending", "descending", "interleaved"])
@pytest.mark.parametrize("name", [*_FORMER_TRACKS, "long"])
def test_descriptor_blocks_match_former_bit_for_bit(name, order):
    # a fresh set, so that each order starts from an empty memo; the long
    # track has more than two blocks of centres at lengths 2 to 51
    source = (_random_walk_tracks(200, seed=9, first_frame=11)
              if name == "long" else _FORMER_TRACKS[name])
    tracks = JointTrackSet(source.positions, source.first_frame)
    visits = _visits(tracks, order)
    for kind, center, L in visits:
        feats = _window(tracks, center, L, kind)
        want = _FORMER_FNS[kind](tracks, center, L)
        assert len(feats) == len(want)
        for sf, values in zip(feats, want):
            # tobytes: the sign of zero counts too
            assert sf.values.tobytes() == values.tobytes(), (kind, center, L,
                                                             sf.name)
    T = tracks.num_frames
    assert len(visits) == sum(max(T - L + 1, 0)
                              for L in {2, 3, 20, 51, 100, T}
                              for kind in _MIN_LENGTH
                              if L >= _MIN_LENGTH[kind])


_BORDER_TRACKS = {
    "short": _random_walk_tracks(40, seed=13, first_frame=13),
    "edge-segments": _edge_segment_tracks(),    # 90 frames from frame 4
}


@pytest.mark.parametrize("kind", ["bm", "fft"])
@pytest.mark.parametrize("name", list(_BORDER_TRACKS))
def test_border_frames_omit_exactly_the_windows_that_leave(name, kind):
    # every centre, both borders and one frame past each: the keys are
    # the lengths whose window fits, no call raises for one that does not
    source = _BORDER_TRACKS[name]
    tracks = JointTrackSet(source.positions, source.first_frame)
    T = tracks.num_frames
    lengths = [L for L in (2, 3, 20, 51, T, T + 1) if L >= _MIN_LENGTH[kind]]
    first, last = tracks.frame_range
    checked = 0
    for center in range(first - 1, last + 2):
        rec = pose_frame_features(tracks, center, lengths, kind)
        fits = [L for L in lengths
                if first <= center - L // 2 and center - L // 2 + L - 1 <= last]
        assert list(rec) == fits, center
        for L in fits:
            want = _FORMER_FNS[kind](tracks, center, L)
            assert len(rec[L]) == len(want)
            for sf, values in zip(rec[L], want):
                assert sf.values.tobytes() == values.tobytes(), (center, L,
                                                                 sf.name)
            checked += 1
    assert checked == sum(T - L + 1 for L in lengths if L <= T)


def test_edge_segment_tracks_touch_both_ends():
    tracks = _edge_segment_tracks()
    r_wrist_angle = ANGLE_TRIPLES.index(("r_wrist", "r_elbow", "r_hand"))
    first, last = tracks.frame_range
    for center in (first + 1, last - 1):
        stats = _window(tracks, center, 3)[4].values
        assert np.all(stats[5 * r_wrist_angle:5 * r_wrist_angle + 5] == 0)


def test_tracks_hold_a_read_only_copy():
    pos = _random_walk_positions(60, seed=6)
    tracks = JointTrackSet(pos)
    with pytest.raises(ValueError, match="read-only"):
        tracks.positions[0, 0, 0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        tracks.positions = pos
    with pytest.raises(dataclasses.FrozenInstanceError):
        tracks.first_frame = 3
    # identity comparison: two sets from one array are distinct copies
    assert tracks == tracks and tracks != JointTrackSet(pos)


def test_mutating_the_source_array_leaves_descriptors_unchanged():
    pos = _random_walk_positions(60, seed=6)
    want = JointTrackSet(pos.copy())
    tracks = JointTrackSet(pos)
    _window(tracks, 30, 20, "fft")
    assert "_motion" not in vars(tracks)        # built on the first bm window
    _window(tracks, 30, 20)
    assert "_motion" in vars(tracks)
    pos[:] = 0.0
    for kind in ("bm", "fft"):
        for center in range(60):
            got = pose_frame_features(tracks, center, (3, 20, 50), kind)
            ref = pose_frame_features(want, center, (3, 20, 50), kind)
            assert got.keys() == ref.keys()
            for L in got:
                for a, b in zip(got[L], ref[L]):
                    assert a.values.tobytes() == b.values.tobytes()


@pytest.mark.parametrize("first_frame", [0.5, 3.0, True, np.bool_(False),
                                         "3", None])
def test_tracks_reject_non_integer_first_frame(first_frame):
    with pytest.raises(ValueError, match="first_frame must be an integer"):
        JointTrackSet(_static_positions(30), first_frame=first_frame)


def test_tracks_accept_numpy_integer_first_frame():
    tracks = JointTrackSet(_static_positions(30), first_frame=np.int64(7))
    assert type(tracks.first_frame) is int and tracks.frame_range == (7, 36)
    assert set(pose_frame_features(tracks, 27, (20,), "bm")) == {20}


@pytest.mark.parametrize("kind", ["bm", "fft"])
@pytest.mark.parametrize("bad", [60.0, np.float64(60.0), True,
                                 np.bool_(True), "60", None])
def test_window_arguments_must_be_integers(kind, bad):
    tracks = _random_walk_tracks(120, seed=2)
    center = f"center_frame must be an integer, got {re.escape(repr(bad))}$"
    length = f"length must be an integer, got {re.escape(repr(bad))}$"
    for lengths in ((20,), ()):
        with pytest.raises(ValueError, match=center):
            pose_frame_features(tracks, bad, lengths, kind)
    with pytest.raises(ValueError, match=length):
        pose_frame_features(tracks, 60, (20, bad), kind)


@pytest.mark.parametrize("kind", ["bm", "fft"])
def test_window_arguments_accept_numpy_integers(kind):
    tracks = _random_walk_tracks(120, seed=2)
    want = [sf.values.tobytes()
            for sf in _window(tracks, 60, 20, kind)]
    got = pose_frame_features(tracks, np.int64(60), (np.int32(20),), kind)
    assert [sf.values.tobytes() for sf in got[20]] == want
    rec = pose_frame_features(tracks, np.uint16(60), (np.int64(20),), kind)
    assert list(rec) == [20]
    assert [sf.values.tobytes() for sf in rec[20]] == want


def test_descriptor_blocks_are_read_only():
    tracks = _random_walk_tracks(200, seed=10, first_frame=3)
    fresh = JointTrackSet(tracks.positions, tracks.first_frame)
    lengths = (3, 20, 51)
    for kind in ("bm", "fft"):
        for sf in _window(tracks, 100, 20, kind):
            with pytest.raises(ValueError, match="read-only"):
                sf.values[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                sf.values *= 2.0
            with pytest.raises(ValueError):
                sf.values.flags.writeable = True
    assert all(not block.flags.writeable
               for _, block, _ in tracks._blocks.values())
    for kind in ("bm", "fft"):
        for center in range(3, 203):
            got = pose_frame_features(tracks, center, lengths, kind)
            want = pose_frame_features(fresh, center, lengths, kind)
            assert got.keys() == want.keys()
            for L in got:
                for a, b in zip(got[L], want[L]):
                    assert a.values.tobytes() == b.values.tobytes()


def _record_block_builds(monkeypatch):
    """Wrap the block builders; returns the list that each build appends
    its (kind, length, start) and a weak reference to its block to."""
    builds = []
    for kind, build in posefeat._BLOCK_FNS.items():
        def recording(tracks, length, start, count, kind=kind, build=build):
            block = build(tracks, length, start, count)
            builds.append((kind, length, start, weakref.ref(block)))
            return block
        monkeypatch.setitem(posefeat._BLOCK_FNS, kind, recording)
    return builds


def test_frame_ordered_walk_builds_one_block_per_block_of_centres(
        monkeypatch):
    builds = _record_block_builds(monkeypatch)
    tracks = _random_walk_tracks(300, seed=11, first_frame=5)
    # one call builds the one block of aligned centres that holds it
    _window(tracks, 5 + 150 + 10, 20)        # offset 150
    assert [b[:3] for b in builds] == [("bm", 20, 128)]
    assert len(tracks._blocks["bm", 20][1]) == _DESCRIPTOR_BLOCK
    _window(tracks, 5 + 138 + 10, 20)        # offset 138, same block
    assert len(builds) == 1
    builds.clear()
    lengths = (3, 20, 51, 100, 300)
    tracks = JointTrackSet(tracks.positions, tracks.first_frame)
    for center in range(5, 305):
        for kind in ("bm", "fft"):
            pose_frame_features(tracks, center, lengths, kind)
    want = [(kind, L, _DESCRIPTOR_BLOCK * b)
            for kind in ("bm", "fft") for L in lengths
            for b in range(math.ceil((300 - L + 1) / _DESCRIPTOR_BLOCK))]
    assert sorted(b[:3] for b in builds) == sorted(want)
    assert len(builds) == 38


def test_long_walk_holds_one_block_per_kind_and_length(monkeypatch):
    builds = _record_block_builds(monkeypatch)
    tracks = _random_walk_tracks(20_000, seed=12)
    tracks._motion                  # the track's own per-frame tables
    tracemalloc.start()
    try:
        # every eighth centre still visits every block of 64
        for center in range(0, tracks.num_frames, 8):
            for kind in ("bm", "fft"):
                pose_frame_features(tracks, center, (20,), kind)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(builds) == 2 * math.ceil((20_000 - 20 + 1) / _DESCRIPTOR_BLOCK)
    memo = tracks._blocks
    assert sorted(memo) == [("bm", 20), ("fft", 20)]
    alive = [id(ref()) for *_, ref in builds if ref() is not None]
    assert sorted(alive) == sorted(id(block) for _, block, _ in memo.values())
    # a memo of every block would hold about 110 MB of rows here
    assert held - sum(block.nbytes for _, block, _ in memo.values()) < 4e6
    assert peak < 8e6


# ---------------------------------------------------------------------------
# codebooks and encoding

def test_build_codebook_two_well_separated_clusters():
    rng = np.random.default_rng(6)
    samples = np.concatenate([rng.normal(0.0, 0.05, (12, 1)),
                              rng.normal(10.0, 0.05, (12, 1))])
    cb = build_codebook("toy", samples, seed=0)
    assert cb.size == 2
    assert sorted(np.round(cb.centers[:, 0], 1)) == pytest.approx([0.0, 10.0],
                                                                  abs=0.2)


def test_build_codebook_deterministic():
    rng = np.random.default_rng(7)
    samples = rng.normal(size=(40, 3))
    c1 = build_codebook("toy", samples, seed=3)
    c2 = build_codebook("toy", samples, seed=3)
    assert np.array_equal(c1.centers, c2.centers)


def test_build_codebook_errors():
    with pytest.raises(ValueError):
        build_codebook("toy", np.zeros((3, 2)))  # fewer samples than k=4
    with pytest.raises(ValueError):
        build_codebook("toy", np.ones((10, 1)))  # identical samples


def test_build_codebook_rejects_overflowing_samples():
    # finite, but the squared distances overflow: unchecked, k-means
    # clusters inf and NaN distances and returns centres that quantize
    # every row to 3 of the 8 words
    X = 1e155 * np.random.default_rng(0).normal(size=(60, 4))
    with pytest.raises(ValueError, match="overflow"):
        build_codebook("toy", X)
    # each distance is finite, but the seeding's sum of them overflows
    X = 1e153 * np.random.default_rng(0).normal(size=(60, 4))
    with pytest.raises(ValueError, match="overflow"):
        build_codebook("toy", X)
    assert build_codebook("toy", X * 1e-3).size == 8


def test_quantize_rejects_overflowing_samples_and_centers():
    rng = np.random.default_rng(1)
    cb = Codebook("toy", rng.normal(size=(8, 4)), seed=0)
    with pytest.raises(ValueError, match="overflow"):
        quantize(cb, 1e155 * rng.normal(size=(60, 4)))
    with pytest.raises(ValueError, match="overflow"):
        quantize(cb, np.full((3, 4), np.nan))
    # the centres are checked where a Codebook is made
    with pytest.raises(ValueError, match="overflow"):
        Codebook("toy", 1e155 * rng.normal(size=(8, 4)), seed=0)
    X = 1e150 * rng.normal(size=(60, 4))
    assert np.array_equal(quantize(Codebook("toy", X[:8], 0), X[:8]),
                          np.arange(8))


def test_kmeans_inertia_non_increasing():
    from actkit.posefeat import _kmeans
    rng = np.random.default_rng(8)
    for trial in range(5):
        samples = rng.normal(size=(60, 4))
        _, history = _kmeans(samples, 8, seed=trial)
        for a, b in zip(history, history[1:]):
            assert b <= a * (1 + 1e-9) + 1e-9


def _former_kmeans_pp_init(samples, k, rng):
    """k-means++ seeding as it was written with Generator.choice."""
    n = samples.shape[0]
    centers = np.empty((k, samples.shape[1]))
    centers[0] = samples[rng.integers(n)]
    d2 = ((samples - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[j] = samples[rng.integers(n)]
            continue
        centers[j] = samples[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((samples - centers[j]) ** 2).sum(axis=1))
    return centers


def _former_kmeans(samples, k, seed, max_iter=100, tol=1e-6,
                   add_at=False):
    """Lloyd iterations as they were written, one masked mean per live
    cluster: the oracle of posefeat._kmeans.  With add_at, each live
    centre is the np.add.at row-order sum over its count instead, the
    oracle for one-column samples, whose masked mean sums pairwise."""
    from actkit.posefeat import _pairwise_sq
    rng = np.random.default_rng(seed)
    centers = _former_kmeans_pp_init(samples, k, rng)
    history = []
    prev = None
    for _ in range(max_iter):
        d2 = _pairwise_sq(samples, centers)
        assign = d2.argmin(axis=1)
        mind2 = d2[np.arange(len(samples)), assign]
        inertia = float(mind2.sum())
        history.append(inertia)
        counts = np.bincount(assign, minlength=k)
        taken = mind2.copy()
        for j in np.flatnonzero(counts == 0):
            far = int(taken.argmax())
            centers[j] = samples[far]
            taken[far] = -1.0
        if add_at:
            sums = np.zeros_like(centers)
            np.add.at(sums, assign, samples)
            live = counts > 0
            centers[live] = sums[live] / counts[live, None]
        else:
            for j in np.flatnonzero(counts > 0):
                centers[j] = samples[assign == j].mean(axis=0)
        if prev is not None and prev > 0 and (prev - inertia) / prev < tol:
            break
        prev = inertia
    return centers, history


def _kmeans_blocks():
    # samples of two or more columns: a one-column mean sums its column
    # pairwise, so only there may the last bit differ (every pose
    # sub-feature has at least two columns)
    rng = np.random.default_rng(10)
    for trial in range(12):
        n, d = int(rng.integers(8, 80)), int(rng.integers(2, 9))
        yield f"random-{trial}", rng.normal(size=(n, d)), n // 3
    # many repeated rows: clusters empty and are re-seeded
    base = rng.normal(size=(5, 4))
    yield "duplicates", base[rng.integers(0, 5, 60)], 12
    for trial in range(4):
        X = rng.normal(size=(40, 3))
        X[rng.random(X.shape) < 0.4] = -0.0
        X[:, 0] = -0.0                    # a whole column of negative zeros
        yield f"negative-zeros-{trial}", X, 10
    # all points on 2 sites: after two centres every distance is zero
    yield "zero-distance", np.repeat(rng.normal(size=(2, 3)), 10, axis=0), 6
    X = rng.normal(size=(15, 4))
    yield "n-equals-k", X, 15
    # pose-block shape: sparse non-negative histograms, k = 2 x dim
    X = rng.random((90, 24))
    X[X < 0.6] = 0.0
    yield "sparse-histograms", X, 48
    # k close to n on repeated and all-zero histogram rows: most seeding
    # rows settle at distance 0, so the seeding recompacts several times
    base = rng.random((90, 40))
    base[base < 0.7] = 0.0
    base[rng.random(90) < 0.2] = 0.0
    yield "settling-histograms", base[rng.integers(0, 90, 120)], 80
    # a settled row is exactly 0, not merely small: the same rows at a
    # scale where every distance is tiny
    X = base[rng.integers(0, 90, 120)] * 1e-5
    yield "settling-tiny", X, 80
    # near both ends of the float range; at 1e-160 every product and
    # squared distance is subnormal, so the seeding's bound test rests
    # on its absolute term.  Rows at d2 = 0 must stay exactly 0 there.
    for scale in (1e150, 1e-150, 1e-160):
        yield f"scaled-{scale:g}", rng.normal(size=(40, 4)) * scale, 10
        X = np.repeat(rng.normal(size=(2, 3)), 10, axis=0) * scale
        yield f"zero-distance-{scale:g}", X, 6
    # distances of a few subnormal units, on rows of normal numbers:
    # only the bound's absolute term keeps the rows that these lower
    for trial in range(3):
        yield (f"subnormal-distances-{trial}",
               rng.random((30, 2 + trial)) * 3 * 2.0 ** -537, 12)
    # rows one ulp from another row, which is a centre once drawn: the
    # expanded distance cancels to rounding noise, the exact one does not
    X = rng.normal(size=(6, 5))[rng.integers(0, 6, 50)]
    X[::2] = np.nextafter(X[::2], np.inf)
    yield "one-ulp-apart", X, 12
    # pose-sized block: 431 sparse non-negative rows of 80, k = 160
    X = rng.random((431, 80))
    X[X < 0.7] = 0.0
    yield "pose-sized", X, 160


def _kmeans_one_column_blocks():
    # one column: posefeat._kmeans matches the np.add.at row-order sums
    rng = np.random.default_rng(12)
    for trial in range(4):
        n = int(rng.integers(8, 80))
        yield f"one-column-{trial}", rng.normal(size=(n, 1)), n // 3
    yield "one-column-duplicates", rng.normal(size=(4, 1))[
        rng.integers(0, 4, 40)], 8
    for scale in (1e150, 1e-160):
        yield f"one-column-{scale:g}", rng.normal(size=(30, 1)) * scale, 6


def _assert_former_history(new_h, old_h):
    """The former loop ran on past a fixed point of the centres, where
    _kmeans stops, and only repeated its last inertia there."""
    assert new_h == old_h[:len(new_h)]
    assert set(old_h[len(new_h):]) <= {new_h[-1]}


@pytest.mark.parametrize("name, samples, k", list(_kmeans_blocks()))
def test_kmeans_matches_former_bit_for_bit(name, samples, k):
    from actkit.posefeat import _kmeans
    for seed in range(3):
        new_c, new_h = _kmeans(samples, k, seed)
        old_c, old_h = _former_kmeans(samples, k, seed)
        # tobytes: the sign of zero counts too
        assert new_c.tobytes() == old_c.tobytes()
        _assert_former_history(new_h, old_h)


@pytest.mark.parametrize("name, samples, k",
                         list(_kmeans_one_column_blocks()))
def test_kmeans_one_column_matches_add_at_sums(name, samples, k):
    from actkit.posefeat import _kmeans
    for seed in range(3):
        new_c, new_h = _kmeans(samples, k, seed)
        old_c, old_h = _former_kmeans(samples, k, seed, add_at=True)
        assert new_c.tobytes() == old_c.tobytes()
        _assert_former_history(new_h, old_h)


def test_build_codebook_warns_when_kmeans_stops_unconverged(monkeypatch,
                                                           caplog):
    import actkit.posefeat as pf
    samples = np.random.default_rng(3).normal(size=(60, 4))
    with caplog.at_level(logging.WARNING, logger="actkit.posefeat"):
        build_codebook("toy", samples, seed=2)
    assert caplog.records == []
    monkeypatch.setattr(pf, "KMEANS_MAX_ITER", 1)
    with caplog.at_level(logging.WARNING, logger="actkit.posefeat"):
        book = build_codebook("toy", samples, seed=2)
    [record] = caplog.records
    assert record.name == "actkit.posefeat"
    assert "did not converge within KMEANS_MAX_ITER = 1" in record.getMessage()
    # the warning changes no output
    want, _ = _former_kmeans(samples, 8, 2, max_iter=1)
    assert book.centers.tobytes() == want.tobytes()


def test_kmeans_zero_inertia_logs_nothing(caplog):
    from actkit.posefeat import _kmeans
    # four distinct rows, twice each: every row sits on a centre
    rows = np.random.default_rng(0).normal(size=(4, 2))
    samples = np.repeat(rows, 2, axis=0)
    with caplog.at_level(logging.WARNING, logger="actkit.posefeat"):
        centers, history = _kmeans(samples, 4, 0)
    # the first step is a fixed point: it stops there, not after
    # KMEANS_MAX_ITER steps of zero inertia
    assert history == [0.0] and caplog.records == []
    assert sorted(map(tuple, centers)) == sorted(map(tuple, rows))


def test_kmeans_pp_init_draws_as_choice():
    from actkit.posefeat import _kmeans_pp_init
    for name, samples, k in [*_kmeans_blocks(), *_kmeans_one_column_blocks()]:
        rng_new, rng_old = np.random.default_rng(5), np.random.default_rng(5)
        assert _kmeans_pp_init(samples, k, rng_new).tobytes() \
            == _former_kmeans_pp_init(samples, k, rng_old).tobytes(), name
        # the same number of draws came off both streams
        assert rng_new.random() == rng_old.random()


def test_quantize_matches_brute_force():
    rng = np.random.default_rng(9)
    cb = Codebook("toy", rng.normal(size=(6, 3)), seed=0)
    X = rng.normal(size=(40, 3))
    got = quantize(cb, X)
    want = [int(np.argmin([((x - c) ** 2).sum() for c in cb.centers]))
            for x in X]
    assert np.array_equal(got, want)


def _toy_codebook_set():
    cbs = {
        (20, "toy"): Codebook("toy", np.array([[0.0], [10.0]]), 0),
        (50, "toy"): Codebook("toy", np.array([[0.0], [5.0], [10.0]]), 0),
    }
    return CodebookSet(cbs)


def test_encode_bow_blocks_l1_normalized():
    from actkit.posefeat import SubFeature
    cbs = _toy_codebook_set()
    frames = [
        {20: [SubFeature("toy", np.array([0.2]))],
         50: [SubFeature("toy", np.array([4.9]))]},
        {20: [SubFeature("toy", np.array([9.7]))]},
    ]
    hist = encode_bow(frames, cbs)
    assert hist.values.shape == (5,)
    assert hist.layout == ((20, "toy", 0, 2), (50, "toy", 2, 5))
    assert np.allclose(hist.values[0:2], [0.5, 0.5])
    assert np.allclose(hist.values[2:5], [0.0, 1.0, 0.0])


def test_encode_bow_empty_input_all_zero():
    hist = encode_bow([], _toy_codebook_set())
    assert np.all(hist.values == 0)


def test_encode_bow_missing_codebook():
    from actkit.posefeat import SubFeature
    with pytest.raises(ValueError):
        encode_bow([{20: [SubFeature("other", np.array([1.0]))]}],
                   _toy_codebook_set())


def test_build_codebook_set_block_layout():
    rng = np.random.default_rng(10)
    samples = {
        (20, "a"): rng.normal(size=(10, 2)),
        (20, "b"): rng.normal(size=(10, 1)),
        (50, "a"): rng.normal(size=(10, 2)),
    }
    cbs = build_codebook_set(samples, seed=0)
    layout = cbs.block_layout()
    assert [(L, n) for (L, n, _, _) in layout] == [(20, "a"), (20, "b"), (50, "a")]
    assert cbs.dim == 4 + 2 + 4
    starts = [s for (_, _, s, _) in layout]
    assert starts == [0, 4, 6]


def test_stream_word_counts():
    from actkit.posefeat import SubFeature
    cbs = _toy_codebook_set()
    frames = [2, 5]
    feats = [
        {20: [SubFeature("toy", np.array([0.1]))]},
        {20: [SubFeature("toy", np.array([9.9]))],
         50: [SubFeature("toy", np.array([5.2]))]},
    ]
    counts = stream_word_counts(feats, frames, cbs, num_frames=8)
    assert counts.shape == (8, 5)
    assert counts[2, 0] == 1 and counts[2].sum() == 1
    assert counts[5, 1] == 1 and counts[5, 3] == 1 and counts[5].sum() == 2
    with pytest.raises(ValueError):
        stream_word_counts(feats, [2, 99], cbs, num_frames=8)


def test_stream_word_counts_frames_must_be_integers():
    # a bool frame once counted its words at row 1; a float or string
    # frame raised a bare IndexError or TypeError
    from actkit.posefeat import SubFeature
    cbs = _toy_codebook_set()
    feats = [{20: [SubFeature("toy", np.array([0.1]))]}]
    for bad in (True, 2.0, "2", None):
        with pytest.raises(ValueError, match=f"frame must be an integer, "
                                             f"got {re.escape(repr(bad))}"):
            stream_word_counts(feats, [bad], cbs, num_frames=8)
    for good in (2, np.int32(2), np.int64(2)):
        counts = stream_word_counts(feats, [good], cbs, num_frames=8)
        assert counts[2, 0] == 1 and counts.sum() == 1


@pytest.mark.parametrize("num_frames", [40, 81])
def test_stream_word_counts_rejects_misaligned_frames(num_frames):
    tracks = _oracle_tracks(80, first_frame=0)
    records = _track_records(tracks, lengths=(3,))
    cbs = _small_codebooks(records)
    with pytest.raises(ValueError, match="zip"):
        stream_word_counts(records, range(num_frames), cbs, tracks.num_frames)


def _per_row_word_counts(frame_features, frames, cbs, num_frames):
    """One quantize call per frame and sub-feature."""
    starts = {(L, n): start for (L, n, start, _) in cbs.block_layout()}
    counts = np.zeros((num_frames, cbs.dim))
    for record, frame in zip(frame_features, frames):
        for length, feats in record.items():
            for sf in feats:
                key = (length, sf.name)
                idx = int(quantize(cbs.codebooks[key], sf.values[None, :])[0])
                counts[frame, starts[key] + idx] += 1
    return counts


def _track_records(tracks, lengths=(3, 20, 50)):
    """bm and fft descriptors at every frame of the track."""
    records = []
    for f in range(tracks.num_frames):
        rec = pose_frame_features(tracks, f, lengths, "bm")
        for L, feats in pose_frame_features(tracks, f, lengths, "fft").items():
            rec.setdefault(L, []).extend(feats)
        records.append(rec)
    return records


def _small_codebooks(records):
    """Codebooks of 5 centers (k-means run directly, as build_codebook
    runs it with k = 2 x dim): every block has far more samples."""
    from actkit.posefeat import _kmeans
    samples = {}
    for rec in records:
        for L, feats in rec.items():
            for sf in feats:
                samples.setdefault((L, sf.name), []).append(sf.values)
    return CodebookSet({key: Codebook(key[1], _kmeans(np.array(v), 5, i)[0], i)
                        for i, (key, v) in enumerate(samples.items())})


def test_stream_word_counts_match_per_row_quantize():
    tracks = _oracle_tracks(90, first_frame=0)
    records = _track_records(tracks)
    cbs = _small_codebooks(records)
    # frames visited out of order and one frame listed twice
    frames = list(range(tracks.num_frames))[::-1] + [40]
    records = records[::-1] + [records[40]]
    got = stream_word_counts(records, frames, cbs, tracks.num_frames + 3)
    want = _per_row_word_counts(records, frames, cbs, tracks.num_frames + 3)
    assert np.array_equal(got, want)
    assert got[40].sum() == 2 * sum(len(f) for f in records[-1].values())
    assert np.all(got[tracks.num_frames:] == 0)


def _former_encode_bow(per_frame_features, codebook_set):
    """encode_bow as it was before it summed stream_word_counts: its own
    grouping by block and one quantize call per block."""
    layout = codebook_set.block_layout()
    values = np.zeros(codebook_set.dim)
    samples = {key: [] for key in codebook_set.codebooks}
    for frame_record in per_frame_features:
        for length, feats in frame_record.items():
            for sf in feats:
                key = (length, sf.name)
                if key not in samples:
                    raise ValueError(f"no codebook for block {key!r}")
                samples[key].append(sf.values)
    for (length, name, start, stop) in layout:
        vecs = samples[(length, name)]
        if not vecs:
            continue
        idx = quantize(codebook_set.codebooks[(length, name)], np.array(vecs))
        counts = np.bincount(idx, minlength=stop - start).astype(float)
        values[start:stop] = counts / counts.sum()
    return BowHistogram(values, layout)


def test_encode_bow_matches_former_per_block_code():
    tracks = _oracle_tracks(90, first_frame=0)
    records = _track_records(tracks)
    cbs = _small_codebooks(records)
    # a block that no record reaches, placed between the others
    ghost = (7, "velocity-hist")
    rng = np.random.default_rng(14)
    books = list(cbs.codebooks.items())
    books.insert(3, (ghost, Codebook(ghost[1], rng.normal(size=(4, 80)), 0)))
    cbs = CodebookSet(dict(books))
    blocks = {(L, n): slice(start, stop)
              for (L, n, start, stop) in cbs.block_layout()}
    chunks = [
        records,
        records[::-1],                            # frames out of order
        records[10:40] + [records[25]],           # one frame given twice
        [records[5], records[3], records[5]],     # only length-3 windows
        records[60:61],
    ]
    for chunk in chunks:
        got = encode_bow(chunk, cbs)
        want = _former_encode_bow(chunk, cbs)
        assert got.layout == want.layout
        assert np.array_equal(got.values, want.values)
        assert not got.values[blocks[ghost]].any()
        assert np.array_equal(encode_bow(iter(chunk), cbs).values,
                              want.values)
    short = encode_bow(chunks[3], cbs)
    assert not short.values[blocks[20, "velocity-hist"]].any()
    assert short.values[blocks[3, "velocity-hist"]].sum() == 1.0


def test_encode_bow_counts_through_module_attributes(monkeypatch):
    import actkit.posefeat as pf
    calls = []
    swc, q = pf.stream_word_counts, pf.quantize
    monkeypatch.setattr(pf, "stream_word_counts",
                        lambda *a, **k: calls.append("counts") or swc(*a, **k))
    monkeypatch.setattr(pf, "quantize",
                        lambda *a, **k: calls.append("quantize") or q(*a, **k))
    frames = [{20: [SubFeature("toy", np.array([0.2]))],
               50: [SubFeature("toy", np.array([4.9]))]},
              {20: [SubFeature("toy", np.array([9.7]))]}]
    pf.encode_bow(frames, _toy_codebook_set())
    assert calls == ["counts", "quantize", "quantize"]


def test_stream_word_counts_missing_codebook_matches_encode_bow():
    cbs = _toy_codebook_set()
    feats = [{20: [SubFeature("toy", np.array([0.1]))]},
             {20: [SubFeature("other", np.array([1.0]))]}]
    with pytest.raises(ValueError, match="no codebook for block") as enc:
        encode_bow(feats, cbs)
    with pytest.raises(ValueError, match="no codebook for block") as swc:
        stream_word_counts(feats, [0, 1], cbs, num_frames=2)
    assert str(swc.value) == str(enc.value)


# ---------------------------------------------------------------------------
# file round trips

def test_tracks_csv_round_trip(tmp_path):
    tracks = _random_walk_tracks(12, seed=11, first_frame=7)
    save_tracks_csv(tracks, tmp_path / "t.csv")
    loaded = load_tracks_csv(tmp_path / "t.csv")
    assert loaded.first_frame == 7
    assert np.allclose(loaded.positions, tracks.positions, rtol=1e-8)


def test_tracks_csv_validation(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("frame,part,x,y\n0,head,1,2\n")
    with pytest.raises(ValueError):
        load_tracks_csv(p)  # nine parts missing
    lines = ["frame,part,x,y"]
    for f in (0, 2):  # gap at frame 1
        for part in PARTS:
            lines.append(f"{f},{part},1.0,2.0")
    p2 = tmp_path / "gap.csv"
    p2.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        load_tracks_csv(p2)
    p3 = tmp_path / "neck.csv"
    p3.write_text("\n".join(lines[:11] + ["0,neck,1.0,2.0"]) + "\n")
    with pytest.raises(ValueError, match=r"unknown parts \['neck'\]"):
        load_tracks_csv(p3)


def test_codebook_set_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    samples = {(20, "a"): rng.normal(size=(10, 2)),
               (50, "b"): rng.normal(size=(12, 3))}
    cbs = build_codebook_set(samples, seed=1)
    save_codebook_set(cbs, tmp_path / "cb.npz")
    loaded = load_codebook_set(tmp_path / "cb.npz")
    assert list(loaded.codebooks) == list(cbs.codebooks)
    for key in cbs.codebooks:
        assert np.array_equal(loaded.codebooks[key].centers,
                              cbs.codebooks[key].centers)
        assert loaded.codebooks[key].seed == cbs.codebooks[key].seed
    assert loaded.block_layout() == cbs.block_layout()


def test_codebook_set_loads_without_pickle(tmp_path, monkeypatch):
    rng = np.random.default_rng(13)
    cbs = build_codebook_set({(20, "a"): rng.normal(size=(10, 2))}, seed=2)
    save_codebook_set(cbs, tmp_path / "cb.npz")
    with np.load(tmp_path / "cb.npz", allow_pickle=False) as data:
        assert data["header"].dtype.kind == "U"
    real_load = np.load
    seen = []

    def load_no_pickle(path, *args, **kwargs):
        seen.append(kwargs.get("allow_pickle"))
        kwargs["allow_pickle"] = False
        return real_load(path, *args, **kwargs)

    monkeypatch.setattr(np, "load", load_no_pickle)
    loaded = load_codebook_set(tmp_path / "cb.npz")
    assert seen == [False]
    assert list(loaded.codebooks) == list(cbs.codebooks)
    assert np.array_equal(loaded.codebooks[(20, "a")].centers,
                          cbs.codebooks[(20, "a")].centers)
