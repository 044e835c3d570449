"""
From joint tracks to bag-of-words histograms
============================================

Hand-centric motion descriptors: statistics of how the arm joints move
(velocities, accelerations, pairwise distances, angles) plus spectral
descriptors of the same trajectories.  Window descriptors are quantized
against per-block codebooks and accumulated into histograms.
"""

import numpy as np

from actkit.posefeat import (
    BM_DIM,
    BM_SUBFEATURES,
    FFT_DIM,
    JointTrackSet,
    PARTS,
    bow_dim,
    build_codebook_set,
    encode_bow,
    pose_frame_features,
)

# ---------------------------------------------------------------------------
# a synthetic actor: body at rest, right arm stirring in a circle

rng = np.random.default_rng(0)
num_frames = 400
rest = {
    "head": (100, 20), "torso": (100, 80),
    "r_shoulder": (70, 50), "l_shoulder": (130, 50),
    "r_elbow": (60, 90), "l_elbow": (140, 90),
    "r_wrist": (55, 125), "l_wrist": (145, 125),
    "r_hand": (55, 140), "l_hand": (145, 140),
}
pos = np.empty((len(PARTS), num_frames, 2))
t = np.arange(num_frames)
for p, name in enumerate(PARTS):
    x, y = rest[name]
    pos[p, :, 0] = x + rng.normal(0, 0.5, num_frames)
    pos[p, :, 1] = y + rng.normal(0, 0.5, num_frames)
# the stirring motion lives in the right wrist and hand
for name, radius in (("r_wrist", 12.0), ("r_hand", 15.0)):
    p = PARTS.index(name)
    pos[p, :, 0] += radius * np.cos(2 * np.pi * t / 25)
    pos[p, :, 1] += radius * np.sin(2 * np.pi * t / 25)
tracks = JointTrackSet(pos)

# ---------------------------------------------------------------------------
# one window, both descriptor families

print("sub-feature accounting for one 20-frame window:")
for sf in pose_frame_features(tracks, 200, (20,), "bm")[20]:
    print(f"  {sf.name:<20} {len(sf.values)} dims")
print(f"  total: {BM_DIM} dims "
      f"({len(BM_SUBFEATURES)} blocks)")

fft = np.concatenate([sf.values for sf in
                      pose_frame_features(tracks, 200, (20,), "fft")[20]])
print(f"spectral descriptor: {len(fft)} dims (constant {FFT_DIM})")

# Encoded histogram sizes follow from the per-block codebooks: one
# codebook of size 2 x dim per block, stacked over three window lengths.
print(f"\nencoded sizes: bow_dim({BM_DIM}) = {bow_dim(BM_DIM)}, "
      f"bow_dim({FFT_DIM}) = {bow_dim(FFT_DIM)}")

# ---------------------------------------------------------------------------
# codebooks and histograms (short windows only, to keep this quick)

lengths = (20,)
# the largest block (128 dims) needs at least 256 samples to cluster
frames = list(range(10, num_frames - 10))
records = [pose_frame_features(tracks, f, lengths=lengths) for f in frames]

samples = {}
for record in records:
    for length, feats in record.items():
        for sf in feats:
            samples.setdefault((length, sf.name), []).append(sf.values)
samples = {k: np.array(v) for k, v in samples.items()}

books = build_codebook_set(samples, seed=0)
print(f"\n{len(books.codebooks)} codebooks built; histogram dim {books.dim}")

hist = encode_bow(records, books)
print("per-block histogram mass (each block is L1-normalized):")
for length, name, start, stop in books.block_layout():
    mass = hist.values[start:stop].sum()
    occupied = int((hist.values[start:stop] > 0).sum())
    print(f"  L={length} {name:<20} mass {mass:.3f}, "
          f"{occupied}/{stop - start} words used")
