"""
Finding activities on the timeline
==================================

Detection scans a multi-scale ladder of sliding windows over an
integral histogram of per-frame codebook counts, scores every window
of a ladder level in one call to an attribute classifier, keeps the
scores as columns of one record, and prunes overlaps with non-maximum
suppression.  Segmentation instead merges
adjacent spans whose count histograms look alike.
"""

import numpy as np

from actkit.attributes import TrainConfig, score_intervals, train_linear_ova
from actkit.temporal import (
    build_integral,
    nms,
    score_windows,
    segment_agglomerative,
    window_schedule,
)

rng = np.random.default_rng(2)

# ---------------------------------------------------------------------------
# a 900-frame stream over a 4-word vocabulary with two planted events

T = 900
counts = rng.poisson(0.3, size=(T, 4)).astype(float)
counts[100:220, 0] += rng.poisson(3.0, 120)     # a long word-0 event
counts[600:650, 1] += rng.poisson(4.0, 50)      # a short word-1 event

schedule = window_schedule()
usable = [(s, p) for s, p in schedule if s <= T]
print("window ladder (size, step):", usable)

# ---------------------------------------------------------------------------
# an attribute model for "word-0 activity", trained on toy histograms

X, y = [], []
for _ in range(200):
    h = rng.dirichlet((1, 1, 1, 1))
    X.append(h)
    y.append({"stir"} if h[0] > 0.5 else set())
models = train_linear_ova(np.array(X), y, ("stir",),
                          TrainConfig(epochs=300))

# build_integral also takes the path of a .npy count file, which it
# reads straight into the table's rows
table = build_integral(counts)
# the scorer gets one level's window histograms as rows and returns one
# score per row; the windows come back as columns of one record
windows = score_windows(
    table, lambda H: score_intervals(models, H)[0],
    video="demo", attribute="stir")
print(f"\n{len(windows)} windows scored across {len(usable)} levels")
sizes, per_size = np.unique(windows.ends - windows.starts + 1,
                            return_counts=True)
print("windows per size:", dict(zip(sizes.tolist(), per_size.tolist())))

# suppression ranks the record's arrays; only the kept windows become
# Detection records
kept = nms(windows)
print("after suppression:")
for d in kept[:5]:
    print(f"  frames [{d.start:4d}, {d.end:4d}]  score {d.score:+.2f}")
best = kept[0]
print(f"top detection lies inside the planted [100, 220) event: "
      f"{100 <= best.start and best.end < 220}")

# ---------------------------------------------------------------------------
# histogram-based segmentation of the same stream

segments = segment_agglomerative(table, threshold=0.8)
print(f"\n{len(segments)} segments from agglomerative merging:")
for seg in segments:
    print(f"  [{seg.start:4d}, {seg.end:4d}]")
# Merging starts from 60-frame spans, so boundaries snap to the atom
# edges nearest the planted events (around 60/240 and 600/660 here);
# the long background stretches collapse into single segments.
