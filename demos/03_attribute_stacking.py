"""
Rescoring attributes from their co-occurrences
==============================================

Attribute detectors are noisy, but attributes do not fire in isolation:
stirring implies a spoon, frying implies a pan.  A second-level
classifier fed the scores of all *other* attributes can therefore
rescue an attribute whose own detector is weak.
"""

import numpy as np

from actkit.attributes import train_and_score_stacked
from actkit.metrics import average_precision
from actkit.synth import gen_cooccurring_scores

# Planted structure: two groups of three attributes that always fire
# together.  The first attribute of each group gets only 20% of the
# signal, so its raw scores are nearly useless.
score_mats, label_mats, labels = gen_cooccurring_scores(
    seed=1, num_sequences=14, num_intervals=20)

sets = [[{labels[i] for i in range(len(labels)) if L[i, t]}
         for t in range(L.shape[1])] for L in label_mats]

n_train = 10
refined, _ = train_and_score_stacked(score_mats[:n_train], sets[:n_train],
                                     score_mats[n_train:], labels,
                                     "cooccurrence")

# Per-attribute average precision over the held-out intervals.
print(f"{'attribute':<10} {'base AP':>8} {'stacked AP':>11}")
base_all, stacked_all = [], []
for i, label in enumerate(labels):
    truth = np.concatenate([L[i] for L in label_mats[n_train:]])
    base = average_precision(
        np.concatenate([S[i] for S in score_mats[n_train:]]), truth)
    stacked = average_precision(
        np.concatenate([S[i] for S in refined]), truth)
    marker = "  <- weak detector" if i % 3 == 0 else ""
    print(f"{label:<10} {base:>8.3f} {stacked:>11.3f}{marker}")
    base_all.append(base)
    stacked_all.append(stacked)

print(f"\nmean AP: base {np.mean(base_all):.3f} "
      f"-> stacked {np.mean(stacked_all):.3f}")

# The weak detectors gain the most; the strong ones barely move because
# their partners carry the same information their own scores did.
