"""
Composite activities without composite labels
=============================================

Given per-interval attribute scores, composites can be recognized three
ways: supervised (train on pooled score vectors), zero-shot (weight the
pooled scores by script-mined attribute associations, no composite
labels needed), and zero-shot plus label propagation over a similarity
graph of all sequences.
"""

import numpy as np

from actkit.composites import (
    PstConfig,
    classify_svm,
    pst_scores,
    script_score,
    seq_feature,
)
from actkit.corpus import build_documents, normalize_l1, tfidf_weights
from actkit.metrics import accuracy
from actkit.synth import SyntheticConfig, gen_synthetic

# Heavy attribute noise, and enough videos per composite that the
# sequence graph has meaningful neighbourhoods.
bundle = gen_synthetic(SyntheticConfig(seed=21, noise=3.0,
                                       videos_per_composite=(6, 2, 4)))
composites = bundle.composites
train = bundle.split("train")
test = bundle.split("test")
print(f"{len(bundle.sequences)} sequences, {len(composites)} composites, "
      f"{len(bundle.vocab.entries)} attributes")

# Pool each sequence's interval scores into one vector per sequence.
g_train = np.array([seq_feature(s.scores) for s in train])
g_test = np.array([seq_feature(s.scores) for s in test])
truth = [s.composite for s in test]

# --- supervised route: one-vs-all linear classifiers on pooled scores
scores, report = classify_svm(
    g_train, [s.composite for s in train], g_test, composites)
pred_svm = [composites[i] for i in np.argmax(scores, axis=1)]
print(f"\nsupervised accuracy: {accuracy(truth, pred_svm):.3f}")

# --- zero-shot route: no composite labels, only mined script weights
mined = normalize_l1(tfidf_weights(build_documents(bundle.corpus),
                                   bundle.vocab))
zs = script_score(g_test, mined)          # (num_composites, num_test)
pred_zs = [mined.composites[i] for i in np.argmax(zs, axis=0)]
print(f"zero-shot accuracy (mined weights):   "
      f"{accuracy(truth, pred_zs):.3f}")

# With the generator's planted weights instead of mined ones:
zs_true = script_score(g_test, bundle.true_weights)
pred_true = [composites[i] for i in np.argmax(zs_true, axis=0)]
print(f"zero-shot accuracy (planted weights): "
      f"{accuracy(truth, pred_true):.3f}")

# --- propagation route: spread the zero-shot scores over a k-NN graph
# of all sequences so that similar sequences agree.
everyone = list(bundle.sequences)
pooled = np.array([seq_feature(s.scores) for s in everyone])
table = script_score(pooled, mined)       # (num_composites, num_seq)
labels = np.full(table.shape, -1.0)       # no labeled sequences at all
cfg = PstConfig(alpha=0.75, delta=0.5, k=7)
F = pst_scores(table, labels, pooled, cfg, zero_shot=True)
test_idx = [i for i, s in enumerate(everyone) if s.split == "test"]
pred_pst = [composites[int(np.argmax(F[:, i]))] for i in test_idx]
print(f"propagated zero-shot accuracy:        "
      f"{accuracy(truth, pred_pst):.3f}")

# At this noise level the supervised route overfits its 36 noisy
# training vectors, the mined weights hold up better (scripts are not
# noisy), and propagation on top recovers a few more sequences whose
# own scores are off but whose neighbours scored cleanly.
