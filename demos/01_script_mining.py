"""
Mining attribute weights from written instructions
==================================================

Crowd-sourced step-by-step instructions tell us which actions and
objects matter for which composite activity.  This walkthrough builds a
tiny three-scenario corpus by hand, mines tf*idf association weights
from it, and shows how synonym matching changes the picture.
"""

import tempfile

import numpy as np

from actkit.corpus import (
    AttributeVocab,
    ScriptCorpus,
    SynonymLexicon,
    build_documents,
    freq_weights,
    load_weights_csv,
    normalize_l1,
    save_weights_csv,
    tfidf_weights,
)

# One scenario per composite activity; every sequence is one person's
# written instructions, one step per line.
corpus = ScriptCorpus({
    "cucumber-salad": [
        ["wash the cucumber", "peel it", "cut the cucumber into slices",
         "put the slices in a bowl"],
        ["rinse and peel the cucumber", "cut it up", "season the bowl"],
    ],
    "herbal-tea": [
        ["boil water in the kettle", "pour the water into a cup",
         "add the herbs", "let it steep"],
        ["heat water", "pour it over the herbs in your cup"],
    ],
    "toast": [
        ["put bread in the toaster", "wait", "spread butter on the bread"],
        ["toast the bread", "butter it"],
    ],
})

vocab = AttributeVocab.from_pairs([
    ("wash", "activity"), ("peel", "activity"), ("cut", "activity"),
    ("pour", "activity"), ("boil", "activity"), ("spread", "activity"),
    ("cucumber", "object"), ("bowl", "object"), ("kettle", "object"),
    ("cup", "object"), ("bread", "object"), ("butter", "object"),
])

# Scenario documents are the concatenation of all their sequences.
documents = build_documents(corpus)
for sid, tokens in documents.items():
    print(f"{sid}: {len(tokens)} tokens")

# Raw frequencies count every literal mention.  tf*idf additionally
# discounts attributes that appear in many scenarios, which is what
# makes the weights discriminative.
F = freq_weights(documents, vocab)
W = tfidf_weights(documents, vocab)

print("\nmost distinctive attributes per composite (tf*idf):")
for z, comp in enumerate(W.composites):
    top = np.argsort(-W.values[z])[:3]
    row = ", ".join(f"{W.attributes[i]}={W.values[z, i]:.3f}" for i in top
                    if W.values[z, i] > 0)
    print(f"  {comp}: {row}")

# "cut" occurs in just one scenario, so its idf is high; "pour" too.
# An attribute used in every scenario would get weight zero no matter
# how often it is mentioned.

# A lexicon turns on synonym matching: "rinse" counts as "wash" and
# "heat" as "boil".
lexicon = SynonymLexicon({
    ("wash", "verb"): ("rinse",),
    ("boil", "verb"): ("heat",),
    ("cup", "noun"): ("mug",),
})
W_syn = tfidf_weights(documents, vocab, lexicon=lexicon)
i_wash = W.attributes.index("wash")
z_salad = W.composites.index("cucumber-salad")
print(f"\n'wash' weight, literal matching: {W.values[z_salad, i_wash]:.3f}")
print(f"'wash' weight, synonym matching: {W_syn.values[z_salad, i_wash]:.3f}")

# Downstream scoring expects L1-normalized rows.
W_norm = normalize_l1(W_syn)
print("\nrow sums after normalization:", W_norm.values.sum(axis=1))

with tempfile.NamedTemporaryFile(suffix=".csv") as fh:
    save_weights_csv(W_norm, fh.name)
    again = load_weights_csv(fh.name)
print("CSV round trip intact:",
      np.allclose(W_norm.values, again.values, atol=1e-9))
