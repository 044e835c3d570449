"""Synthetic benchmark generator for the full recognition pipeline.

Builds a miniature world of composite activities, each defined by a
planted weight vector over a shared attribute vocabulary (activities
and objects).  From it the generator derives

- a script corpus whose mention counts follow the planted weights,
- videos split into fixed-length intervals with ground truth attribute
  annotations,
- either interval attribute scores (as if classifiers had already run)
  or interval feature vectors to train classifiers on.

Construction guarantees that matter for testing: every composite owns a
private anchor activity that never appears in any other composite's
support, and every video contains each of its composite's support
attributes at least once.  With the noise level at zero this makes
zero-shot transfer from the planted weights exact.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass

import numpy as np

from .attributes import load_annotations, save_annotations
from .corpus import (AttributeVocab, ScriptCorpus, WeightMatrix,
                     load_script_corpus, load_vocab, load_weights_csv,
                     normalize_l1, save_script_corpus, save_vocab,
                     save_weights_csv)
from .tables import (INT, INT_PAIRS, NUMBER, STR, check_records, list_of,
                     names_file, one_of, read_json, read_npy)

INTERVAL_SPAN = 60
MENTION_BUDGET = 10
MAX_OBJECTS_PER_INTERVAL = 3
FILLER_WORDS = ("first", "then", "take", "the", "into", "and",
                "now", "next", "after", "carefully")

SPLITS = ("train", "val", "test")


@dataclass(frozen=True)
class SyntheticConfig:
    num_composites: int = 6
    num_activities: int = 8
    num_objects: int = 12
    videos_per_composite: tuple = (3, 1, 2)      # train / val / test
    t_range: tuple = (8, 12)                     # intervals per video
    support_activities: int = 3
    support_objects: int = 4
    signal: float = 3.0
    noise: float = 0.5
    sequences_per_composite: int = 6             # scripts per composite
    filler_rate: float = 0.6
    seed: int = 0
    mode: str = "scores"                         # or "features"
    feature_dim: int = 32
    background_rate: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "videos_per_composite",
                           tuple(int(v) for v in self.videos_per_composite))
        object.__setattr__(self, "t_range",
                           tuple(int(v) for v in self.t_range))
        if self.num_composites < 2:
            raise ValueError("need at least two composites")
        if self.mode not in ("scores", "features"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if len(self.videos_per_composite) != 3:
            raise ValueError("videos_per_composite must be (train, val, test)")
        if len(self.t_range) != 2:
            raise ValueError("t_range must be (t_min, t_max)")
        if self.videos_per_composite[0] < 1 or self.videos_per_composite[2] < 1:
            raise ValueError("need at least one train and one test video")
        if min(self.videos_per_composite) < 0:
            raise ValueError("video counts cannot be negative")
        t_min, t_max = self.t_range
        if not 1 <= t_min <= t_max:
            raise ValueError("t_range must satisfy 1 <= t_min <= t_max")
        if self.support_activities < 1 or self.support_objects < 1:
            raise ValueError("supports must be non-empty")
        if self.num_activities < self.num_composites:
            raise ValueError("every composite needs its own anchor activity")
        pool = self.num_activities - self.num_composites
        if self.support_activities - 1 > pool:
            raise ValueError(
                f"support_activities = {self.support_activities} needs "
                f"{self.support_activities - 1} shared activities but only "
                f"{pool} are left after reserving anchors")
        if self.support_activities > t_min:
            raise ValueError("videos are too short to cover every support "
                             "activity once")
        if self.support_objects > self.num_objects:
            raise ValueError("not enough objects for the support size")
        if self.support_objects > MAX_OBJECTS_PER_INTERVAL * self.support_activities:
            raise ValueError("support objects cannot be covered at three per "
                             "coverage interval")
        if not (np.isfinite(self.signal) and self.signal > 0):
            raise ValueError("signal must be finite and positive")
        if not (np.isfinite(self.noise) and self.noise >= 0):
            raise ValueError("noise must be finite and non-negative")
        if not 0.0 <= self.filler_rate < 1.0:
            raise ValueError("filler_rate must lie in [0, 1)")
        if not 0.0 <= self.background_rate < 1.0:
            raise ValueError("background_rate must lie in [0, 1)")
        if self.sequences_per_composite < 1:
            raise ValueError("need at least one script per composite")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be positive")


# the kind of each config.json field; a field left out takes its default
_CONFIG_FIELDS = {name: kind._replace(required=False) for kind, names in (
    (INT, "num_composites num_activities num_objects support_activities "
          "support_objects sequences_per_composite seed feature_dim"),
    (NUMBER, "signal noise filler_rate background_rate"),
    (one_of("scores", "features"), "mode"),
    (list_of(INT, "a list of 3 integers", 3), "videos_per_composite"),
    (list_of(INT, "a list of 2 integers", 2), "t_range"))
    for name in names.split()}


@dataclass(eq=False)
class SequenceData:
    """One generated video with its interval ground truth."""

    sequence_id: str
    composite: str
    split: str
    intervals: tuple                 # (start, end) frame pairs
    interval_attributes: tuple       # per interval: tuple of labels
    scores: np.ndarray | None = None       # (n_attrs, T)
    features: np.ndarray | None = None     # (T, feature_dim)

    @property
    def num_intervals(self) -> int:
        return len(self.intervals)


@dataclass
class SyntheticBundle:
    config: SyntheticConfig
    vocab: AttributeVocab
    composites: tuple
    true_weights: WeightMatrix
    corpus: ScriptCorpus
    sequences: tuple

    def split(self, name: str) -> list:
        if name not in SPLITS:
            raise ValueError(f"unknown split {name!r}")
        return [s for s in self.sequences if s.split == name]

    def annotations(self) -> list:
        recs = []
        for seq in self.sequences:
            for (start, end), attrs in zip(seq.intervals,
                                           seq.interval_attributes):
                recs.append({"video": seq.sequence_id, "start_frame": start,
                             "end_frame": end, "attributes": list(attrs),
                             "composite": seq.composite})
        return recs


def _attribute_labels(cfg: SyntheticConfig):
    acts = [f"act{i:02d}" for i in range(cfg.num_activities)]
    objs = [f"obj{i:02d}" for i in range(cfg.num_objects)]
    return acts, objs


def _plant_supports(cfg: SyntheticConfig, rng, acts, objs):
    """Choose per-composite support sets and planted weights.

    Activity anchors are the first num_composites activities, one per
    composite, never shared; the remaining support is drawn from the
    shared pool.  Weights are uniform(0.5, 1.5) on the support and
    L1-normalized.
    """
    shared_pool = acts[cfg.num_composites:]
    supports = []
    for z in range(cfg.num_composites):
        extra = rng.choice(len(shared_pool), size=cfg.support_activities - 1,
                           replace=False)
        sup_acts = [acts[z]] + [shared_pool[i] for i in sorted(extra)]
        picked = rng.choice(len(objs), size=cfg.support_objects,
                            replace=False)
        sup_objs = [objs[i] for i in sorted(picked)]
        supports.append((tuple(sup_acts), tuple(sup_objs)))
    labels = acts + objs
    index = {a: i for i, a in enumerate(labels)}
    values = np.zeros((cfg.num_composites, len(labels)))
    for z, (sa, so) in enumerate(supports):
        for a in sa + so:
            values[z, index[a]] = rng.uniform(0.5, 1.5)
    composites = tuple(f"comp{z:02d}" for z in range(cfg.num_composites))
    weights = normalize_l1(WeightMatrix(values, composites, tuple(labels)))
    return supports, weights


def _gen_scripts(cfg: SyntheticConfig, rng, supports, composites, weights):
    """Scripts whose mention counts track the planted weights.

    Every support attribute is mentioned at least once per sequence;
    MENTION_BUDGET extra mentions are spread multinomially by weight.
    Mentions are chunked into steps of one to three, padded with filler
    words that can never collide with attribute labels.
    """
    scenarios = {}
    for z, comp in enumerate(composites):
        support = list(supports[z][0] + supports[z][1])
        w = np.array([weights.row(comp)[weights.attributes.index(a)]
                      for a in support])
        w = w / w.sum()
        sequences = []
        for _ in range(cfg.sequences_per_composite):
            counts = 1 + rng.multinomial(MENTION_BUDGET, w)
            mentions = [a for a, c in zip(support, counts)
                        for _ in range(int(c))]
            order = rng.permutation(len(mentions))
            mentions = [mentions[i] for i in order]
            steps = []
            pos = 0
            while pos < len(mentions):
                take = int(rng.integers(1, 4))
                tokens = []
                for m in mentions[pos:pos + take]:
                    while rng.random() < cfg.filler_rate:
                        tokens.append(FILLER_WORDS[int(rng.integers(
                            0, len(FILLER_WORDS)))])
                    tokens.append(m)
                steps.append(" ".join(tokens))
                pos += take
            sequences.append(steps)
        scenarios[comp] = sequences
    return ScriptCorpus(scenarios)


def _gen_video(cfg: SyntheticConfig, rng, support, labels, index, prototypes):
    """Interval layout, attribute assignment and observations for one video."""
    sup_acts, sup_objs = support
    T = int(rng.integers(cfg.t_range[0], cfg.t_range[1] + 1))
    S = len(sup_acts)
    intervals = tuple((i * INTERVAL_SPAN, (i + 1) * INTERVAL_SPAN - 1)
                      for i in range(T))
    per_interval = [set() for _ in range(T)]
    # coverage: each support activity once, objects round-robin at most
    # three per coverage interval
    for i, a in enumerate(sup_acts):
        per_interval[i].add(a)
    for j, o in enumerate(sup_objs):
        per_interval[j % S].add(o)
    for t in range(S, T):
        if cfg.background_rate > 0 and rng.random() < cfg.background_rate:
            continue   # background interval: no attributes
        per_interval[t].add(sup_acts[int(rng.integers(0, len(sup_acts)))])
        n_obj = int(rng.integers(1, MAX_OBJECTS_PER_INTERVAL + 1))
        picks = rng.choice(len(sup_objs), size=min(n_obj, len(sup_objs)),
                           replace=False)
        for p in picks:
            per_interval[t].add(sup_objs[int(p)])
    attrs = tuple(tuple(sorted(s)) for s in per_interval)
    n = len(labels)
    if cfg.mode == "scores":
        obs = rng.normal(scale=cfg.noise, size=(n, T)) if cfg.noise > 0 \
            else np.zeros((n, T))
        for t, present in enumerate(attrs):
            for a in present:
                obs[index[a], t] += cfg.signal
        return intervals, attrs, obs, None
    feats = rng.normal(scale=cfg.noise, size=(T, cfg.feature_dim)) \
        if cfg.noise > 0 else np.zeros((T, cfg.feature_dim))
    for t, present in enumerate(attrs):
        for a in present:
            feats[t] += cfg.signal * prototypes[index[a]]
    return intervals, attrs, None, feats


def gen_synthetic(config: SyntheticConfig) -> SyntheticBundle:
    """Generate the full bundle deterministically from config.seed."""
    cfg = config
    rng = np.random.default_rng(cfg.seed)
    acts, objs = _attribute_labels(cfg)
    vocab = AttributeVocab.from_pairs(
        [(a, "activity") for a in acts] + [(o, "object") for o in objs])
    supports, weights = _plant_supports(cfg, rng, acts, objs)
    composites = weights.composites
    corpus = _gen_scripts(cfg, rng, supports, composites, weights)
    labels = list(weights.attributes)
    index = {a: i for i, a in enumerate(labels)}
    prototypes = None
    if cfg.mode == "features":
        prototypes = rng.normal(size=(len(labels), cfg.feature_dim))
        prototypes /= np.linalg.norm(prototypes, axis=1, keepdims=True)
    sequences = []
    for z, comp in enumerate(composites):
        for split, count in zip(SPLITS, cfg.videos_per_composite):
            for v in range(count):
                sid = f"{comp}_{split}{v:02d}"
                intervals, attrs, scores, feats = _gen_video(
                    cfg, rng, supports[z], labels, index, prototypes)
                sequences.append(SequenceData(sid, comp, split, intervals,
                                              attrs, scores, feats))
    return SyntheticBundle(cfg, vocab, composites, weights, corpus,
                           tuple(sequences))


# ---------------------------------------------------------------------------
# co-occurrence benchmark for attribute stacking

def gen_cooccurring_scores(seed: int = 0, num_sequences: int = 10,
                           num_intervals: int = 12, signal: float = 2.0,
                           noise: float = 1.0, weak_fraction: float = 0.2):
    """Score matrices where weak attributes are visible through partners.

    Six attributes in two groups that always fire as a block: {a0, a1,
    a2} and {a3, a4, a5}.  The first attribute of each group gets only
    weak_fraction of the signal, so its direct scores are buried in
    noise, while its two partners are scored cleanly.  A classifier fed
    the leave-one-out co-occurrence vector can therefore recover every
    attribute from its partners.  Returns (score_matrices,
    label_matrices, attribute_labels); one (6, T) pair per sequence.
    """
    rng = np.random.default_rng(seed)
    labels = tuple(f"a{i}" for i in range(6))
    groups = ((0, 1, 2), (3, 4, 5))
    gains = np.array([weak_fraction, 1.0, 1.0] * 2) * signal
    score_mats, label_mats = [], []
    for _ in range(num_sequences):
        truth = np.zeros((6, num_intervals), dtype=int)
        for t in range(num_intervals):
            kind = int(rng.integers(0, 3))
            if kind < 2:
                truth[list(groups[kind]), t] = 1
        scores = rng.normal(scale=noise, size=(6, num_intervals))
        scores += gains[:, None] * truth
        score_mats.append(scores)
        label_mats.append(truth)
    return score_mats, label_mats, labels


# ---------------------------------------------------------------------------
# bundle persistence

def save_bundle(bundle: SyntheticBundle, path) -> None:
    """Write a bundle to a directory, byte-deterministically.

    Layout: config.json, vocab.csv, weights.csv, corpus/, annotations
    .jsonl, sequences.json plus one flat observations.npy holding all
    interval observations concatenated in sequence order.
    """
    os.makedirs(path, exist_ok=True)
    cfg = bundle.config
    with open(os.path.join(path, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")
    save_vocab(bundle.vocab, os.path.join(path, "vocab.csv"))
    save_weights_csv(bundle.true_weights, os.path.join(path, "weights.csv"))
    save_script_corpus(bundle.corpus, os.path.join(path, "corpus"))
    save_annotations(bundle.annotations(),
                     os.path.join(path, "annotations.jsonl"))
    meta = []
    blocks = []
    offset = 0
    for seq in bundle.sequences:
        T = seq.num_intervals
        meta.append({"sequence_id": seq.sequence_id,
                     "composite": seq.composite, "split": seq.split,
                     "intervals": [list(iv) for iv in seq.intervals],
                     "offset": offset, "num_intervals": T})
        if cfg.mode == "scores":
            blocks.append(seq.scores)
        else:
            blocks.append(seq.features.T)    # store (dim, T) column-wise
        offset += T
    with open(os.path.join(path, "sequences.json"), "w",
              encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    np.save(os.path.join(path, "observations.npy"),
            np.concatenate(blocks, axis=1))


@names_file
def load_bundle(path) -> SyntheticBundle:
    """Read a bundle written by save_bundle.  Errors name the file inside
    the bundle directory, and the entry or sequence where there is one;
    the sequences must tile the observation columns, each with
    annotations matching its intervals."""
    def file(name):
        return os.path.join(path, name)

    raw, = check_records([read_json(file("config.json"))], _CONFIG_FIELDS,
                         file("config.json"))
    try:
        cfg = SyntheticConfig(**raw)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{file('config.json')}: {exc}") from None
    vocab = load_vocab(file("vocab.csv"))
    weights = normalize_l1(load_weights_csv(file("weights.csv")))
    if weights.attributes != vocab.labels:
        raise ValueError(f"{file('weights.csv')}: attributes differ from "
                         "the vocab labels")
    corpus = load_script_corpus(file("corpus"))
    meta = read_json(file("sequences.json"), {
        "sequence_id": STR, "composite": STR, "split": one_of(*SPLITS),
        "intervals": INT_PAIRS, "offset": INT, "num_intervals": INT})
    obs = read_npy(file("observations.npy"))
    rows = len(vocab) if cfg.mode == "scores" else cfg.feature_dim
    if obs.ndim != 2 or obs.shape[0] != rows:
        raise ValueError(f"{file('observations.npy')}: shape {obs.shape}, "
                         f"expected {rows} rows in {cfg.mode} mode")
    if not np.isfinite(obs).all():
        raise ValueError(f"{file('observations.npy')}: non-finite values")
    ann = load_annotations(file("annotations.jsonl"))
    by_video = {}
    for rec in ann:
        by_video.setdefault(rec["video"], []).append(rec)
    sequences = []
    offset = 0
    for m in meta:
        sid, T = m["sequence_id"], m["num_intervals"]
        if m["offset"] != offset or offset + T > obs.shape[1]:
            raise ValueError(f"{file('sequences.json')}: sequence {sid!r} "
                             f"covers columns [{m['offset']}, "
                             f"{m['offset'] + T}), expected to start at "
                             f"{offset} within {obs.shape[1]}")
        block = obs[:, offset:offset + T]
        offset += T
        recs = sorted(by_video.pop(sid, []), key=lambda r: r["start_frame"])
        intervals = tuple(tuple(iv) for iv in m["intervals"])
        if len(recs) != T or tuple((r["start_frame"], r["end_frame"])
                                   for r in recs) != intervals:
            raise ValueError(f"{file('annotations.jsonl')}: sequence "
                             f"{sid!r} has {len(recs)} annotations that do "
                             f"not match its {T} intervals")
        attrs = tuple(tuple(r["attributes"]) for r in recs)
        data = {"scores": block.copy()} if cfg.mode == "scores" \
            else {"features": block.T.copy()}
        sequences.append(SequenceData(sid, m["composite"], m["split"],
                                      intervals, attrs, **data))
    if by_video:
        raise ValueError(f"{file('annotations.jsonl')}: video "
                         f"{next(iter(by_video))!r} is not in sequences.json")
    if offset != obs.shape[1]:
        raise ValueError(f"{file('observations.npy')}: {obs.shape[1]} "
                         f"columns, but the sequences cover {offset}")
    return SyntheticBundle(cfg, vocab, weights.composites, weights, corpus,
                           tuple(sequences))
