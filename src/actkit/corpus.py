"""Mining attribute weights from textual activity scripts.

A script corpus holds, per composite scenario, a set of short textual
sequences (one instruction step per line).  All sequences of a scenario
are concatenated into one token document, attribute labels are counted
in those documents (literally or expanded by a synonym lexicon), and the
counts are turned into frequency or tf*idf weight matrices that link
composites to attributes.
"""

from __future__ import annotations

import hashlib
import logging
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .tables import finite_float, names_file, read_table, write_table

log = logging.getLogger(__name__)

KINDS = ("activity", "object")

# attribute kind -> lexicon part of speech
_KIND_POS = {"activity": "verb", "object": "noun"}

_PUNCT = ".,;:!?()\"'"
_PUNCT_TABLE = str.maketrans({c: None for c in _PUNCT})


def normalize_label(label: str) -> str:
    """Lower-case a label, replace hyphens by spaces, collapse whitespace."""
    return " ".join(label.lower().replace("-", " ").split())


def tokenize_document(raw_text: str) -> list[str]:
    """Tokenize raw script text.

    Lower-cases, splits hyphenated words, strips the punctuation set
    .,;:!?()"' and splits on whitespace.  Empty tokens are dropped, so
    empty or punctuation-only input yields an empty list.
    """
    text = raw_text.lower().replace("-", " ").translate(_PUNCT_TABLE)
    return text.split()


@dataclass(frozen=True)
class AttributeVocab:
    """Ordered attribute vocabulary.

    Attributes:
        entries: tuple of (label, kind) pairs; labels are stored in
            normalized form, are unique, and kind is one of KINDS.
    """

    entries: tuple

    def __post_init__(self):
        seen = set()
        for label, kind in self.entries:
            if kind not in KINDS:
                raise ValueError(f"unknown attribute kind {kind!r} for {label!r}")
            if label != normalize_label(label):
                raise ValueError(f"label {label!r} is not normalized")
            if label in seen:
                raise ValueError(f"duplicate attribute label {label!r}")
            seen.add(label)

    @classmethod
    def from_pairs(cls, pairs) -> "AttributeVocab":
        return cls(tuple((normalize_label(l), k) for l, k in pairs))

    @property
    def labels(self) -> tuple:
        return tuple(label for label, _ in self.entries)

    def content_hash(self) -> str:
        joined = "\n".join(f"{l}\t{k}" for l, k in self.entries)
        return hashlib.sha256(joined.encode("utf-8")).hexdigest()

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


@dataclass
class SynonymLexicon:
    """Synonym lists per (headword, part of speech).

    rows maps (normalized headword, pos) -> tuple of normalized synonyms,
    pos being "verb" or "noun".
    """

    rows: dict = field(default_factory=dict)

    def __post_init__(self):
        for (head, pos), syns in self.rows.items():
            if pos not in ("verb", "noun"):
                raise ValueError(f"bad part of speech {pos!r} for {head!r}")
            if len(set(syns)) != len(syns):
                raise ValueError(f"duplicate synonyms for {head!r}/{pos}")

    def synonyms(self, headword: str, pos: str) -> tuple:
        return self.rows.get((normalize_label(headword), pos), ())


@dataclass
class ScriptCorpus:
    """Raw script corpus: scenario id -> sequences -> step strings."""

    scenarios: dict

    def __post_init__(self):
        for sid, sequences in self.scenarios.items():
            if not sequences:
                raise ValueError(f"scenario {sid!r} has no sequences")
            for si, steps in enumerate(sequences):
                if not any(s.strip() for s in steps):
                    raise ValueError(
                        f"scenario {sid!r} sequence {si} has no non-empty step"
                    )


@dataclass(eq=False)
class WeightMatrix:
    """Composite-by-attribute weight matrix.

    Attributes:
        values: (Z, n) non-negative array.
        composites: tuple of Z composite ids (row labels).
        attributes: tuple of n attribute labels (column labels).
        normalized: True once rows are L1-normalized.
        empty_rows: composite ids whose row is all zero (kept, flagged).
    """

    values: np.ndarray
    composites: tuple
    attributes: tuple
    normalized: bool = False
    empty_rows: tuple = ()

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (len(self.composites), len(self.attributes)):
            raise ValueError("weight matrix shape does not match its labels")
        if not np.isfinite(self.values).all():
            raise ValueError("weight matrix contains non-finite values")
        if (self.values < 0).any():
            raise ValueError("weight matrix contains negative values")

    def row(self, composite: str) -> np.ndarray:
        return self.values[self.composites.index(composite)]


def _label_tokens(label: str) -> tuple:
    return tuple(normalize_label(label).split())


def token_positions(tokens) -> dict:
    """Map each token to the ascending list of its positions in tokens."""
    index = {}
    for i, tok in enumerate(tokens):
        index.setdefault(tok, []).append(i)
    return index


def match_count(label, tokens, lexicon=None, kind=None, index=None) -> int:
    """Count non-overlapping occurrences of an attribute label in tokens.

    Multi-word labels match as contiguous token n-grams; the scan is
    greedy left to right.  When a lexicon is given, its synonyms whose
    part of speech matches the attribute kind (activity -> verb,
    object -> noun) are counted too, longest pattern first, with every
    token position consumed at most once.  Without a lexicon, or for a
    label absent from it, matching is literal.

    Only positions holding some pattern's first token can start a
    match.  They are read from index, the token_positions of tokens
    (built here when not given, so callers counting many labels in one
    document build it once), and walked in order; the count equals
    that of trying every pattern at every position.
    """
    patterns = [_label_tokens(label)]
    if not patterns[0]:
        raise ValueError("empty attribute label")
    if lexicon is not None:
        pos = _KIND_POS.get(kind)
        if pos is not None:
            for syn in lexicon.synonyms(label, pos):
                toks = _label_tokens(syn)
                if toks and toks not in patterns:
                    patterns.append(toks)
    # longest first so multi-word synonyms are preferred over their prefixes
    patterns.sort(key=lambda p: (-len(p), p))
    by_first = {}
    for pat in patterns:
        by_first.setdefault(pat[0], []).append(list(pat))
    toks = tokens if isinstance(tokens, list) else list(tokens)
    if index is None:
        index = token_positions(toks)
    starts = sorted(i for first in by_first for i in index.get(first, ()))
    count = 0
    cursor = 0
    for i in starts:
        if i < cursor:
            continue
        for pat in by_first[toks[i]]:
            if toks[i : i + len(pat)] == pat:
                count += 1
                cursor = i + len(pat)
                break
    return count


def build_documents(corpus: ScriptCorpus) -> dict:
    """Concatenate all sequences of each scenario into one token document.

    A scenario is tokenized in one call, its steps joined by newlines:
    a newline ends every token and, being neither cased nor
    case-ignorable, keeps str.lower's final-sigma rule inside a step,
    so the document equals the concatenated token lists of its steps.
    """
    return {sid: tokenize_document("\n".join(step for steps in seqs
                                             for step in steps))
            for sid, seqs in corpus.scenarios.items()}


def freq_weights(documents, vocab: AttributeVocab,
                 lexicon=None) -> WeightMatrix:
    """Raw attribute match counts per document (unnormalized weights);
    lexicon synonyms count when a lexicon is given.  Each document's
    token_positions are built once and shared by all its labels."""
    comps = tuple(documents.keys())
    values = np.zeros((len(comps), len(vocab)), dtype=float)
    for z, cid in enumerate(comps):
        doc = list(documents[cid])
        index = token_positions(doc)
        for i, (label, kind) in enumerate(vocab):
            values[z, i] = match_count(label, doc, lexicon, kind,
                                       index=index)
    return WeightMatrix(values, comps, vocab.labels)


def tfidf_weights(documents, vocab: AttributeVocab,
                  lexicon=None) -> WeightMatrix:
    """tf*idf weights: count times ln(num documents / document frequency).

    The document frequency of an attribute is the number of documents
    where it matches at least once (same lexicon).  Attributes
    matching nowhere get weight zero instead of a division by zero.
    """
    freq = freq_weights(documents, vocab, lexicon)
    num_docs = len(freq.composites)
    df = (freq.values > 0).sum(axis=0)
    idf = np.zeros(len(vocab))
    nonzero = df > 0
    idf[nonzero] = np.log(num_docs / df[nonzero])
    return replace(freq, values=freq.values * idf[None, :])


def normalize_l1(weights: WeightMatrix) -> WeightMatrix:
    """L1-normalize each row; all-zero rows are kept unchanged and flagged."""
    sums = weights.values.sum(axis=1)
    empty = sums == 0
    safe = np.where(empty, 1.0, sums)
    values = weights.values / safe[:, None]
    empty_rows = tuple(c for c, e in zip(weights.composites, empty) if e)
    if empty_rows:
        log.warning("normalize_l1: all-zero weight rows for %s", empty_rows)
    return replace(weights, values=values, normalized=True, empty_rows=empty_rows)


def binarize_weights(weights: WeightMatrix) -> WeightMatrix:
    """Set non-zero weights to one, then L1-normalize the rows."""
    return normalize_l1(replace(weights, values=(weights.values > 0).astype(float)))


# ---------------------------------------------------------------------------
# file formats

@names_file
def _read_steps(path) -> list:
    with open(path, encoding="utf-8") as fh:
        steps = [line.strip() for line in fh if line.strip()]
    if not steps:
        raise ValueError("no steps")
    return steps


@names_file
def load_script_corpus(path) -> ScriptCorpus:
    """Load a corpus directory: one sub-directory per scenario, one UTF-8
    text file per sequence, one step per line (blank lines ignored)."""
    scenarios = {}
    for sid in sorted(os.listdir(path)):
        sdir = os.path.join(path, sid)
        if not os.path.isdir(sdir):
            continue
        seqs = []
        for fname in sorted(os.listdir(sdir)):
            fpath = os.path.join(sdir, fname)
            if not os.path.isfile(fpath):
                continue
            seqs.append(_read_steps(fpath))
        if not seqs:
            raise ValueError(f"{sdir}: no sequence files")
        scenarios[sid] = seqs
    if not scenarios:
        raise ValueError("no scenario directories")
    return ScriptCorpus(scenarios)


def save_script_corpus(corpus: ScriptCorpus, path) -> None:
    os.makedirs(path, exist_ok=True)
    for sid, seqs in corpus.scenarios.items():
        sdir = os.path.join(path, sid)
        os.makedirs(sdir, exist_ok=True)
        for si, steps in enumerate(seqs):
            with open(os.path.join(sdir, f"seq{si:03d}.txt"), "w",
                      encoding="utf-8") as fh:
                fh.write("\n".join(steps) + "\n")


@names_file
def load_lexicon(path) -> SynonymLexicon:
    """Load a tab-separated lexicon: headword<TAB>pos<TAB>syn1,syn2,..."""
    rows = {}
    with open(path, encoding="utf-8") as fh:
        for ln, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(f"{path}:{ln}: expected 3 tab-separated fields")
            head, pos, syns = parts
            key = (normalize_label(head), pos)
            if key in rows:
                raise ValueError(f"{path}:{ln}: duplicate headword {head!r}/{pos}")
            rows[key] = tuple(
                normalize_label(s) for s in syns.split(",") if s.strip()
            )
    return SynonymLexicon(rows)


def save_weights_csv(weights: WeightMatrix, path) -> None:
    """Write a weight matrix as CSV: header row of attribute labels, one
    row per composite with the composite id in the first column.  Values
    carry 9 significant digits."""
    write_table(path, ([cid] + row for cid, row
                       in zip(weights.composites, weights.values.tolist())),
                ["composite", *weights.attributes])


def _weight(cell) -> float:
    v = finite_float(cell)
    if v < 0:
        raise ValueError(f"negative weight {cell!r}")
    return v


@names_file
def load_weights_csv(path) -> WeightMatrix:
    """Read a weight matrix CSV; a composite id may appear once and
    every weight is finite and non-negative."""
    header, rows = read_table(path, (str, _weight, ...), ("composite",),
                              key=1)
    if not rows:
        raise ValueError("weight matrix has no rows")
    return WeightMatrix([row[1:] for row in rows],
                        tuple(row[0] for row in rows), tuple(header[1:]))


def _kind(cell):
    kind = cell.strip()
    if kind not in KINDS:
        raise ValueError(f"unknown attribute kind {kind!r}")
    return kind


@names_file
def load_vocab(path) -> AttributeVocab:
    """Load an attribute vocabulary CSV with rows label,kind; labels are
    normalized and may appear once."""
    _, rows = read_table(path, (normalize_label, _kind), key=1)
    return AttributeVocab(tuple(rows))


def save_vocab(vocab: AttributeVocab, path) -> None:
    write_table(path, vocab)
