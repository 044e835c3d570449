import math
import random

import numpy as np
import pytest

from actkit import corpus
from actkit.corpus import (
    AttributeVocab,
    ScriptCorpus,
    SynonymLexicon,
    WeightMatrix,
    binarize_weights,
    build_documents,
    freq_weights,
    load_lexicon,
    load_script_corpus,
    load_vocab,
    load_weights_csv,
    match_count,
    normalize_l1,
    save_script_corpus,
    save_vocab,
    save_weights_csv,
    tfidf_weights,
    tokenize_document,
)


def test_tokenize_basic():
    assert tokenize_document("Wash the cucumber.") == ["wash", "the", "cucumber"]


def test_tokenize_hyphen_split():
    assert tokenize_document("cutting-board") == ["cutting", "board"]


def test_tokenize_empty_and_punct_only():
    assert tokenize_document("") == []
    assert tokenize_document("...!?;") == []


def test_tokenize_strips_all_listed_punctuation():
    assert tokenize_document("(pan), \"lid\"; pot: done!") == [
        "pan", "lid", "pot", "done"]


def test_match_count_single_token():
    toks = tokenize_document("wash the cucumber then wash hands")
    assert match_count("wash", toks) == 2


def test_match_count_ngram_non_overlapping():
    toks = ["cut", "apart", "cut", "apart"]
    assert match_count("cut apart", toks) == 2
    # greedy scan consumes positions, occurrences cannot share tokens
    assert match_count("cut apart", ["cut", "apart", "apart"]) == 1


def test_match_count_synonym_mode():
    lex = SynonymLexicon({("wash", "verb"): ("rinse",)})
    toks = ["rinse", "then", "wash"]
    assert match_count("wash", toks, lex, kind="activity") == 2
    # no lexicon means literal matching
    assert match_count("wash", toks, kind="activity") == 1


def test_match_count_synonym_pos_must_match_kind():
    lex = SynonymLexicon({("wash", "noun"): ("rinse",)})
    toks = ["rinse", "then", "wash"]
    # "wash" as activity looks up verbs only, so the noun row is ignored
    assert match_count("wash", toks, lex, kind="activity") == 1


def test_match_count_token_positions_counted_once():
    # synonym equal to the label must not double count
    lex = SynonymLexicon({("wash", "verb"): ("wash", "rinse")})
    assert match_count("wash", ["wash"], lex, kind="activity") == 1


def test_match_count_label_missing_from_lexicon_degrades_to_literal():
    lex = SynonymLexicon({("stir", "verb"): ("mix",)})
    toks = ["mix", "and", "wash"]
    assert match_count("wash", toks, lex, kind="activity") == 1


def test_match_count_monotone_under_appending():
    rng = random.Random(0)
    alphabet = ["wash", "cut", "board", "pan", "stir", "the"]
    lex = SynonymLexicon({("wash", "verb"): ("rinse", "clean up")})
    for _ in range(200):
        toks = [rng.choice(alphabet) for _ in range(rng.randrange(0, 12))]
        extra = [rng.choice(alphabet + ["rinse", "clean", "up"])
                 for _ in range(rng.randrange(0, 6))]
        for label, kind in [("wash", "activity"), ("cut board", "object")]:
            before = match_count(label, toks, lex, kind)
            after = match_count(label, toks + extra, lex, kind)
            assert after >= before


def test_match_count_literal_at_most_synonym():
    rng = random.Random(1)
    lex = SynonymLexicon({("wash", "verb"): ("rinse",), ("pan", "noun"): ("skillet",)})
    words = ["wash", "rinse", "pan", "skillet", "then", "the"]
    for _ in range(200):
        toks = [rng.choice(words) for _ in range(rng.randrange(0, 15))]
        for label, kind in [("wash", "activity"), ("pan", "object")]:
            lit = match_count(label, toks, None, kind)
            syn = match_count(label, toks, lex, kind)
            assert lit <= syn


def _scan_match_count(label, tokens, lexicon=None, kind=None):
    """Oracle: try every pattern, longest first, at every position."""
    patterns = [tuple(corpus.normalize_label(label).split())]
    if lexicon is not None:
        pos = {"activity": "verb", "object": "noun"}.get(kind)
        if pos is not None:
            for syn in lexicon.synonyms(label, pos):
                toks = tuple(corpus.normalize_label(syn).split())
                if toks and toks not in patterns:
                    patterns.append(toks)
    patterns.sort(key=lambda p: (-len(p), p))
    toks = list(tokens)
    count = 0
    i = 0
    while i < len(toks):
        for pat in patterns:
            if tuple(toks[i : i + len(pat)]) == pat:
                count += 1
                i += len(pat)
                break
        else:
            i += 1
    return count


# synonyms that overlap each other ("cut up" / "up the"), are prefixes of
# one another ("cut" / "cut up" / "cut up the"), share a first token with
# the label ("cut board" / "cut"), or equal the label
_ORACLE_LEXICON = SynonymLexicon({
    ("cut", "verb"): ("cut up", "cut up the", "up the", "slice", "cut"),
    ("cut board", "noun"): ("cut", "board", "cutting board", "board cut"),
    ("the board", "noun"): ("board the", "the", "board"),
    ("board", "verb"): ("pan",),
})
_ORACLE_LABELS = [("cut", "activity"), ("cut board", "object"),
                  ("the board", "object"), ("board", "activity"),
                  ("cut up the", "activity"), ("slice", "object"),
                  ("up", "activity")]


@pytest.mark.parametrize("mode", ["literal", "synonym"])
def test_match_count_equals_scan_oracle(mode):
    rng = random.Random(5)
    alphabet = ["cut", "up", "the", "board", "slice", "cutting", "pan", "x"]
    docs = [[], ["cut"], ["cut", "up", "the"], ["the", "board", "the"]]
    docs += [[rng.choice(alphabet) for _ in range(rng.randrange(0, 40))]
             for _ in range(300)]
    lex = _ORACLE_LEXICON if mode == "synonym" else None
    for toks in docs:
        for label, kind in _ORACLE_LABELS:
            want = _scan_match_count(label, toks, lex, kind)
            assert match_count(label, toks, lex, kind) == want, \
                (label, mode, toks)
            assert match_count(label, iter(toks), lex, kind) == want


def test_match_count_scan_oracle_edge_cases():
    lex = _ORACLE_LEXICON
    cases = [
        ("cut", ["x", "cut", "up"], 1),            # match at the very end
        ("cut", ["cut", "up", "the", "up", "the"], 2),
        ("cut", ["up", "cut", "up", "the"], 1),
        ("cut board", ["cutting", "board", "cut"], 2),
        ("the board", ["board", "the", "board"], 2),
        ("the board", [], 0),
    ]
    for label, toks, want in cases:
        kind = dict(_ORACLE_LABELS)[label]
        assert _scan_match_count(label, toks, lex, kind) == want
        assert match_count(label, toks, lex, kind) == want
        assert match_count(label, (t for t in toks), lex, kind) == want


def _oracle_documents(rng, n):
    alphabet = ["cut", "up", "the", "board", "slice", "cutting", "pan", "x"]
    return {f"d{d}": [rng.choice(alphabet)
                      for _ in range(rng.randrange(0, 60))]
            for d in range(n)}


@pytest.mark.parametrize("mode", ["literal", "synonym"])
def test_weights_equal_scan_oracle(mode):
    rng = random.Random(11)
    lex = _ORACLE_LEXICON if mode == "synonym" else None
    vocab = AttributeVocab.from_pairs(_ORACLE_LABELS)
    for n in (1, 2, 5, 12):
        docs = _oracle_documents(rng, n)
        want = np.array([[_scan_match_count(label, doc, lex, kind)
                          for label, kind in vocab] for doc in docs.values()],
                        dtype=float).reshape(n, len(vocab))
        assert np.array_equal(freq_weights(docs, vocab, lex).values, want)
        once = {cid: iter(doc) for cid, doc in docs.items()}
        assert np.array_equal(freq_weights(once, vocab, lex).values, want)
        df = (want > 0).sum(axis=0)
        idf = np.array([np.log(n / d) if d else 0.0 for d in df])
        assert np.array_equal(tfidf_weights(docs, vocab, lex).values,
                              want * idf)


@pytest.mark.parametrize("mode", ["literal", "synonym"])
def test_match_count_given_index_equals_its_own(mode):
    rng = random.Random(13)
    lex = _ORACLE_LEXICON if mode == "synonym" else None
    for toks in _oracle_documents(rng, 100).values():
        index = corpus.token_positions(toks)
        assert all(index[t] == [i for i, u in enumerate(toks) if u == t]
                   for t in toks)
        for label, kind in _ORACLE_LABELS:
            assert match_count(label, toks, lex, kind, index=index) == \
                match_count(label, toks, lex, kind)


def test_build_documents_equals_tokenized_steps():
    # final sigma: "Σ" lower-cases to "ς" after a cased letter unless a
    # cased letter follows, so steps ending or starting with it would
    # change if their neighbours' letters leaked into the rule
    fixed = [["ΟΔΟΣ", "Σοφια", "", "...", "-", "ΑΣ", "Σ", "ab-Σ", "Σ-ab"],
             ["x ΑΣ'", "'Σα", "(ΑΣ)", "!?", "  ", "cut-up the board."]]
    pieces = ["Cut", "the", "board", "-", "x-ray", "...", "!", "Σ", "ΑΣ",
              "ΣΑ", "ς", "'", "(", ")", "up", "Ά", "Wash,", "\t", ""]
    rng = random.Random(17)
    scenarios = {"fixed": fixed}
    for z in range(20):
        scenarios[f"s{z}"] = [
            ["".join(rng.choice(pieces) + rng.choice(["", " ", "-", "  "])
                     for _ in range(rng.randrange(0, 6)))
             for _ in range(rng.randrange(1, 6))] + ["step"]
            for _ in range(rng.randrange(1, 4))]
    docs = build_documents(ScriptCorpus(scenarios))
    assert list(docs) == list(scenarios)
    for sid, seqs in scenarios.items():
        assert docs[sid] == [tok for steps in seqs for step in steps
                             for tok in tokenize_document(step)]
    assert docs["fixed"][:2] == ["οδος", "σοφια"]
    assert "ας" in docs["fixed"] and "σ" in docs["fixed"]


def _toy_documents():
    # three composites; "board" appears in two documents
    corpus_obj = ScriptCorpus({
        "salad": [["wash the cucumber", "cut it on the board",
                   "wash the board"]],
        "tea": [["boil water", "pour water"]],
        "sandwich": [["cut the bread on the board"]],
    })
    return build_documents(corpus_obj)


def _toy_vocab():
    return AttributeVocab.from_pairs([
        ("wash", "activity"), ("cut", "activity"), ("boil", "activity"),
        ("board", "object"), ("water", "object"),
    ])


def test_build_documents_concatenates_in_order():
    docs = _toy_documents()
    assert docs["tea"] == ["boil", "water", "pour", "water"]


def test_freq_weights_counts():
    W = freq_weights(_toy_documents(), _toy_vocab())
    assert W.composites == ("salad", "tea", "sandwich")
    salad = dict(zip(W.attributes, W.row("salad")))
    assert salad == {"wash": 2, "cut": 1, "boil": 0, "board": 2, "water": 0}


def test_tfidf_known_values():
    # frozen oracle: count * ln(num_docs / doc_freq), natural log
    docs = _toy_documents()
    W = tfidf_weights(docs, _toy_vocab())
    salad = dict(zip(W.attributes, W.row("salad")))
    # "wash" appears only in salad: 2 * ln(3/1)
    assert salad["wash"] == pytest.approx(2 * math.log(3.0), abs=1e-12)
    # "board" appears in salad (twice) and sandwich: 2 * ln(3/2)
    assert salad["board"] == pytest.approx(2 * math.log(1.5), abs=1e-12)
    # attribute matching nowhere gets zero rather than a zero division
    assert salad["water"] * 0 == 0
    vocab2 = AttributeVocab.from_pairs([("knife", "object")])
    W2 = tfidf_weights(docs, vocab2)
    assert np.all(W2.values == 0)


def test_tfidf_four_times_ln_three_halves():
    # count 4 in one document, attribute present in 2 of 3 documents
    docs = {
        "a": ["peel"] * 4,
        "b": ["peel", "stir"],
        "c": ["stir"],
    }
    vocab = AttributeVocab.from_pairs([("peel", "activity")])
    W = tfidf_weights(docs, vocab)
    assert W.values[0, 0] == pytest.approx(4 * math.log(1.5), abs=1e-12)


def test_tfidf_single_document_collapses_to_zero():
    docs = {"only": ["wash", "wash"]}
    vocab = AttributeVocab.from_pairs([("wash", "activity")])
    W = tfidf_weights(docs, vocab)
    assert np.all(W.values == 0)


def test_tfidf_zero_count_stays_zero():
    rng = random.Random(2)
    words = ["wash", "cut", "pan", "the"]
    for _ in range(50):
        docs = {f"d{i}": [rng.choice(words) for _ in range(rng.randrange(1, 10))]
                for i in range(3)}
        vocab = _toy_vocab()
        F = freq_weights(docs, vocab)
        T = tfidf_weights(docs, vocab)
        assert np.all((F.values == 0) <= (T.values == 0))


def test_freq_scales_with_document_repetition():
    # concatenating a document with itself doubles every count
    docs = _toy_documents()
    doubled = {k: v + v for k, v in docs.items()}
    W1 = freq_weights(docs, _toy_vocab())
    W2 = freq_weights(doubled, _toy_vocab())
    assert np.array_equal(W2.values, 2 * W1.values)


def test_normalize_l1_rows_sum_to_one():
    W = freq_weights(_toy_documents(), _toy_vocab())
    N = normalize_l1(W)
    sums = N.values.sum(axis=1)
    assert np.allclose(sums, 1.0)
    assert N.normalized
    assert N.empty_rows == ()


def test_normalize_l1_flags_empty_rows():
    W = WeightMatrix(np.array([[0.0, 0.0], [1.0, 3.0]]), ("a", "b"), ("x", "y"))
    N = normalize_l1(W)
    assert N.empty_rows == ("a",)
    assert np.array_equal(N.values[0], [0.0, 0.0])
    assert np.allclose(N.values[1], [0.25, 0.75])


def test_normalize_idempotent():
    W = freq_weights(_toy_documents(), _toy_vocab())
    N1 = normalize_l1(W)
    N2 = normalize_l1(N1)
    assert np.allclose(N1.values, N2.values)


def test_binarize_weights():
    W = WeightMatrix(np.array([[0.0, 2.0, 5.0], [0.0, 0.0, 0.0]]),
                     ("a", "b"), ("x", "y", "z"))
    B = binarize_weights(W)
    assert np.allclose(B.values[0], [0.0, 0.5, 0.5])
    assert B.empty_rows == ("b",)
    assert B.normalized


def test_weight_matrix_rejects_negative_and_nan():
    with pytest.raises(ValueError):
        WeightMatrix(np.array([[-1.0]]), ("a",), ("x",))
    with pytest.raises(ValueError):
        WeightMatrix(np.array([[np.nan]]), ("a",), ("x",))


def test_vocab_validation():
    with pytest.raises(ValueError):
        AttributeVocab.from_pairs([("wash", "activity"), ("wash", "object")])
    with pytest.raises(ValueError):
        AttributeVocab.from_pairs([("wash", "verbish")])
    vocab = AttributeVocab.from_pairs([("Cutting-Board", "object")])
    assert vocab.labels == ("cutting board",)


def test_vocab_hash_changes_with_content():
    v1 = AttributeVocab.from_pairs([("wash", "activity")])
    v2 = AttributeVocab.from_pairs([("wash", "activity"), ("pan", "object")])
    assert v1.content_hash() != v2.content_hash()


def test_multiword_label_matching_in_documents():
    docs = {"d": tokenize_document("put it on the cutting-board now")}
    vocab = AttributeVocab.from_pairs([("cutting board", "object")])
    W = freq_weights(docs, vocab)
    assert W.values[0, 0] == 1


# ---------------------------------------------------------------------------
# file round trips

def test_script_corpus_round_trip(tmp_path):
    c = ScriptCorpus({
        "salad": [["wash the cucumber", "cut it"], ["peel the carrot"]],
        "tea": [["boil water"]],
    })
    save_script_corpus(c, tmp_path / "corpus")
    loaded = load_script_corpus(tmp_path / "corpus")
    assert loaded.scenarios == c.scenarios


def test_load_script_corpus_rejects_empty(tmp_path):
    (tmp_path / "corpus" / "salad").mkdir(parents=True)
    (tmp_path / "corpus" / "salad" / "seq0.txt").write_text("\n\n")
    with pytest.raises(ValueError):
        load_script_corpus(tmp_path / "corpus")


def test_lexicon_round_trip(tmp_path):
    lex = SynonymLexicon({("wash", "verb"): ("rinse", "clean"),
                          ("pan", "noun"): ("skillet",)})
    (tmp_path / "lex.tsv").write_text("wash\tverb\trinse,clean\n"
                                      "pan\tnoun\tskillet\n")
    loaded = load_lexicon(tmp_path / "lex.tsv")
    assert loaded.rows == lex.rows


def test_lexicon_rejects_duplicate_headword(tmp_path):
    (tmp_path / "lex.tsv").write_text("wash\tverb\trinse\nwash\tverb\tclean\n")
    with pytest.raises(ValueError):
        load_lexicon(tmp_path / "lex.tsv")


def test_weights_csv_round_trip(tmp_path):
    W = normalize_l1(freq_weights(_toy_documents(), _toy_vocab()))
    save_weights_csv(W, tmp_path / "w.csv")
    loaded = load_weights_csv(tmp_path / "w.csv")
    assert loaded.composites == W.composites
    assert loaded.attributes == W.attributes
    # 9 significant digits survive a round trip at 1e-8 relative
    assert np.allclose(loaded.values, W.values, rtol=1e-8, atol=1e-12)


def test_weights_csv_has_9_significant_digits(tmp_path):
    W = WeightMatrix(np.array([[1 / 3, 2 / 3]]), ("c",), ("x", "y"))
    save_weights_csv(normalize_l1(W), tmp_path / "w.csv")
    text = (tmp_path / "w.csv").read_text()
    assert "0.333333333" in text


def test_vocab_round_trip(tmp_path):
    vocab = _toy_vocab()
    save_vocab(vocab, tmp_path / "vocab.csv")
    assert load_vocab(tmp_path / "vocab.csv").entries == vocab.entries
