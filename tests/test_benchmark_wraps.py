"""The traced benchmark run wraps actkit functions by module attribute
(perfbench/tracing.py, WRAPS).  A renamed function or a dropped import
would otherwise fail only inside a traced benchmark run."""

import importlib
import sys
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracing(monkeypatch):
    """perfbench's tracing module, imported without leaving it or its
    sibling workloads module in sys.modules."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("tracing", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    try:
        return importlib.import_module("tracing")
    finally:
        for name in ("tracing", "workloads"):
            sys.modules.pop(name, None)


def test_every_benchmark_wrap_resolves(monkeypatch):
    wraps = _tracing(monkeypatch).WRAPS
    assert wraps
    missing = [f"actkit.{mod}.{attr}" for mod, attr, *_ in wraps
               if not callable(getattr(importlib.import_module(
                   f"actkit.{mod}"), attr, None))]
    assert not missing, f"benchmark wraps missing functions: {missing}"


def test_models_trained_counts_the_trained_labels(monkeypatch):
    # the traced run reads the trained-label count off the returned set
    tracer = _tracing(monkeypatch).Tracer()
    from actkit import attributes
    X = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.9, 0.2]])
    sets = [{"a0"}, {"a1"}, {"a0", "a1"}, set()]
    with tracer.install():
        model_set = attributes.train_linear_ova(X, sets, ("a0", "a1", "ghost"))
    assert [a for a, _ in model_set.skipped] == ["ghost"]
    assert tracer.counts["attributes.models_trained"] == 2


def test_mining_counts_one_match_call_per_document_label(monkeypatch):
    # the traced run counts corpus.match_calls and corpus.tokens at the
    # module attribute corpus.match_count, reading the document's token
    # list from its second positional argument
    tracer = _tracing(monkeypatch).Tracer()
    from actkit import corpus
    docs = corpus.build_documents(corpus.ScriptCorpus({
        "salad": [["wash the cucumber", "cut it on the board"],
                  ["wash the board"]],
        "tea": [["boil water", "pour water"]],
        "sandwich": [["cut the bread on the board"]]}))
    vocab = corpus.AttributeVocab.from_pairs([
        ("wash", "activity"), ("cut", "activity"), ("boil", "activity"),
        ("board", "object"), ("water", "object"), ("cutting board", "object")])
    with tracer.install():
        corpus.tfidf_weights(docs, vocab)
    assert tracer.counts["corpus.match_calls"] == len(docs) * len(vocab)
    assert tracer.counts["corpus.tokens"] == \
        sum(map(len, docs.values())) * len(vocab)


def test_detect_and_segment_feed_the_temporal_counters(monkeypatch, tmp_path,
                                                       capsys):
    # the traced stream run times and counts actkit detect and segment at
    # cli.build_integral, cli.score_windows and cli.nms
    tracer = _tracing(monkeypatch).Tracer()
    from actkit import attributes, cli, temporal
    T = 700
    rng = np.random.default_rng(2)
    counts = rng.poisson(0.4, size=(T, 3)).astype(float)
    counts[100:220, 0] += 3.0
    np.save(tmp_path / "c.npy", counts)
    X = np.array([[1.0, 0.0, 0.0], [0.8, 0.0, 0.2], [0.0, 1.0, 0.0],
                  [0.1, 0.0, 0.9]])
    attributes.save_models_npz(attributes.train_linear_ova(
        X, [{"a0"}, {"a0"}, set(), set()], ("a0",)), tmp_path / "m.npz")
    with tracer.install():
        assert cli.main(["detect", "--counts", str(tmp_path / "c.npy"),
                         "--models", str(tmp_path / "m.npz"), "--attribute",
                         "a0", "--output", str(tmp_path / "d.csv")]) == 0
        assert cli.main(["segment", "--counts", str(tmp_path / "c.npy"),
                         "--threshold", "0.9", "--output",
                         str(tmp_path / "s.jsonl")]) == 0
    windows = sum((T - size) // step + 1
                  for size, step in temporal.window_schedule() if size <= T)
    kept = temporal.load_detections_csv(tmp_path / "d.csv")
    assert capsys.readouterr().out.startswith(
        f"{windows} windows scored, {len(kept)} kept")
    assert tracer.counts["temporal.windows_scored"] == windows
    assert tracer.counts["temporal.nms_in"] == windows
    assert 0 < tracer.counts["temporal.nms_kept"] == len(kept) < windows
    names = [name for _, name, *_ in tracer.spans]
    # one integral table per command, which reads the count file itself
    assert names.count("temporal.integral_s") == 2
    for name in ("temporal.score_windows_s", "temporal.nms_s",
                 "temporal.segment_s", "cli.detect_s", "cli.segment_s"):
        assert names.count(name) == 1, name
    assert all(error is None for *_, error in tracer.spans)


def test_pose_windows_count_every_fitting_window(monkeypatch):
    # the traced stream run times pose_frame_features per kind, read from
    # its fourth positional argument, and counts the windows it returns
    tracer = _tracing(monkeypatch).Tracer()
    from actkit import posefeat
    T, first, lengths = 90, 6, (20, 50)
    steps = np.random.default_rng(4).normal(0, 2.0,
                                            size=(len(posefeat.PARTS), T, 2))
    tracks = posefeat.JointTrackSet(np.cumsum(steps, axis=1), first)
    with tracer.install():
        for center in range(first, first + T):
            for kind in ("bm", "fft"):
                posefeat.pose_frame_features(tracks, center, lengths, kind)
    assert tracer.counts["posefeat.windows"] == \
        2 * sum(T - L + 1 for L in lengths)
    names = [name for _, name, *_ in tracer.spans]
    assert names.count("posefeat.bm_s") == names.count("posefeat.fft_s") == T
    assert len(names) == 2 * T
    assert all(error is None for *_, error in tracer.spans)


def test_segmentation_call_sites(monkeypatch, tmp_path):
    # temporal.segment_s times experiment.merge_adjacent, once per
    # sequence of a segmented run; actkit segment reads its spans with
    # one window_counts call and counts no temporal.histogram_calls
    from actkit import cli, experiment, synth, temporal
    calls = {}

    def counting(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    bundle = synth.gen_synthetic(synth.SyntheticConfig(seed=11))
    synth.save_bundle(bundle, tmp_path / "bundle")
    for module, name in ((experiment, "merge_adjacent"),
                         (temporal, "window_counts"),
                         (temporal, "window_histogram")):
        counting(module, name)
    experiment.run_experiment({"data": str(tmp_path / "bundle"),
                               "output": str(tmp_path / "run"),
                               "mode": "script", "segment_threshold": 0.8})
    assert calls == {"merge_adjacent": len(bundle.sequences)}

    calls.clear()
    counts = np.random.default_rng(3).poisson(0.5, size=(600, 4))
    np.save(tmp_path / "c.npy", counts.astype(float))
    assert cli.main(["segment", "--counts", str(tmp_path / "c.npy"),
                     "--threshold", "0.9", "--output",
                     str(tmp_path / "s.jsonl")]) == 0
    assert calls == {"window_counts": 1}
