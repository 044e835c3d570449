"""Seeded inputs, job lists and output checks of the benchmark workloads.

setup() turns a seed into input files; run_pass() runs one full pass of
a workload's jobs on those files only.  Every call into actkit goes
through the module attribute (``synth.gen_synthetic``, ``cli.main``, ...)
so that the traced run can wrap it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import traceback

import numpy as np

from actkit import (attributes, cli, experiment, metrics, posefeat, psinfer,
                    synth, temporal)

# Sizes of each workload; "smoke" is a tiny variant for the benchmark's
# own test.  Full sizes keep one pass at a few seconds on one core.
# Every video has the same number of intervals, so that the work of a
# pass does not change with the seed.
SIZES = {
    "zeroshot": {
        "full": dict(num_composites=24, num_activities=32, num_objects=48,
                     videos_per_composite=(4, 2, 8), t_range=(10, 10),
                     sequences_per_composite=16, noise=2.0),
        "smoke": dict(num_composites=6, num_activities=8, num_objects=12,
                      videos_per_composite=(3, 2, 2),
                      sequences_per_composite=4, noise=2.0),
    },
    "supervised": {
        "full": dict(num_composites=20, num_activities=28, num_objects=42,
                     videos_per_composite=(5, 2, 8), t_range=(10, 10),
                     noise=1.5, feature_dim=64),
        "smoke": dict(num_composites=6, num_activities=8, num_objects=12,
                      videos_per_composite=(3, 2, 2), noise=2.0,
                      feature_dim=16),
    },
    "stream": {
        "full": dict(track_frames=450, lengths=(20, 50, 100), episodes=3,
                     frames=12000, train_frames=4000, bins=256, classes=4,
                     events_per_class=8, train_events_per_class=3),
        # codebooks need 2 x dim samples per block: 340 frames for one
        # length of 20
        "smoke": dict(track_frames=340, lengths=(20,), episodes=1,
                      frames=1500, train_frames=1200, bins=64, classes=2,
                      events_per_class=2, train_events_per_class=2),
    },
    "parts": {
        "full": dict(small=2, small_shape=(40, 40), small_scale=0.2,
                     large_shape=(120, 160), large_scale=0.6),
        "smoke": dict(small=1, small_shape=(20, 20), small_scale=0.1,
                      large_shape=(40, 48), large_scale=0.2),
    },
}

JOBS = {
    "zeroshot": (
        {"mode": "script"},
        {"mode": "script", "stack": "cooccurrence"},
        {"mode": "nn-script"},
        {"mode": "pst-zero-shot"},
    ),
    "supervised": (
        {"mode": "svm", "weights": "planted"},
        {"mode": "nn", "weights": "planted"},
        {"mode": "pst", "weights": "planted",
         "pst": {"alpha": 0.9, "gamma": 0.5, "delta": 0.5, "k": 5}},
        {"mode": "svm", "weights": "planted", "stack": "base+context",
         "segment_threshold": 0.9},
    ),
}

# Jobs whose mean test-split mAP and accuracy are the workload's quality
# metrics.  The other jobs' scores swing too much from seed to seed for a
# bounded metric (pst-zero-shot mAP spans 0.14-0.88 over eight seeds);
# they are recorded per job and checked for determinism.
QUALITY_JOBS = {
    "zeroshot": ("script",),
    "supervised": ("svm", "svm-base-context-segment"),
}

# which end-to-end quality metrics a workload measures; the others read
# 1.0 there (see README.md)
QUALITY = {
    "zeroshot": ("mean_ap", "accuracy"),
    "supervised": ("mean_ap", "accuracy"),
    "stream": ("mean_ap",),
    "parts": ("pcp",),
}

REPORT_KEYS = ("task", "mean_ap", "per_label_ap", "accuracy", "labels",
               "confusion", "excluded")

WORDS_PER_FRAME = 20
EVENT_MIX = 0.15            # share of an event frame's words from its class
EVENT_FRAMES = (40, 60)      # event length range, frames
SEGMENT_THRESHOLD = 0.9
GRID_FLOOR = 0.02
HAND_PRECISION = 0.02
SCORE_TOLERANCE = 1e-9

# resting upper-body pose, pixels, y down (figure about 140 px tall)
REST_POSE = {
    "head": (100, 20), "torso": (100, 80),
    "r_shoulder": (70, 50), "l_shoulder": (130, 50),
    "r_elbow": (60, 90), "l_elbow": (140, 90),
    "r_wrist": (55, 125), "l_wrist": (145, 125),
    "r_hand": (55, 140), "l_hand": (145, 140),
}


def job_name(cfg) -> str:
    """Short name of an experiment job, used for logs and trace metrics."""
    name = cfg["mode"]
    if cfg.get("stack"):
        name += "-" + cfg["stack"].replace("+", "-")
    if cfg.get("segment_threshold") is not None:
        name += "-segment"
    return name


# ---------------------------------------------------------------------------
# inputs

def setup(workload, seed, size, path) -> None:
    """Write the workload's inputs for seed under path."""
    os.makedirs(path)
    _SETUPS[workload](seed, SIZES[workload][size], path)


def manifest(path) -> dict:
    """Size and hash of every input file, plus one hash over all."""
    files = {}
    for dirpath, _, names in os.walk(path):
        for name in names:
            full = os.path.join(dirpath, name)
            with open(full, "rb") as fh:
                data = fh.read()
            files[os.path.relpath(full, path)] = {
                "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
    total = hashlib.sha256(json.dumps(files, sort_keys=True).encode())
    return {"sha256": total.hexdigest(), "files": dict(sorted(files.items()))}


def _setup_bundle(mode):
    def run(seed, p, path):
        cfg = synth.SyntheticConfig(seed=seed, mode=mode, **p)
        synth.save_bundle(synth.gen_synthetic(cfg),
                          os.path.join(path, "bundle"))
    return run


def _gen_track(rng, p):
    """Resting pose with jitter and body sway, plus planted stirring
    episodes: one wrist and hand circle at a random period."""
    T = p["track_frames"]
    rest = np.array([REST_POSE[n] for n in posefeat.PARTS], dtype=float)
    pos = rest[:, None, :] + rng.normal(0, 0.5, (len(rest), T, 2))
    pos += np.cumsum(rng.normal(0, 0.2, (1, T, 2)), axis=1)
    t = np.arange(T)
    for _ in range(p["episodes"]):
        length = int(rng.integers(60, 121))
        start = int(rng.integers(0, T - length))
        side = "rl"[int(rng.integers(0, 2))]
        period = rng.uniform(15, 30)
        radius = rng.uniform(8, 15)
        phase = 2 * np.pi * t[start:start + length] / period
        for joint, gain in (("wrist", 0.8), ("hand", 1.0)):
            k = posefeat.PARTS.index(f"{side}_{joint}")
            pos[k, start:start + length, 0] += gain * radius * np.cos(phase)
            pos[k, start:start + length, 1] += gain * radius * np.sin(phase)
    return pos


def _gen_counts(rng, T, events_per_class, background, profiles, video):
    """Word counts of one stream with planted events of every class.

    Each frame draws WORDS_PER_FRAME words; inside an event a share
    EVENT_MIX of them follow the class profile.  Returns (counts,
    annotation records).
    """
    classes = np.repeat(np.arange(len(profiles)), events_per_class)
    classes = classes[rng.permutation(len(classes))]
    lengths = rng.integers(EVENT_FRAMES[0], EVENT_FRAMES[1] + 1,
                           size=len(classes))
    gaps = rng.multinomial(T - int(lengths.sum()),
                           np.full(len(classes) + 1, 1 / (len(classes) + 1)))
    pvals = np.tile(background, (T, 1))
    records = []
    start = 0
    for c, length, gap in zip(classes, lengths, gaps):
        start += int(gap)
        end = start + int(length) - 1
        pvals[start:end + 1] = (1 - EVENT_MIX) * background \
            + EVENT_MIX * profiles[c]
        records.append({"video": video, "start_frame": start,
                        "end_frame": end, "attributes": [f"event{c}"],
                        "composite": "stream"})
        start = end + 1
    return rng.multinomial(WORDS_PER_FRAME, pvals).astype(float), records


def _setup_stream(seed, p, path):
    rng = np.random.default_rng(seed)
    posefeat.save_tracks_csv(posefeat.JointTrackSet(_gen_track(rng, p)),
                             os.path.join(path, "tracks.csv"))
    B = p["bins"]
    background = rng.dirichlet(np.ones(B))
    # each class owns its own B/16 bins, so classes differ in kind
    owned = rng.permutation(B)
    profiles = []
    for c in range(p["classes"]):
        prof = np.zeros(B)
        bins = owned[c * (B // 16):(c + 1) * (B // 16)]
        prof[bins] = rng.dirichlet(np.ones(len(bins)))
        profiles.append(prof)
    for name, frames, events in (
            ("train", p["train_frames"], p["train_events_per_class"]),
            ("test", p["frames"], p["events_per_class"])):
        counts, records = _gen_counts(rng, frames, events, background,
                                      profiles, name)
        np.save(os.path.join(path, f"{name}_counts.npy"), counts)
        attributes.save_annotations(
            records, os.path.join(path, f"{name}_annotations.jsonl"))
    with open(os.path.join(path, "pose.json"), "w", encoding="utf-8") as fh:
        json.dump({"lengths": list(p["lengths"])}, fh)


def _plant_layout(rng, graph, shape, scale):
    """Part positions following the tree's mean offsets with jitter; the
    torso is placed so the whole figure fits the grid."""
    H, W = shape
    margin_x, top, bottom = 50 * scale + 2, 60 * scale + 2, 70 * scale + 2
    torso = (int(rng.integers(int(margin_x), int(W - margin_x))),
             int(rng.integers(int(top), int(H - bottom))))
    locs = {graph.root: torso}
    for part in graph.topo_order()[1:]:
        edge = graph.parent_edge(part)
        px, py = locs[edge.parent]
        x = px + edge.mean[0] + rng.normal(0, 0.3 * np.sqrt(edge.var[0]))
        y = py + edge.mean[1] + rng.normal(0, 0.3 * np.sqrt(edge.var[1]))
        locs[part] = (int(np.clip(round(x), 0, W - 1)),
                      int(np.clip(round(y), 0, H - 1)))
    return locs


def _blob(shape, x, y, sigma):
    ys, xs = np.mgrid[0:shape[0], 0:shape[1]]
    return np.exp(-((xs - x) ** 2 + (ys - y) ** 2) / (2 * sigma ** 2))


def _setup_parts(seed, p, path):
    rng = np.random.default_rng(seed)
    frames = [("small", i, p["small_shape"], p["small_scale"])
              for i in range(p["small"])]
    frames.append(("large", 0, p["large_shape"], p["large_scale"]))
    meta = []
    for kind, i, shape, scale in frames:
        name = f"{kind}{i}"
        graph = psinfer.default_part_graph(scale=scale)
        truth = _plant_layout(rng, graph, shape, scale)
        sigma = max(1.0, 7.5 * scale)
        grids = np.full((len(graph.parts),) + tuple(shape), GRID_FLOOR)
        for k, part in enumerate(graph.parts):
            grids[k] += _blob(shape, *truth[part], sigma)
        for _ in range(3):                       # decoys on random parts
            k = int(rng.integers(0, len(graph.parts)))
            grids[k] += rng.uniform(0.8, 1.5) * _blob(
                shape, rng.uniform(0, shape[1]), rng.uniform(0, shape[0]),
                sigma)
        psinfer.save_grids(grids, os.path.join(path, f"{name}_grids.npy"))
        psinfer.save_placements_csv(truth,
                                    os.path.join(path, f"{name}_truth.csv"))
        entry = {"name": name, "kind": kind, "scale": scale, "hands": []}
        if kind == "large":
            for part in ("r_hand", "l_hand"):
                tx, ty = truth[part]
                points = [(tx, ty)] + [(rng.uniform(0, shape[1]),
                                        rng.uniform(0, shape[0]))
                                       for _ in range(3)]
                scores = [2.0 + rng.uniform(0, 0.5)] + \
                    list(rng.uniform(0.0, 1.5, size=3))
                hyp_path = f"{name}_{part}.csv"
                psinfer.save_hand_hypotheses_csv(
                    psinfer.HandHypothesisSet(points, scores),
                    os.path.join(path, hyp_path))
                entry["hands"].append([part, hyp_path])
        meta.append(entry)
    with open(os.path.join(path, "frames.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh)


_SETUPS = {
    "zeroshot": _setup_bundle("scores"),
    "supervised": _setup_bundle("features"),
    "stream": _setup_stream,
    "parts": _setup_parts,
}


# ---------------------------------------------------------------------------
# jobs and checks

class JobLog:
    """Counts attempted and failed jobs of one pass.

    A job fails when it raises or when any of its checks fails; either
    way the failure is printed to stderr and the pass goes on.
    """

    def __init__(self, span):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self._span = span
        self._job = None
        self._job_failed = False

    @contextlib.contextmanager
    def job(self, name):
        self.attempted += 1
        self._job, self._job_failed = name, False
        try:
            with self._span(f"bench.job:{name}"):
                yield
        except Exception as exc:                    # noqa: BLE001
            traceback.print_exc(file=sys.stderr)
            self._fail(f"raised {type(exc).__name__}: {exc}")
        if self._job_failed:
            self.failed += 1

    def check(self, ok, message):
        if not ok:
            self._fail(message)

    def _fail(self, message):
        self._job_failed = True
        self.failures.append(f"{self._job}: {message}")
        print(f"check failed: {self._job}: {message}", file=sys.stderr)


def _same_as_first(log, reference, key, value, what):
    first = reference.setdefault(key, value)
    log.check(first == value, f"{what} differs from the first pass")


def _run_bundle(inputs, out, log, reference, jobs, quality_jobs):
    per_job = {}
    for cfg in jobs:
        name = job_name(cfg)
        with log.job(name):
            job_out = os.path.join(out, name)
            report = experiment.run_experiment(
                dict(cfg, data=os.path.join(inputs, "bundle"),
                     output=job_out))
            per_job[name] = {"mean_ap": report.mean_ap,
                             "accuracy": report.accuracy}
            with open(os.path.join(job_out, "predictions.csv"), "rb") as fh:
                predictions = fh.read()
            with open(os.path.join(job_out, "report.json"),
                      encoding="utf-8") as fh:
                saved = json.load(fh)
            _same_as_first(log, reference, name + "/predictions.csv",
                           predictions, "predictions.csv")
            _same_as_first(log, reference, name + "/report.json",
                           {k: saved.get(k) for k in REPORT_KEYS},
                           "report.json metrics")
    quality = {"jobs": per_job}
    if all(j in per_job for j in quality_jobs):
        for key in ("mean_ap", "accuracy"):
            quality[key] = float(np.mean([per_job[j][key]
                                          for j in quality_jobs]))
    return quality


def _cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def expected_windows(num_frames) -> int:
    """Windows score_windows places on a stream, from the schedule."""
    return sum((num_frames - size) // step + 1
               for size, step in temporal.window_schedule()
               if size <= num_frames)


def _pose_records(tracks, lengths):
    records = []
    for f in range(tracks.num_frames):
        rec = posefeat.pose_frame_features(tracks, f, lengths, "bm")
        for length, feats in posefeat.pose_frame_features(
                tracks, f, lengths, "fft").items():
            rec.setdefault(length, []).extend(feats)
        records.append(rec)
    return records


def _span_histograms(table, records, rng):
    """Training set for the detector: every annotated event, three random
    sub-spans of it, and as many background spans outside all events."""
    X, y = [], []
    busy = np.zeros(table.num_frames, dtype=bool)
    for rec in records:
        s, e = rec["start_frame"], rec["end_frame"]
        busy[s:e + 1] = True
        spans = [(s, e)]
        for _ in range(3):
            length = int(rng.integers((e - s + 1) // 2, e - s + 2))
            start = int(rng.integers(s, e - length + 2))
            spans.append((start, start + length - 1))
        for a, b in spans:
            X.append(temporal.window_histogram(table, a, b))
            y.append(set(rec["attributes"]))
    wanted = len(X)
    for _ in range(1000 * wanted):
        if len(X) == 2 * wanted:
            break
        length = int(rng.integers(60, 241))
        start = int(rng.integers(0, table.num_frames - length + 1))
        if not busy[start:start + length].any():
            X.append(temporal.window_histogram(table, start,
                                               start + length - 1))
            y.append(set())
    else:
        raise ValueError("no room for background spans between the events")
    return np.array(X), y


def _run_stream(inputs, out, log, reference):
    quality = {}
    with log.job("pose"):
        tracks = posefeat.load_tracks_csv(os.path.join(inputs, "tracks.csv"))
        with open(os.path.join(inputs, "pose.json"), encoding="utf-8") as fh:
            lengths = tuple(json.load(fh)["lengths"])
        records = _pose_records(tracks, lengths)
        samples = {}
        for rec in records:
            for length, feats in rec.items():
                for sf in feats:
                    samples.setdefault((length, sf.name), []).append(
                        sf.values)
        books = posefeat.build_codebook_set(
            {key: np.array(v) for key, v in samples.items()}, seed=0)
        frames = list(range(tracks.num_frames))
        counts = posefeat.stream_word_counts(records, frames, books,
                                             tracks.num_frames)
        blocks = [sum(len(f) for f in rec.values()) for rec in records]
        log.check(np.array_equal(counts.sum(axis=1), blocks),
                  "word-count rows do not sum to the descriptor blocks")
        chunk = 150
        for start in range(0, len(records), chunk):
            hist = posefeat.encode_bow(records[start:start + chunk], books)
            log.check(np.all(hist.values >= 0), "negative BoW histogram")

    models = os.path.join(out, "models.npz")
    os.makedirs(out, exist_ok=True)
    with log.job("train"):
        table = temporal.build_integral(
            np.load(os.path.join(inputs, "train_counts.npy")))
        train_ann = attributes.load_annotations(
            os.path.join(inputs, "train_annotations.jsonl"))
        classes = sorted({a for r in train_ann for a in r["attributes"]})
        X, y = _span_histograms(table, train_ann, np.random.default_rng(0))
        model_set = attributes.train_linear_ova(X, y, classes,
                                                attributes.TrainConfig())
        attributes.save_models_npz(model_set, models)

    test_counts = os.path.join(inputs, "test_counts.npy")
    num_frames = np.load(test_counts, mmap_mode="r").shape[0]
    test_ann = attributes.load_annotations(
        os.path.join(inputs, "test_annotations.jsonl"))
    detections = []
    for label in sorted({a for r in test_ann for a in r["attributes"]}):
        with log.job(f"detect:{label}"):
            path = os.path.join(out, f"detections_{label}.csv")
            code, text = _cli(["detect", "--counts", test_counts,
                               "--models", models, "--attribute", label,
                               "--output", path, "--video", "test"])
            log.check(code == 0, f"actkit detect exited {code}")
            scored = int(text.split()[0])
            log.check(scored == expected_windows(num_frames),
                      f"{scored} windows scored, schedule gives "
                      f"{expected_windows(num_frames)}")
            kept = temporal.load_detections_csv(path)
            log.check(_disjoint(kept), "NMS at threshold 0 kept an "
                      "overlapping pair")
            detections.extend(kept)
    with log.job("segment"):
        path = os.path.join(out, "segments.jsonl")
        code, _ = _cli(["segment", "--counts", test_counts, "--threshold",
                        str(SEGMENT_THRESHOLD), "--output", path])
        log.check(code == 0, f"actkit segment exited {code}")
        segs = temporal.load_segments_jsonl(path)
        log.check(bool(segs) and segs[0].start == 0
                  and segs[-1].end == num_frames - 1
                  and all(b.start == a.end + 1
                          for a, b in zip(segs, segs[1:])),
                  "segments do not tile the stream")
    with log.job("eval"):
        mean_ap, _, _ = metrics.eval_detection(detections, test_ann)
        _same_as_first(log, reference, "mean_ap", mean_ap, "detection mAP")
        quality["mean_ap"] = mean_ap
    return quality


def _disjoint(detections) -> bool:
    last_end = -1
    for d in sorted(detections, key=lambda d: d.start):
        if d.start <= last_end:
            return False
        last_end = max(last_end, d.end)
    return True


def _run_parts(inputs, out, log, reference):
    with open(os.path.join(inputs, "frames.json"), encoding="utf-8") as fh:
        frames = json.load(fh)
    pcps = []
    for fr in frames:
        with log.job(fr["name"]):
            name = fr["name"]
            grids = psinfer.load_grids(os.path.join(inputs,
                                                    f"{name}_grids.npy"))
            truth = psinfer.load_placements_csv(
                os.path.join(inputs, f"{name}_truth.csv"))
            graph = psinfer.default_part_graph(scale=fr["scale"])
            for part, hyp_path in fr["hands"]:
                hyps = psinfer.load_hand_hypotheses_csv(
                    os.path.join(inputs, hyp_path))
                grids[graph.parts.index(part)] = GRID_FLOOR + \
                    psinfer.hand_likelihood_map(hyps, grids.shape[1:],
                                                precision=HAND_PRECISION)
            best = psinfer.infer(grids, graph, "map", "distance_transform")
            if fr["kind"] == "small":
                naive = psinfer.infer(grids, graph, "map", "naive")
                log.check(best.placements == naive.placements,
                          "distance-transform and naive MAP placements "
                          "differ")
                log.check(abs(best.log_score - naive.log_score)
                          <= SCORE_TOLERANCE,
                          f"MAP log-scores differ by "
                          f"{abs(best.log_score - naive.log_score):.3g}")
                marg = psinfer.infer(grids, graph, "marginal", "naive")
                log.check(all(abs(float(p.sum()) - 1.0) <= SCORE_TOLERANCE
                              for p in marg.posteriors.values()),
                          "a marginal does not sum to 1")
            _same_as_first(log, reference, name, best.placements,
                           "MAP placements")
            frac, _, _ = psinfer.pcp_eval(best.placements, truth)
            pcps.append(frac)
    return {"pcp": float(np.mean(pcps)) if pcps else None}


def run_pass(workload, inputs, out, log, reference) -> dict:
    """One full pass of the workload's jobs; returns its quality values.

    reference carries outputs of the first pass, which later passes
    must reproduce exactly.
    """
    if workload in JOBS:
        return _run_bundle(inputs, out, log, reference, JOBS[workload],
                           QUALITY_JOBS[workload])
    if workload == "stream":
        return _run_stream(inputs, out, log, reference)
    return _run_parts(inputs, out, log, reference)
