"""In-memory span recorder for the traced benchmark run.

Public actkit functions are wrapped at the module attribute their caller
looks up at call time, so a traced pass runs the unmodified library.
Each call becomes a span (metric name, start, end, parent id, error) and
may add to named counters at the same boundary.  A layer's busy time is
its spans' self time: duration minus the time covered by child spans.

The wrap table below is the single place that maps library functions to
per-layer metric names.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager

from workloads import job_name


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _job_name(args, kwargs):
    return f"experiment.{job_name(args[0])}_s"


def _infer_name(args, kwargs):
    grids = args[0]
    mode = _arg(args, kwargs, 2, "mode", "map")
    algorithm = _arg(args, kwargs, 3, "algorithm", "naive")
    if mode == "marginal":
        return "psinfer.marginal_s"
    if algorithm == "naive":
        return "psinfer.map_naive_s"
    large = grids.shape[1] * grids.shape[2] > LARGE_GRID_CELLS
    return "psinfer.map_dt_large_s" if large else "psinfer.map_dt_s"


# Grids with more cells than this count as the "large" part-inference
# frame; the benchmark's small frames are 40x40 and its large one 120x160.
LARGE_GRID_CELLS = 40 * 40


def _count_knn(tracer, args, kwargs, result):
    tracer.graph_keys.add((tracer.root(), _arg(args, kwargs, 1, "k")))
    tracer.add("composites.graph_builds")


def _count_infer(tracer, args, kwargs, result):
    tracer.add(_infer_name(args, kwargs)[:-2] + ".cells", args[0].size)


# (module, attribute, span metric or function of the call arguments,
#  counter hook or None, record a span?)
WRAPS = (
    ("synth", "gen_synthetic", "synth.gen_s", None, True),
    ("synth", "save_bundle", "synth.save_s", None, True),
    ("experiment", "load_bundle", "synth.load_s", None, True),
    ("experiment", "run_experiment", _job_name, None, True),
    ("experiment", "build_documents", "corpus.mine_s", None, True),
    ("experiment", "tfidf_weights", "corpus.mine_s", None, True),
    ("experiment", "normalize_l1", "corpus.mine_s", None, True),
    ("corpus", "match_count", None,
     lambda t, a, k, r: (t.add("corpus.match_calls"),
                         t.add("corpus.tokens", len(a[1]))), False),
    ("experiment", "train_linear_ova", "attributes.train_s",
     lambda t, a, k, r: t.add("attributes.models_trained", len(r.models)),
     True),
    ("attributes", "train_linear_ova", "attributes.train_s",
     lambda t, a, k, r: t.add("attributes.models_trained", len(r.models)),
     True),
    ("experiment", "score_intervals", "attributes.score_s",
     lambda t, a, k, r: t.add("attributes.score_calls"), True),
    ("cli", "score_intervals", "attributes.score_s",
     lambda t, a, k, r: t.add("attributes.score_calls"), True),
    ("experiment", "train_and_score_stacked", "attributes.stack_s", None,
     True),
    ("experiment", "save_models_npz", "attributes.io_s", None, True),
    ("attributes", "save_models_npz", "attributes.io_s", None, True),
    ("cli", "load_models_npz", "attributes.io_s", None, True),
    ("experiment", "seq_feature", "composites.pool_s", None, True),
    ("experiment", "script_score", "composites.script_s", None, True),
    ("composites", "pst_init", "composites.pst_init_s", None, True),
    ("experiment", "classify_nn", "composites.nn_s", None, True),
    ("experiment", "nn_script_classify", "composites.nn_s", None, True),
    ("experiment", "classify_svm", "composites.svm_s", None, True),
    ("composites", "build_knn_graph", "composites.graph_s", _count_knn, True),
    ("composites", "propagate", "composites.propagate_s",
     lambda t, a, k, r: t.add("composites.propagate_calls"), True),
    ("cli", "build_integral", "temporal.integral_s", None, True),
    ("cli", "score_windows", "temporal.score_windows_s",
     lambda t, a, k, r: t.add("temporal.windows_scored", len(r)), True),
    ("temporal", "window_histogram", None,
     lambda t, a, k, r: t.add("temporal.histogram_calls"), False),
    ("cli", "nms", "temporal.nms_s",
     lambda t, a, k, r: (t.add("temporal.nms_in", len(a[0])),
                         t.add("temporal.nms_kept", len(r))), True),
    ("cli", "segment_agglomerative", "temporal.segment_s", None, True),
    ("experiment", "merge_adjacent", "temporal.segment_s", None, True),
    ("posefeat", "pose_frame_features",
     lambda a, k: f"posefeat.{_arg(a, k, 3, 'kind', 'bm')}_s",
     lambda t, a, k, r: t.add("posefeat.windows", len(r)), True),
    ("posefeat", "build_codebook_set", "posefeat.codebooks_s", None, True),
    ("posefeat", "stream_word_counts", "posefeat.word_counts_s", None, True),
    ("posefeat", "quantize", "posefeat.quantize_s",
     lambda t, a, k, r: t.add("posefeat.quantize_calls"), True),
    ("posefeat", "encode_bow", "posefeat.encode_s", None, True),
    ("psinfer", "infer", _infer_name, _count_infer, True),
    ("psinfer", "hand_likelihood_map", "psinfer.hand_map_s", None, True),
    ("psinfer", "pcp_eval", "psinfer.pcp_s", None, True),
    ("experiment", "mean_average_precision", "metrics.eval_s", None, True),
    ("experiment", "accuracy", "metrics.eval_s", None, True),
    ("experiment", "confusion_counts", "metrics.eval_s", None, True),
    ("metrics", "eval_detection", "metrics.eval_s", None, True),
    ("cli", "main", lambda a, k: f"cli.{a[0][0]}_s", None, True),
)


class Tracer:
    """Spans and counters of the traced passes, kept in memory.

    span() opens a span by hand (the benchmark uses it for one span per
    job, the root of every library span the job causes); install()
    wraps the library per WRAPS until the context exits.
    """

    def __init__(self, clock=time.perf_counter):
        self.spans = []          # [id, name, start, end, parent, error]
        self._clock = clock
        self.counts = {}
        self.graph_keys = set()      # (job span, k) of every kNN graph
        self._stack = []
        self._last_exc = None

    def add(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def root(self):
        return self._stack[0] if self._stack else None

    def _open(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, name, self._clock(), None, parent, None])
        self._stack.append(sid)
        return sid

    def _close(self, sid, exc=None):
        rec = self.spans[sid]
        rec[3] = self._clock()
        self._stack.pop()
        if exc is not None:
            # the innermost span sees an exception first: that is where
            # it was raised; outer spans only pass it on
            if exc is self._last_exc:
                rec[5] = "propagated"
            else:
                rec[5] = f"raised {type(exc).__name__}: {exc}"
                self._last_exc = exc

    @contextmanager
    def span(self, name):
        sid = self._open(name)
        try:
            yield
        except BaseException as exc:
            self._close(sid, exc)
            raise
        self._close(sid)

    def _wrapper(self, fn, name, hook, record):
        tracer = self

        def wrapped(*args, **kwargs):
            sid = None
            if record:
                sid = tracer._open(name(args, kwargs) if callable(name)
                                   else name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if sid is not None:
                    tracer._close(sid, exc)
                raise
            if sid is not None:
                tracer._close(sid)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    @contextmanager
    def install(self):
        saved = []
        try:
            for mod_name, attr, name, hook, record in WRAPS:
                mod = importlib.import_module(f"actkit.{mod_name}")
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrapper(fn, name, hook, record))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def reset(self):
        """Forget spans and counts; returns what was recorded."""
        out = (self.spans, self.counts, self.graph_keys)
        self.spans, self.counts, self.graph_keys = [], {}, set()
        self._last_exc = None
        return out


def self_times(spans) -> dict:
    """Self time per span name.  run_experiment spans (experiment.<job>_s)
    get their whole duration instead, and their self time goes to
    experiment.self_s."""
    child = [0.0] * len(spans)
    for sid, name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out = {}
    for sid, name, start, end, parent, _ in spans:
        out[name] = out.get(name, 0.0) + (end - start) - child[sid]
        if name.startswith("experiment."):
            out["experiment.self_s"] = out.get("experiment.self_s", 0.0) \
                + (end - start) - child[sid]
            out[name] = out.get(name, 0.0) + child[sid]
    return out


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(spans, counts, graph_keys, names) -> dict:
    """Per-layer metrics of one traced pass, every name in names present.

    A layer that did not run in this pass reads 0.
    """
    m = dict.fromkeys(names, 0.0)
    times = self_times(spans)
    for key, val in list(times.items()) + list(counts.items()):
        if key in m:
            m[key] = float(val)
    m["corpus.tokens_per_s"] = _ratio(counts.get("corpus.tokens", 0),
                                      m["corpus.mine_s"])
    m["composites.graph_reuse"] = _ratio(
        len(graph_keys), counts.get("composites.graph_builds", 0))
    m["temporal.nms_keep_ratio"] = _ratio(counts.get("temporal.nms_kept", 0),
                                          counts.get("temporal.nms_in", 0))
    m["posefeat.windows_per_s"] = _ratio(m["posefeat.windows"],
                                         m["posefeat.bm_s"]
                                         + m["posefeat.fft_s"])
    for mode in ("map_dt", "map_dt_large", "map_naive", "marginal"):
        m[f"psinfer.{mode}.cells_per_s"] = _ratio(
            counts.get(f"psinfer.{mode}.cells", 0), m[f"psinfer.{mode}_s"])
    return {k: m[k] for k in names}


def write_spans(path, passes) -> None:
    """Write every traced pass's spans and counts as one JSON file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["id", "name", "start", "end", "parent",
                              "error"],
                   "passes": [{"spans": spans, "counts": counts}
                              for spans, counts, _ in passes]}, fh)
        fh.write("\n")
