"""Command line front end.

Each subcommand is a thin wrapper over one library entry point (run's
own attribute stages for train-attributes, score and stack) and talks
through the package's file formats (CSV, JSONL, npy/npz, and bundles:
score and stack write scores bundles, which stack and classify-composites
read).  Exit codes: 0 on success, 1 for configuration problems, 2 for
anything else.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import os
import sys

import numpy as np

from . import __version__
from .attributes import (load_annotations, load_models_npz, save_models_npz,
                         score_intervals, STACK_MODES, TrainConfig)
from .composites import load_pst_config
from .corpus import (binarize_weights, build_documents, load_lexicon,
                     load_script_corpus, load_vocab, normalize_l1,
                     save_weights_csv, tfidf_weights)
from .experiment import (ConfigError, MODES, run_experiment,
                         score_attributes, stack_attributes, train_attributes,
                         train_config)
from .metrics import EvalReport, eval_detection
from .psinfer import (default_part_graph, infer, load_grids,
                      save_placements_csv)
from .synth import SyntheticConfig, gen_synthetic, load_bundle, save_bundle
from .tables import finite_float
from .temporal import (build_integral, load_detections_csv, nms,
                       save_detections_csv, save_segments_jsonl,
                       score_windows, segment_agglomerative)


class _Parser(argparse.ArgumentParser):
    """Usage errors are configuration errors: exit 1, not argparse's 2."""

    def error(self, message):
        raise ConfigError(message)


def _ints(text):
    """Comma-separated integers, such as 3,1,2, as a tuple."""
    return tuple(int(v) for v in text.split(","))


def _cmd_mine_scripts(args):
    corpus = load_script_corpus(args.corpus)
    vocab = load_vocab(args.vocab)
    lexicon = load_lexicon(args.lexicon) if args.lexicon else None
    docs = build_documents(corpus)
    weights = tfidf_weights(docs, vocab, lexicon)
    weights = binarize_weights(weights) if args.binarize \
        else normalize_l1(weights)
    save_weights_csv(weights, args.output)
    print(f"mined weights for {len(weights.composites)} composites over "
          f"{len(weights.attributes)} attributes -> {args.output}")
    return 0


def _cmd_gen_synthetic(args):
    try:
        cfg = SyntheticConfig(
            num_composites=args.composites, num_activities=args.activities,
            num_objects=args.objects, videos_per_composite=args.videos,
            t_range=args.t_range,
            signal=args.signal, noise=args.noise, seed=args.seed,
            mode=args.data_mode, background_rate=args.background_rate)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    bundle = gen_synthetic(cfg)
    save_bundle(bundle, args.output)
    print(f"wrote bundle with {len(bundle.sequences)} sequences "
          f"({cfg.mode} mode) -> {args.output}")
    return 0


def _save_scores_bundle(args, bundle, mats):
    """Save bundle to --output as a scores bundle whose sequences hold the
    (A, T) matrices mats; --output must not be the --bundle directory."""
    if os.path.realpath(args.output) == os.path.realpath(args.bundle):
        raise ConfigError(f"--output {args.output} is the --bundle directory")
    seqs = tuple(dataclasses.replace(s, scores=V, features=None)
                 for s, V in zip(bundle.sequences, mats))
    config = dataclasses.replace(bundle.config, mode="scores")
    save_bundle(dataclasses.replace(bundle, config=config, sequences=seqs),
                args.output)


def _check_width(path, model_set, width, source):
    """The models in path must take features of source's width."""
    if width != model_set.feature_dim:
        raise ConfigError(f"{path}: feature_dim is {model_set.feature_dim}, "
                          f"but the width of {source} is {width}")


def _cmd_train_attributes(args):
    cfg = train_config(args.lam, args.epochs)
    model_set = train_attributes(load_bundle(args.bundle), cfg)
    save_models_npz(model_set, args.output)
    trained = len(model_set.labels) - len(model_set.skipped)
    print(f"trained {trained} attribute models "
          f"({len(model_set.skipped)} skipped) -> {args.output}")
    return 0


def _cmd_score(args):
    bundle = load_bundle(args.bundle)
    if bundle.config.mode != "features":
        raise ConfigError("scoring applies trained models to a features "
                          "mode bundle")
    model_set = load_models_npz(args.models)
    pairs = itertools.zip_longest(model_set.labels,
                                  bundle.true_weights.attributes)
    for i, (have, want) in enumerate(pairs):
        if have != want:
            raise ConfigError(f"{args.models}: model label {i} is {have!r}, "
                              f"but bundle attribute {i} is {want!r}")
    _check_width(args.models, model_set, bundle.config.feature_dim,
                 f"the features in {args.bundle}")
    _save_scores_bundle(args, bundle, score_attributes(bundle, model_set))
    print(f"scored {len(bundle.sequences)} sequences -> {args.output}")
    return 0


def _cmd_stack(args):
    cfg = train_config(args.lam, args.epochs)
    bundle = load_bundle(args.bundle)
    if bundle.config.mode != "scores":
        raise ConfigError("the stack command refines precomputed score "
                          "bundles; use 'run' for feature bundles")
    mats = stack_attributes(bundle, args.mode, cfg,
                            [s.scores for s in bundle.sequences])
    _save_scores_bundle(args, bundle, mats)
    print(f"stacked ({args.mode}) {len(mats)} sequences -> {args.output}")
    return 0


def _load_integral(path):
    """The integral table of a (T, B) .npy count file; a bad count raises
    ValueError naming the file."""
    try:
        return build_integral(np.load(path))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _cmd_detect(args):
    table = _load_integral(args.counts)
    model_set = load_models_npz(args.models)
    _check_width(args.models, model_set, table.prefix.shape[1], args.counts)
    if args.attribute not in model_set.labels:
        raise ConfigError(f"attribute {args.attribute!r} is not in the "
                          "model file")
    row = model_set.labels.index(args.attribute)
    if not model_set.trained[row]:
        reason = dict(model_set.skipped).get(args.attribute, "no model")
        raise ConfigError(f"attribute {args.attribute!r} was skipped in "
                          f"training: {reason}")
    dets = score_windows(table,
                         lambda H: score_intervals(model_set, H)[row],
                         video=args.video, attribute=args.attribute)
    kept = nms(dets, overlap_threshold=args.nms_threshold,
               criterion=args.criterion)
    save_detections_csv(kept, args.output)
    print(f"{len(dets)} windows scored, {len(kept)} kept after "
          f"suppression -> {args.output}")
    return 0


def _cmd_segment(args):
    if args.span < 1:
        raise ConfigError(f"--span must be positive, got {args.span}")
    table = _load_integral(args.counts)
    segs = segment_agglomerative(table, args.threshold, span=args.span)
    save_segments_jsonl(segs, args.output)
    print(f"{table.num_frames} frames -> {len(segs)} segments "
          f"-> {args.output}")
    return 0


def _cmd_classify_composites(args):
    cfg = {"data": args.bundle, "output": args.output, "mode": args.mode,
           "weights": args.weights, "stack": args.stack,
           "segment_threshold": args.segment_threshold}
    if args.pst_config:
        try:
            cfg["pst"] = dataclasses.asdict(load_pst_config(args.pst_config))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    report = run_experiment(cfg)
    print(report.to_table())
    return 0


def _cmd_pose_infer(args):
    try:
        graph = default_part_graph(scale=args.scale)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    grids = load_grids(args.grids)
    result = infer(grids, graph, mode=args.mode)
    if args.mode == "map":
        save_placements_csv(result.placements, args.output)
        print(f"MAP layout (log score {result.log_score:.4f}) "
              f"-> {args.output}")
    else:
        np.savez(args.output, **{part: post for part, post
                                 in result.posteriors.items()})
        print(f"posterior maps for {len(result.posteriors)} parts "
              f"-> {args.output}")
    return 0


def _cmd_eval(args):
    detections = load_detections_csv(args.detections)
    annotations = load_annotations(args.annotations)
    mean_ap, aps, excluded = eval_detection(
        detections, annotations, criterion=args.criterion,
        iou_threshold=args.iou)
    report = EvalReport(task="detection", mean_ap=mean_ap, per_label_ap=aps,
                        excluded=excluded,
                        config={"criterion": args.criterion,
                                "iou_threshold": args.iou})
    report.save(args.output)
    print(report.to_table())
    return 0


def _cmd_run(args):
    report = run_experiment(args.config)
    print(report.to_table())
    return 0


def _build_parser():
    parser = _Parser(
        prog="actkit",
        description="composite activity recognition toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    bundle_io = _Parser(add_help=False)
    bundle_io.add_argument("--bundle", required=True)
    bundle_io.add_argument("--output", required=True)
    training = _Parser(add_help=False)
    training.add_argument("--lam", type=float, default=TrainConfig.lam)
    training.add_argument("--epochs", type=int, default=TrainConfig.epochs)

    p = sub.add_parser("mine-scripts",
                       help="mine attribute weights from a script corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--lexicon",
                   help="synonym lexicon TSV; synonyms count when given")
    p.add_argument("--binarize", action="store_true")
    p.set_defaults(func=_cmd_mine_scripts)

    p = sub.add_parser("gen-synthetic",
                       help="generate a synthetic benchmark bundle")
    p.add_argument("--output", required=True)
    defaults = SyntheticConfig
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--data-mode", choices=("scores", "features"),
                   default=defaults.mode)
    p.add_argument("--composites", type=int, default=defaults.num_composites)
    p.add_argument("--activities", type=int, default=defaults.num_activities)
    p.add_argument("--objects", type=int, default=defaults.num_objects)
    p.add_argument("--videos", type=_ints,
                   default=defaults.videos_per_composite,
                   help="train,val,test videos per composite")
    p.add_argument("--t-range", type=_ints, default=defaults.t_range)
    p.add_argument("--signal", type=float, default=defaults.signal)
    p.add_argument("--noise", type=float, default=defaults.noise)
    p.add_argument("--background-rate", type=float,
                   default=defaults.background_rate)
    p.set_defaults(func=_cmd_gen_synthetic)

    p = sub.add_parser("train-attributes", parents=[bundle_io, training],
                       help="train interval attribute classifiers")
    p.set_defaults(func=_cmd_train_attributes)

    p = sub.add_parser("score", parents=[bundle_io],
                       help="score bundle intervals with trained models")
    p.add_argument("--models", required=True)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("stack", parents=[bundle_io, training],
                       help="refine a scores bundle with context features")
    p.add_argument("--mode", required=True,
                   choices=("context", "cooccurrence"))
    p.set_defaults(func=_cmd_stack)

    p = sub.add_parser("detect",
                       help="sliding window detection over a count stream")
    p.add_argument("--counts", required=True, help="(T, B) .npy count file")
    p.add_argument("--models", required=True)
    p.add_argument("--attribute", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--video", default="video")
    p.add_argument("--nms-threshold", type=finite_float, default=0.0)
    p.add_argument("--criterion", choices=("overlap", "iou"),
                   default="overlap")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("segment",
                       help="agglomerative segmentation of a count stream")
    p.add_argument("--counts", required=True)
    p.add_argument("--threshold", type=finite_float, required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--span", type=int, default=60)
    p.set_defaults(func=_cmd_segment)

    p = sub.add_parser("classify-composites", parents=[bundle_io],
                       help="classify a bundle's test sequences")
    p.add_argument("--mode", required=True, choices=MODES)
    p.add_argument("--weights", choices=("mined", "planted"),
                   default="mined")
    p.add_argument("--stack", choices=STACK_MODES)
    p.add_argument("--segment-threshold", type=float)
    p.add_argument("--pst-config", help="fixed propagation parameter file")
    p.set_defaults(func=_cmd_classify_composites)

    p = sub.add_parser("pose-infer",
                       help="infer a part layout from likelihood grids "
                            "with the separable message kernel")
    p.add_argument("--grids", required=True, help="(P, H, W) .npy file")
    p.add_argument("--output", required=True)
    p.add_argument("--mode", choices=("map", "marginal"), default="map",
                   help="MAP layout (CSV) or per-part posterior maps (NPZ)")
    p.add_argument("--scale", type=float, default=1.0)
    p.set_defaults(func=_cmd_pose_infer)

    p = sub.add_parser("eval", help="evaluate detections against truth")
    p.add_argument("--detections", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--criterion", choices=("midpoint", "iou"),
                   default="midpoint")
    p.add_argument("--iou", type=finite_float, default=0.5)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("run", help="run an experiment from a JSON config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return int(args.func(args))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:                        # noqa: BLE001
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
