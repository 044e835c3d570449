"""Command line front end.

Each subcommand is a thin wrapper over one library entry point and
talks through the package's file formats (CSV, JSONL, npy/npz).  Exit
codes: 0 on success, 1 for configuration problems, 2 for anything else.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .attributes import (load_annotations, load_models_npz, save_models_npz,
                         save_scores_csv, score_intervals,
                         train_and_score_stacked, train_linear_ova,
                         ScoreMatrix, STACK_MODES)
from .composites import load_pst_config
from .corpus import (binarize_weights, build_documents, load_lexicon,
                     load_script_corpus, load_vocab, normalize_l1,
                     save_weights_csv, tfidf_weights)
from .experiment import ConfigError, MODES, run_experiment, train_config
from .metrics import EvalReport, eval_detection
from .psinfer import (default_part_graph, infer, load_grids,
                      save_placements_csv)
from .synth import SyntheticConfig, gen_synthetic, load_bundle, save_bundle
from .temporal import (build_integral, load_detections_csv, nms,
                       save_detections_csv, save_segments_jsonl,
                       score_windows, segment_agglomerative)


def _int_pair(text, name):
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"{name} must be two comma-separated integers")
    return (int(parts[0]), int(parts[1]))


def _cmd_mine_scripts(args):
    corpus = load_script_corpus(args.corpus)
    vocab = load_vocab(args.vocab)
    lexicon = load_lexicon(args.lexicon) if args.lexicon else None
    docs = build_documents(corpus)
    weights = tfidf_weights(docs, vocab, lexicon, args.match_mode)
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
            num_objects=args.objects,
            videos_per_composite=tuple(int(v)
                                       for v in args.videos.split(",")),
            t_range=_int_pair(args.t_range, "--t-range"),
            signal=args.signal, noise=args.noise, seed=args.seed,
            mode=args.data_mode, background_rate=args.background_rate)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    bundle = gen_synthetic(cfg)
    save_bundle(bundle, args.output)
    print(f"wrote bundle with {len(bundle.sequences)} sequences "
          f"({cfg.mode} mode) -> {args.output}")
    return 0


def _cmd_train_attributes(args):
    cfg = train_config(args.lam, args.epochs, args.seed)
    bundle = load_bundle(args.bundle)
    if bundle.config.mode != "features":
        raise ConfigError("training needs a bundle generated in features "
                          "mode; this one carries precomputed scores")
    train = bundle.split("train")
    X = np.concatenate([s.features for s in train], axis=0)
    labels = [set(a) for s in train for a in s.interval_attributes]
    model_set = train_linear_ova(X, labels,
                                 bundle.true_weights.attributes, cfg)
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
    os.makedirs(args.output, exist_ok=True)
    for seq in bundle.sequences:
        S = score_intervals(model_set, seq.features)
        save_scores_csv(S, os.path.join(args.output,
                                        f"{seq.sequence_id}.csv"))
    print(f"scored {len(bundle.sequences)} sequences -> {args.output}")
    return 0


def _cmd_stack(args):
    cfg = train_config(args.lam, args.epochs, args.seed)
    bundle = load_bundle(args.bundle)
    if bundle.config.mode != "scores":
        raise ConfigError("the stack command refines precomputed score "
                          "bundles; use 'run' for feature bundles")
    if args.mode not in ("context", "cooccurrence"):
        raise ConfigError("stacking from scores supports modes 'context' "
                          "and 'cooccurrence' only")
    labels = bundle.true_weights.attributes
    train = bundle.split("train")
    train_scores = [ScoreMatrix(s.scores, labels) for s in train]
    train_labels = [[set(a) for a in s.interval_attributes] for s in train]
    eval_scores = [ScoreMatrix(s.scores, labels) for s in bundle.sequences]
    refined = train_and_score_stacked(train_scores, train_labels,
                                      eval_scores, args.mode, config=cfg)
    os.makedirs(args.output, exist_ok=True)
    for seq, S in zip(bundle.sequences, refined):
        save_scores_csv(S, os.path.join(args.output,
                                        f"{seq.sequence_id}.csv"))
    print(f"stacked ({args.mode}) {len(refined)} sequences -> {args.output}")
    return 0


def _cmd_detect(args):
    counts = np.load(args.counts)
    table = build_integral(counts)
    model_set = load_models_npz(args.models)
    if args.attribute not in model_set.labels:
        raise ConfigError(f"attribute {args.attribute!r} is not in the "
                          "model file")
    row = model_set.labels.index(args.attribute)

    def scorer(hist):
        return float(score_intervals(model_set,
                                     hist[None, :]).values[row, 0])

    dets = score_windows(table, scorer, video=args.video,
                         attribute=args.attribute)
    kept = nms(dets, overlap_threshold=args.nms_threshold,
               criterion=args.criterion)
    save_detections_csv(kept, args.output)
    print(f"{len(dets)} windows scored, {len(kept)} kept after "
          f"suppression -> {args.output}")
    return 0


def _cmd_segment(args):
    counts = np.load(args.counts)
    table = build_integral(counts)
    segs = segment_agglomerative(table, args.threshold, span=args.span)
    save_segments_jsonl(segs, args.output)
    print(f"{table.num_frames} frames -> {len(segs)} segments "
          f"-> {args.output}")
    return 0


def _cmd_classify_composites(args):
    cfg = {"data": args.bundle, "output": args.output, "mode": args.mode,
           "weights": args.weights}
    if args.stack:
        cfg["stack"] = args.stack
    if args.segment_threshold is not None:
        cfg["segment_threshold"] = args.segment_threshold
    if args.pst_config:
        try:
            p = load_pst_config(args.pst_config)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        cfg["pst"] = {"alpha": p.alpha, "gamma": p.gamma,
                      "delta": p.delta, "k": p.k}
    report = run_experiment(cfg)
    print(report.to_table())
    return 0


def _cmd_pose_infer(args):
    algorithm = args.algorithm
    if algorithm is None:
        algorithm = "naive" if args.mode == "marginal" else "distance_transform"
    elif args.mode == "marginal" and algorithm != "naive":
        raise ConfigError("marginal mode requires --algorithm naive")
    try:
        graph = default_part_graph(scale=args.scale)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    grids = load_grids(args.grids)
    result = infer(grids, graph, mode=args.mode, algorithm=algorithm)
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
    parser = argparse.ArgumentParser(
        prog="actkit",
        description="composite activity recognition toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mine-scripts",
                       help="mine attribute weights from a script corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--lexicon")
    p.add_argument("--match-mode", choices=("literal", "synonym"),
                   default="literal")
    p.add_argument("--binarize", action="store_true")
    p.set_defaults(func=_cmd_mine_scripts)

    p = sub.add_parser("gen-synthetic",
                       help="generate a synthetic benchmark bundle")
    p.add_argument("--output", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--data-mode", choices=("scores", "features"),
                   default="scores")
    p.add_argument("--composites", type=int, default=6)
    p.add_argument("--activities", type=int, default=8)
    p.add_argument("--objects", type=int, default=12)
    p.add_argument("--videos", default="3,1,2",
                   help="train,val,test videos per composite")
    p.add_argument("--t-range", default="8,12")
    p.add_argument("--signal", type=float, default=3.0)
    p.add_argument("--noise", type=float, default=0.5)
    p.add_argument("--background-rate", type=float, default=0.0)
    p.set_defaults(func=_cmd_gen_synthetic)

    p = sub.add_parser("train-attributes",
                       help="train interval attribute classifiers")
    p.add_argument("--bundle", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--lam", type=float, default=0.01)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_train_attributes)

    p = sub.add_parser("score",
                       help="score bundle intervals with trained models")
    p.add_argument("--bundle", required=True)
    p.add_argument("--models", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("stack",
                       help="refine attribute scores with context features")
    p.add_argument("--bundle", required=True)
    p.add_argument("--mode", required=True, choices=STACK_MODES)
    p.add_argument("--output", required=True)
    p.add_argument("--lam", type=float, default=0.01)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_stack)

    p = sub.add_parser("detect",
                       help="sliding window detection over a count stream")
    p.add_argument("--counts", required=True, help="(T, B) .npy count file")
    p.add_argument("--models", required=True)
    p.add_argument("--attribute", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--video", default="video")
    p.add_argument("--nms-threshold", type=float, default=0.0)
    p.add_argument("--criterion", choices=("overlap", "iou"),
                   default="overlap")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("segment",
                       help="agglomerative segmentation of a count stream")
    p.add_argument("--counts", required=True)
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--span", type=int, default=60)
    p.set_defaults(func=_cmd_segment)

    p = sub.add_parser("classify-composites",
                       help="classify a bundle's test sequences")
    p.add_argument("--bundle", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--mode", required=True, choices=MODES)
    p.add_argument("--weights", choices=("mined", "planted"),
                   default="mined")
    p.add_argument("--stack", choices=STACK_MODES)
    p.add_argument("--segment-threshold", type=float)
    p.add_argument("--pst-config", help="fixed propagation parameter file")
    p.set_defaults(func=_cmd_classify_composites)

    p = sub.add_parser("pose-infer",
                       help="infer a part layout from likelihood grids")
    p.add_argument("--grids", required=True, help="(P, H, W) .npy file")
    p.add_argument("--output", required=True)
    p.add_argument("--mode", choices=("map", "marginal"), default="map")
    p.add_argument("--algorithm",
                   choices=("naive", "distance_transform"),
                   default=None,
                   help="MAP message pass: distance_transform (separable "
                        "kernel, the default) or naive (full pairwise); "
                        "marginals take only naive")
    p.add_argument("--scale", type=float, default=1.0)
    p.set_defaults(func=_cmd_pose_infer)

    p = sub.add_parser("eval", help="evaluate detections against truth")
    p.add_argument("--detections", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--criterion", choices=("midpoint", "iou"),
                   default="midpoint")
    p.add_argument("--iou", type=float, default=0.5)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("run", help="run an experiment from a JSON config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
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
