"""actkit benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload zeroshot --seed 1 --seconds 25 --trace 0

Generates the workload's inputs from the seed (several times, to time
set-up), then runs full passes of the workload's jobs in a fresh worker
process for about --seconds, checks every output, and prints each metric
by name and unit.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
A fuller record (provenance, input manifest, samples) is written under
perfbench/_work/results/.  README.md in this directory defines every
workload and metric.
"""

import os
import sys
from pathlib import Path

# Cap BLAS threads for this process and its worker before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The benchmark builds nothing: it runs the sources of the checkout it
# sits in, and refuses to run without them.
if not (SRC / "actkit" / "__init__.py").is_file() \
        or not (ROOT / "BENCHMARK.json").is_file():
    print(f"perfbench: no actkit sources under {SRC}; run from a checkout "
          "of the repository", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import actkit  # noqa: E402
import clock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYER_NAMES = [m["name"] for m in BENCH["per_layer"]]
QUALITY_METRICS = ("mean_ap", "accuracy", "pcp")

SETUP_MIN_REPS = 5
SETUP_MIN_S = 1.0          # repeat set-up until it has taken this long...
SETUP_MAX_REPS = 30        # ...or this many times
SETUP_SAMPLE_S = 0.05      # speed probe interval during set-up
TIME_LIMIT_S = 175.0       # the whole invocation, worker included
SETUP_RESERVE_S = 15.0     # kept from the worker for the later set-ups


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def provenance() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "actkit").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
            "git_commit": commit or None,
            "source_sha256": src_hash.hexdigest()}


def timing(samples) -> dict:
    """Median, sample count and the highest percentile with at least ten
    samples beyond it (None with fewer than eleven samples)."""
    xs = sorted(samples)
    rank = len(xs) - 10
    tail = None if rank < 1 else {"percentile": 100.0 * rank / len(xs),
                                  "value": xs[rank - 1]}
    return {"median": statistics.median(xs), "samples": len(xs),
            "tail": tail, "values": samples}


class SetupTimer:
    """Times repeated set-ups of one workload's inputs.

    The first repetition writes the inputs the worker runs on; the rest
    run after the worker, so the samples span the whole run instead of
    one moment of it.  The speed probe samples every SETUP_SAMPLE_S here,
    as one set-up lasts only a fraction of a second.
    """

    def __init__(self, args, size, work):
        self.args, self.size, self.work = args, size, work
        self.probe = clock.Probe()
        self.tracer = tracing.Tracer(self.probe.now) if args.trace else None
        self.samples, self.walls, self.layers = [], [], []

    def rep(self):
        path = self.work / f"inputs{len(self.samples)}"
        with self.tracer.install() if self.tracer \
                else contextlib.nullcontext():
            self.probe.start(SETUP_SAMPLE_S)
            workloads.setup(self.args.workload, self.args.seed, self.size,
                            path)
            wall, scaled = self.probe.stop()
        self.walls.append(wall)
        self.samples.append(scaled)
        if self.tracer:
            self.layers.append(self.tracer.reset())

    def repeat(self):
        while len(self.samples) < SETUP_MIN_REPS or (
                sum(self.walls) < SETUP_MIN_S
                and len(self.samples) < SETUP_MAX_REPS):
            self.rep()

    def finish(self):
        """Returns (manifest of the first inputs, failures, per-layer
        medians or None) and removes all but the first inputs."""
        found = [workloads.manifest(self.work / f"inputs{k}")
                 for k in range(len(self.samples))]
        for k in range(1, len(found)):
            shutil.rmtree(self.work / f"inputs{k}")
        hashes = {m["sha256"] for m in found}
        failures = [] if len(hashes) == 1 else [
            f"setup: seed {self.args.seed} gave {len(hashes)} different "
            "inputs"]
        print(*failures, sep="\n", file=sys.stderr)
        medians = None
        if self.tracer:
            per_rep = [tracing.layer_metrics(s, c, d, LAYER_NAMES)
                       for s, c, d in self.layers]
            medians = {k: statistics.median(r[k] for r in per_rep)
                       for k in LAYER_NAMES}
        return found[0], failures, medians


def run_worker(args, work, result_base, started) -> dict:
    spec = {"src": str(SRC), "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace,
            "inputs": str(work / "inputs0"), "work": str(work),
            "result": str(work / "worker.json"),
            "trace_path": f"{result_base}.spans.json",
            "layer_names": LAYER_NAMES}
    with open(work / "spec.json", "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    budget = TIME_LIMIT_S - SETUP_RESERVE_S \
        - (time.perf_counter() - started)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(work / "spec.json")],
            stdout=sys.stderr, timeout=max(budget, 1.0))
    except subprocess.TimeoutExpired:
        fail(f"the worker did not finish within {budget:.0f} s")
    if proc.returncode != 0:
        fail(f"the worker exited with code {proc.returncode}")
    with open(spec["result"], encoding="utf-8") as fh:
        return json.load(fh)


def measure(args, size, work, result_base, started) -> dict:
    setup = SetupTimer(args, size, work)
    setup.rep()
    res = run_worker(args, work, result_base, started)
    setup.repeat()
    manifest, failures, setup_layers = setup.finish()
    setup_samples, setup_walls = setup.samples, setup.walls

    attempted = res["attempted"] + 1            # + the set-up check
    failed = res["failed"] + len(failures)
    failures += res["failures"]
    times = res["times"]
    not_measured = [q for q in QUALITY_METRICS
                    if q not in workloads.QUALITY[args.workload]]
    if args.trace:
        values = {k: res["layers"][k] + setup_layers[k] for k in LAYER_NAMES}
        values["bench.trace_overhead"] = (
            statistics.median(times["traced"])
            / statistics.median(times["untraced"]) - 1.0)
        declared = BENCH["per_layer"]
    else:
        quality = res["quality"] or {}
        values = {"setup_s": statistics.median(setup_samples),
                  "run_s": statistics.median(times["untraced"]),
                  "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
                  "success_rate": 1.0 - failed / attempted}
        for name in QUALITY_METRICS:
            values[name] = 1.0 if name in not_measured \
                else float(quality.get(name) or 0.0)
        declared = BENCH["end_to_end"]
    why = {w["name"]: w["why"] for w in BENCH["workloads"]}
    record = {
        "workload": args.workload, "why": why.get(args.workload),
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke, "provenance": provenance(),
        "inputs": manifest,
        "setup_s": timing(setup_samples),
        "setup_wall_s": timing(setup_walls),
        "run_s": timing(times["untraced"]),
        "run_wall_s": timing(res["walls"]["untraced"]),
        "traced_run_s": timing(times["traced"]) if times["traced"] else None,
        "kernel_s": timing(res["kernels"]),
        "quality": res["quality"],
        "quality_not_measured": not_measured,
        "failures": failures,
        "result": {"correct": failed == 0, "attempted": attempted,
                   "failed": failed,
                   "metrics": {m["name"]: {"value": values[m["name"]],
                                           "unit": m["unit"]}
                               for m in declared}},
        "record_path": f"{result_base}.json",
    }
    with open(record["record_path"], "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return record


def report(record):
    for name, m in record["result"]["metrics"].items():
        print(f"{name:<36} {m['value']:>16.6g} {m['unit']}")
    for line in record["failures"]:
        print(f"FAILED {line}")
    run = record["run_s"]
    tail = run["tail"] or "n/a (fewer than 11 passes)"
    print(f"run_s: median of {run['samples']} passes; tail {tail}")
    print(f"inputs sha256 {record['inputs']['sha256']}; record in "
          f"{record['record_path']}")
    print(json.dumps(record["result"]))


def main(argv=None):
    if Path(actkit.__file__).resolve().parent != SRC / "actkit":
        fail(f"imported actkit from {actkit.__file__}, not from {SRC}")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own test")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    started = time.perf_counter()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + \
        ("-smoke" if args.smoke else "")
    results = HERE / "_work" / "results"
    work = HERE / "_work" / f"{tag}-{os.getpid()}"
    results.mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True)
    try:
        record = measure(args, "smoke" if args.smoke else "full", work,
                         results / tag, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(record)


if __name__ == "__main__":
    main()
