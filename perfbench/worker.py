"""Runs the passes of one workload in a fresh process.

Started by run.py with the path of a JSON spec; writes a JSON result
next to it.  Being its own process, its peak resident set is the
workload's alone: setup and the launcher do not count.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import statistics
import sys
import time

# stop starting passes after this long, so the launcher ends well within
# its own limit even if a pass is slow
HARD_LIMIT_S = 150.0
MIN_PASSES = 2


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import clock
    import tracing
    import workloads

    probe = clock.Probe()
    tracer = tracing.Tracer(probe.now) if spec["trace"] else None
    times = {"untraced": [], "traced": []}       # rescaled, see clock.py
    walls = {"untraced": [], "traced": []}
    real = []
    traced_passes = []
    reference = {}
    quality = None
    attempted = failed = 0
    failures = []
    out = os.path.join(spec["work"], "out")
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(times["untraced"]) > \
            len(times["traced"])
        kind = "traced" if traced else "untraced"
        log = workloads.JobLog(tracer.span if traced
                               else lambda name: contextlib.nullcontext())
        t0 = time.perf_counter()
        with tracer.install() if traced else contextlib.nullcontext():
            probe.start()
            try:
                q = workloads.run_pass(spec["workload"], spec["inputs"], out,
                                       log, reference)
            finally:
                wall, scaled = probe.stop()
        real.append(time.perf_counter() - t0)
        walls[kind].append(wall)
        times[kind].append(scaled)
        if traced:
            traced_passes.append(tracer.reset())
        quality = quality or q
        attempted += log.attempted
        failed += log.failed
        failures.extend(log.failures)
        elapsed = time.perf_counter() - start
        if elapsed > HARD_LIMIT_S or (
                len(real) >= MIN_PASSES
                and elapsed + statistics.median(real) > spec["seconds"]):
            break

    result = {"times": times, "walls": walls, "kernels": probe.kernels,
              "quality": quality, "attempted": attempted,
              "failed": failed, "failures": failures[:50],
              "peak_rss_kb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        per_pass = [tracing.layer_metrics(spans, counts, keys,
                                          spec["layer_names"])
                    for spans, counts, keys in traced_passes]
        result["layers"] = {name: statistics.median(p[name] for p in per_pass)
                            for name in spec["layer_names"]}
        tracing.write_spans(spec["trace_path"], traced_passes)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
