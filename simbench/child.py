"""One benchmark run: a single entry-point call in this fresh process.

Usage: ``python child.py '{"workload": ..., "seed": ..., "trace": ...,
"spans": ..., "run_id": ...}'`` with ``src`` on ``PYTHONPATH``.

A fresh process per call because the simulator keeps module-level
memos that make a second call in one process faster, while every
``repro-serve`` user pays the cold cost.  The last line of standard
output is one JSON object with the run's timings, checks and counters.

An untraced run samples host speed throughout (``hostspeed``) and
reports each phase in reference seconds, plus the whole run's scale
and its unscaled wall time.  A traced run takes no samples, so that
its spans hold only the simulator's own time; it reports host
seconds.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import hostspeed


def main() -> int:
    config = json.loads(sys.argv[1])
    sampler = None if config["trace"] else hostspeed.SpeedSampler()
    if sampler is not None:
        sampler.start()
    started = time.perf_counter()
    import repro.fleet  # noqa: F401
    import repro.serve  # noqa: F401

    imported = time.perf_counter()

    import tracing

    tracer = None
    if config["trace"]:
        tracer = tracing.Tracer(run_id=config["run_id"])
        tracer.install()
    marker = tracing.SetupMarker()
    marker.install()

    import checks
    import workloads

    run = workloads.WORKLOADS[config["workload"]]
    seed = config["seed"]
    begun = time.perf_counter()
    if tracer is None:
        specs, result = run(seed)
    else:
        specs, result = tracer.run(run, seed)
    ended = time.perf_counter()
    if sampler is not None:
        sampler.stop()
    if marker.at is None:
        raise RuntimeError("no request ever reached a scheduler")
    report = {
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "fingerprints": checks.fingerprints(result),
        "conservation": checks.conservation(specs, result),
        "counters": checks.counters(result),
    }
    if tracer is not None:
        tracer.write(config["spans"])
        report.update(
            # The root span is the wall time the layer self times sum to.
            wall_s=tracer.wall_s(),
            setup_s=marker.at - begun,
            import_s=imported - started,
        )
    else:
        report.update(
            wall_s=sampler.reference_s(begun, ended),
            setup_s=sampler.reference_s(begun, marker.at),
            serving_s=sampler.reference_s(marker.at, ended),
            import_s=sampler.reference_s(started, imported),
            host_wall_s=sampler.net_s(begun, ended),
            scale=sampler.scale(),
        )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
