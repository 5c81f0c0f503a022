"""Host cost of the serving simulator, end to end and split by layer.

Usage, from the repository root::

    python3 simbench/run.py --workload serve_steady --seed 0 --seconds 30 --trace 0

Each run of the measured loop is one call of a public entry point
(``simulate_serving`` or ``simulate_fleet``) in a fresh
single-threaded child process (``child.py``).  Runs repeat until
``--seconds`` is spent, after one unmeasured warm-up run, and every
metric is the median over the measured runs.

``--trace 0`` prints the end-to-end metrics declared in
``BENCHMARK.json``.  ``--trace 1`` alternates untraced runs with runs
whose layer functions are wrapped in spans (``tracing.py``), and
prints per-layer calls, self time and share of traced wall time, the
program's own counters as ratios with their bases, and the tracing
overhead against the untraced runs.

Host times are net of, and scaled by, the host-speed samples that
each untraced run takes on its own core (``hostspeed.py``): they read
as seconds on a reference host, which keeps a shared machine's speed
swings out of the comparison.  The probe shares the simulator's
process, so a change to the simulator can move it too; the median
scale and the unscaled wall time go to standard error, so that this
shows.

Every run's output is checked: the simulated output's fingerprint
must equal the recorded one on the default seed and be the same in
every run of one invocation, every generated request must finish or
be shed exactly once, and ``serve_observed`` must simulate the same
records as ``serve_steady`` (its warm-up run is ``serve_steady``).
A run that fails a check counts in ``failed``.  After a change that
is meant to alter the simulated output, copy the hash that the failed
check prints into ``fingerprints.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".simbench")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")

WORKLOADS = ("serve_steady", "serve_observed", "fleet_prefix", "serve_degraded")
#: Warm-up workload whose records the measured workload must reproduce.
INERT_REFERENCE = {"serve_observed": "serve_steady"}
#: Longest a single run may take before it is killed and counted failed.
RUN_TIMEOUT_S = 120.0

LAYERS = tuple(tracing.SPANS)

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_req_per_s", "1/s"),
    ("import_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Program counters as (name, unit, better); each ratio is printed
#: next to its base.
COUNTERS = (
    ("pricing.cache.lookups", "count", "lower"),
    ("pricing.cache.hit_rate", "fraction", "higher"),
    ("pricing.cache.invalidations", "count", "lower"),
    ("fleet.prefix.lookups", "count", "lower"),
    ("fleet.prefix.hit_rate", "fraction", "higher"),
    ("serve.requests_ended", "count", "higher"),
    ("serve.prefill_iterations", "count", "lower"),
    ("serve.decode_iterations", "count", "lower"),
    ("kv.migrations", "count", "lower"),
    ("kv.migrations_per_req", "1/req", "lower"),
    ("faults.transfers", "count", "lower"),
    ("faults.retry_rate", "fraction", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
)


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    """Every ``--trace 1`` metric as ``(name, unit, better)``."""
    metrics = []
    for layer in LAYERS:
        metrics.append((f"{layer}.calls", "count", "lower"))
        metrics.append((f"{layer}.self_s", "s", "lower"))
        metrics.append((f"{layer}.share", "fraction", "lower"))
    metrics.extend(COUNTERS)
    return metrics


def _ratio(part: float, base: float) -> float:
    return part / base if base else 0.0


def _child_env() -> Dict[str, str]:
    # The simulator reads REPRO_* settings (REPRO_SANITIZE switches its
    # sanitizer on), so a caller's exported value would change what is
    # measured and checked.
    env = {
        name: value
        for name, value in os.environ.items()
        if not name.startswith("REPRO_")
    }
    env["PYTHONPATH"] = SRC
    # One core per run: numpy's BLAS pools would otherwise compete
    # with the next run and with the host's other work.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_child(workload: str, seed: int, trace: bool, run_id: int) -> dict:
    """One entry-point call in a fresh process; raises if it fails."""
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, f"spans-{workload}.jsonl")
    config = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "spans": spans,
        "run_id": run_id,
    }
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), json.dumps(config)],
        cwd=ROOT,
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=RUN_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} run {run_id} exited {done.returncode}: "
            f"{done.stderr.strip()[-2000:]}"
        )
    report = json.loads(done.stdout.strip().splitlines()[-1])
    if trace:
        report["spans"] = tracing.self_times(tracing.read_spans(spans))
    return report


class Checker:
    """Applies the output checks to every run of one invocation."""

    def __init__(
        self, workload: str, expected_output: Optional[str]
    ) -> None:
        self.workload = workload
        self.expected_output = expected_output
        self.first_output: Optional[str] = None
        self.reference_records: Optional[str] = None

    def problems(self, run_workload: str, report: dict) -> List[str]:
        found = []
        balance = report["conservation"]
        if not balance["balanced"]:
            found.append(
                f"conservation: {balance['generated']} generated, "
                f"{balance['finished']} finished + {balance['shed']} shed"
            )
        prints = report["fingerprints"]
        if run_workload != self.workload:
            # The inertness reference run.
            self.reference_records = prints["records"]
            return found
        if self.expected_output is not None and (
            prints["output"] != self.expected_output
        ):
            found.append(
                f"fingerprint {prints['output']} != recorded "
                f"{self.expected_output}"
            )
        if self.first_output is None:
            self.first_output = prints["output"]
        elif prints["output"] != self.first_output:
            found.append("output differs from this invocation's first run")
        if (
            self.reference_records is not None
            and prints["records"] != self.reference_records
        ):
            found.append(
                f"records differ from {INERT_REFERENCE[self.workload]}'s: "
                "the observer is not inert"
            )
        return found


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ended(run: dict) -> int:
    balance = run["conservation"]
    return balance["finished"] + balance["shed"]


def end_to_end(runs: List[dict]) -> Dict[str, float]:
    """Medians over untraced ``runs`` (their times are reference seconds)."""
    return {
        "wall_s": _median([run["wall_s"] for run in runs]),
        "setup_s": _median([run["setup_s"] for run in runs]),
        "sim_req_per_s": _median([_ended(run) / run["serving_s"] for run in runs]),
        "import_s": _median([run["import_s"] for run in runs]),
        "peak_rss_mb": _median([run["peak_rss_mb"] for run in runs]),
    }


def per_layer(untraced: List[dict], traced: List[dict]) -> Dict[str, float]:
    """Medians over ``traced`` runs, their host times in reference
    seconds at the speed the untraced runs sampled."""
    # Traced runs sample no host speed (it would land in their spans).
    scale = _median([run["scale"] for run in untraced])
    values: Dict[str, float] = {}
    for layer in LAYERS:
        calls, self_s, share = [], [], []
        for run in traced:
            entry = run["spans"].get(layer, {"calls": 0, "self_s": 0.0})
            calls.append(entry["calls"])
            self_s.append(scale * entry["self_s"])
            share.append(entry["self_s"] / run["wall_s"])
        values[f"{layer}.calls"] = _median(calls)
        values[f"{layer}.self_s"] = _median(self_s)
        values[f"{layer}.share"] = _median(share)
    # The program's counters are deterministic: every run reports the
    # same values, which the fingerprint checks already pin.
    counters = traced[0]["counters"]
    cache, prefix = counters["price_cache"], counters["prefix"]
    kv, faults, serve = counters["kv"], counters["faults"], counters["serve"]
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    prefix_lookups = prefix.get("hits", 0) + prefix.get("misses", 0)
    ended = _ended(traced[0])
    untraced_wall = _median([run["wall_s"] for run in untraced])
    traced_wall = scale * _median([run["wall_s"] for run in traced])
    values.update(
        {
            "pricing.cache.lookups": lookups,
            "pricing.cache.hit_rate": _ratio(cache.get("hits", 0), lookups),
            "pricing.cache.invalidations": cache.get("invalidations", 0),
            "fleet.prefix.lookups": prefix_lookups,
            "fleet.prefix.hit_rate": _ratio(prefix.get("hits", 0), prefix_lookups),
            "serve.requests_ended": ended,
            "serve.prefill_iterations": serve.get("prefill_iterations", 0),
            "serve.decode_iterations": serve.get("decode_iterations", 0),
            "kv.migrations": kv.get("migrations", 0),
            "kv.migrations_per_req": _ratio(kv.get("migrations", 0), ended),
            "faults.transfers": faults.get("transfers", 0),
            "faults.retry_rate": _ratio(
                faults.get("retried_transfers", 0), faults.get("transfers", 0)
            ),
            "trace.untraced_wall_s": untraced_wall,
            "trace.wall_s": traced_wall,
            "trace.overhead_frac": _ratio(traced_wall, untraced_wall) - 1.0,
        }
    )
    return values


def _load_expected(workload: str, seed: int) -> Optional[str]:
    with open(FINGERPRINTS, encoding="utf-8") as handle:
        recorded = json.load(handle)
    if seed != recorded["seed"]:
        return None
    return recorded["output"][workload]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "serve", "simulator.py")):
        print(f"simbench: no simulator source under {SRC}", file=sys.stderr)
        return 2
    checker = Checker(args.workload, _load_expected(args.workload, args.seed))
    attempted = failed = 0
    untraced: List[dict] = []
    traced: List[dict] = []

    def attempt(workload: str, trace: bool) -> Optional[dict]:
        """One checked run; ``None`` only if it produced no report."""
        nonlocal attempted, failed
        attempted += 1
        try:
            report = run_child(workload, args.seed, trace, attempted)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as error:
            failed += 1
            print(f"simbench: {error}", file=sys.stderr)
            return None
        problems = checker.problems(workload, report)
        if problems:
            failed += 1
            for problem in problems:
                print(f"simbench: {workload}: {problem}", file=sys.stderr)
        return report

    attempt(INERT_REFERENCE.get(args.workload, args.workload), False)
    started = time.perf_counter()
    durations: List[float] = []
    # The measured loop: in trace mode, untraced and traced runs
    # alternate so both see the same host conditions.
    plan = [False, True] if args.trace else [False]
    while True:
        for trace in plan:
            begun = time.perf_counter()
            report = attempt(args.workload, trace)
            durations.append(time.perf_counter() - begun)
            if report is not None:
                (traced if trace else untraced).append(report)
        elapsed = time.perf_counter() - started
        # Stop before a round that would overrun the budget.
        if elapsed + len(plan) * _median(durations) > args.seconds:
            break
    if not untraced or (args.trace and not traced):
        print("simbench: no run produced a report", file=sys.stderr)
        return 1
    if args.trace:
        values = per_layer(untraced, traced)
        declared = per_layer_metrics()
    else:
        values = end_to_end(untraced)
        declared = [(name, unit, None) for name, unit in END_TO_END]
    print(
        f"simbench: {args.workload} seed {args.seed}: {len(untraced)} untraced"
        f" and {len(traced)} traced runs; median scale "
        f"{_median([run['scale'] for run in untraced]):.3f}; unscaled "
        f"wall_s {_median([run['host_wall_s'] for run in untraced]):.4f}",
        file=sys.stderr,
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit, _ in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
