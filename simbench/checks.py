"""Output checks and program counters, read off one entry-point result.

The simulator is deterministic, so its simulated output (summaries,
per-request records, shed requests) is fingerprinted rather than
timed: a change that only makes the simulator faster must leave the
fingerprint bit-identical.  The simulator's own host-side cache
counters describe how it got there, not what it simulated, so they
stay out of the fingerprint and go to :func:`counters` instead.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Dict, List, Sequence, Tuple

#: Summary keys that count the simulator's own memo work, which a
#: speed-only change may legitimately alter.
HOST_COUNTER_KEYS = ("price_cache", "backend_memo", "prewarmed_prices")


def _plain(value):
    """A JSON-ready copy of ``value`` with every float kept exact."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _plain(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, enum.Enum):
        return _plain(value.value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def _sha256(value) -> str:
    # json writes floats with repr(), which round-trips exactly.
    text = json.dumps(_plain(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _summary(serving) -> Dict[str, object]:
    return {
        key: value
        for key, value in serving.summary().items()
        if key not in HOST_COUNTER_KEYS
    }


def _servings(result) -> List[object]:
    """The single-engine results inside ``result`` (one per replica)."""
    replicas = getattr(result, "replicas", None)
    if replicas is None:
        return [result]
    return [replica.result for replica in replicas]


def records_and_shed(result) -> Tuple[list, list]:
    records, shed = [], []
    for serving in _servings(result):
        records.extend(serving.records)
        shed.extend(serving.shed)
    records.sort(key=lambda r: (r.arrival_s, r.request_id))
    shed.sort(key=lambda s: (s.arrival_s, s.request_id))
    return records, shed


def fingerprints(result) -> Dict[str, str]:
    """``output``: everything simulated; ``records``: records and shed only.

    ``records`` is what an observer must leave untouched; ``output``
    also covers the summaries (and, for a fleet, the fleet metrics,
    routing assignments and every replica's summary).
    """
    records, shed = records_and_shed(result)
    if hasattr(result, "replicas"):
        output = {
            "setup": result.setup,
            "metrics": result.metrics,
            "assignments": sorted(result.assignments.items()),
            "replicas": [
                {
                    "index": replica.index,
                    "routed": replica.routed,
                    "summary": _summary(replica.result),
                }
                for replica in result.replicas
            ],
        }
    else:
        output = {"summary": _summary(result)}
    output["records"] = records
    output["shed"] = shed
    return {"output": _sha256(output), "records": _sha256([records, shed])}


def conservation(specs: Sequence, result) -> Dict[str, int]:
    """Generated, finished and shed counts, and whether they balance.

    Every generated request must end exactly once: finished or shed.
    """
    records, shed = records_and_shed(result)
    generated = sorted(spec.request_id for spec in specs)
    ended = sorted(
        [record.request_id for record in records]
        + [item.request_id for item in shed]
    )
    return {
        "generated": len(generated),
        "finished": len(records),
        "shed": len(shed),
        "balanced": generated == ended,
    }


def _add(total: Dict[str, float], part: Dict[str, object], keys) -> None:
    for key in keys:
        total[key] = total.get(key, 0) + part.get(key, 0)


def counters(result) -> Dict[str, Dict[str, float]]:
    """The program's own reported counters, summed over replicas.

    Sources: each engine's ``price_cache`` stats, ``fault_stats``,
    the ``kv`` summary block, the prefix cache snapshot, and the
    scheduler's iteration counts.
    """
    totals: Dict[str, Dict[str, float]] = {
        "serve": {},
        "price_cache": {},
        "faults": {},
        "kv": {},
        "prefix": {},
    }
    for serving in _servings(result):
        setup = serving.setup
        _add(totals["serve"], setup, ("prefill_iterations", "decode_iterations"))
        _add(
            totals["price_cache"],
            setup.get("price_cache", {}),
            ("hits", "misses", "invalidations"),
        )
        _add(
            totals["faults"],
            setup.get("fault_stats", {}),
            ("transfers", "retried_transfers", "failures"),
        )
        _add(totals["kv"], setup.get("kv", {}), ("migrations",))
        _add(totals["prefix"], setup.get("prefix_cache", {}), ("hits", "misses"))
    return totals
