"""The benchmark's own tests: printed metrics, output checks, span arithmetic.

Run from the repository root with ``python -m pytest simbench/tests``.
Each runner invocation uses ``--seconds 1``: one warm-up run and one
measured round, a few seconds of host time.
"""

import json
import os
import subprocess
import sys

import pytest

import run
import tracing

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


ARGS = ["--workload", "serve_steady", "--seed", "0", "--seconds", "1"]


def _invoke(trace=0):
    return subprocess.run(
        [
            sys.executable,
            os.path.join(run.HERE, "run.py"),
            *ARGS,
            "--trace",
            str(trace),
        ],
        cwd=run.ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _unique_keys(pairs):
    keys = [key for key, _ in pairs]
    assert len(keys) == len(set(keys)), f"printed twice: {keys}"
    return dict(pairs)


def _result(stdout):
    last = stdout.strip().splitlines()[-1]
    return json.loads(last, object_pairs_hook=_unique_keys)


@pytest.fixture(scope="module")
def declared():
    with open(BENCHMARK, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_printed_once_with_its_unit(
    trace, section, declared
):
    done = _invoke(trace=trace)
    assert done.returncode == 0, done.stderr
    result = _result(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stderr
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {metric["name"]: metric["unit"] for metric in declared[section]}


def test_declared_metrics_and_names_match_the_runner(declared):
    import workloads

    assert [
        (metric["name"], metric["unit"], metric["better"])
        for metric in declared["per_layer"]
    ] == run.per_layer_metrics()
    assert [
        (metric["name"], metric["unit"]) for metric in declared["end_to_end"]
    ] == list(run.END_TO_END)
    assert [workload["name"] for workload in declared["workloads"]] == list(
        run.WORKLOADS
    )
    assert tuple(workloads.WORKLOADS) == run.WORKLOADS


def test_a_wrong_expected_fingerprint_fails_the_run(tmp_path, monkeypatch, capsys):
    with open(run.FINGERPRINTS, encoding="utf-8") as handle:
        recorded = json.load(handle)
    recorded["output"]["serve_steady"] = "0" * 64
    path = tmp_path / "fingerprints.json"
    path.write_text(json.dumps(recorded))
    monkeypatch.setattr(run, "FINGERPRINTS", str(path))
    assert run.main([*ARGS, "--trace", "0"]) == 0
    out, err = capsys.readouterr()
    result = _result(out)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2
    assert "fingerprint" in err


def test_runs_ignore_the_callers_simulator_settings(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert not any(name.startswith("REPRO_") for name in run._child_env())


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["run", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["a", 5.0, 6.0, 0],
    ]
    totals = tracing.self_times(spans)
    assert totals == {
        "run": {"calls": 1, "self_s": 6.0},
        "a": {"calls": 2, "self_s": 3.0},
        "b": {"calls": 1, "self_s": 1.0},
    }


def test_self_times_are_non_negative_and_sum_to_the_traced_wall_time():
    report = run.run_child("serve_steady", 0, True, 1)
    totals = report["spans"]
    assert all(entry["self_s"] >= 0.0 for entry in totals.values())
    layers_s = sum(
        entry["self_s"] for name, entry in totals.items() if name != tracing.ROOT
    )
    # What no layer span covers is the root's own residual: the
    # benchmark's glue around the entry point.
    residual_s = totals[tracing.ROOT]["self_s"]
    assert layers_s + residual_s == pytest.approx(report["wall_s"], rel=1e-9)
    assert residual_s < 0.01 * report["wall_s"]
