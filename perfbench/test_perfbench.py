"""Self-test of the benchmark at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench -q

Checks that every metric ``BENCHMARK.json`` declares is printed with its
unit, that one seed gives identical step and delivery counts, and that the
delivery oracle fails a run whose record lost a delivery.
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (puts the program's sources on the path)
import oracle  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
#: Long enough that the tiny sizes' event caps, not the clock, end a run.
SECONDS = 60.0


def declared(section: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def printed(outcome) -> dict:
    result = json.loads(run.result_line(outcome))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


def test_workloads_declared():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_printed_with_its_unit(workload, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "HERE", tmp_path)
    monkeypatch.setattr(run, "TRACE_EVENTS", TINY.max_events)
    assert printed(run.run_untraced(workload, 3, SECONDS, TINY)) == declared("end_to_end")
    traced, spans = run.run_traced(workload, 3, SECONDS, TINY)
    assert printed(traced) == declared("per_layer")
    assert json.loads(spans.read_text())["spans"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_same_seed_same_counts(workload):
    first = run.run_untraced(workload, 5, SECONDS, TINY)
    second = run.run_untraced(workload, 5, SECONDS, TINY)
    assert first.metrics["steps_per_event"] == second.metrics["steps_per_event"]
    assert first.deliveries == second.deliveries > 0
    assert first.attempted == second.attempted


def test_dropped_delivery_fails_the_run(monkeypatch):
    handler = oracle.DeliveryRecord.handler
    dropped = []

    def lossy(record, client):
        deliver = handler(record, client)

        def on_event(event, seq):
            if not dropped:
                dropped.append(client)
                return
            deliver(event, seq)

        return on_event

    monkeypatch.setattr(oracle.DeliveryRecord, "handler", lossy)
    outcome = run.run_untraced("broker_steady", 7, SECONDS, TINY)
    assert dropped
    assert outcome.failed > 0
