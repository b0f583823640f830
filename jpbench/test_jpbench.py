"""Self-check of the benchmark harness on tiny documents.

Run from the repository root:  python3 -m pytest jpbench/test_jpbench.py
"""

import dataclasses
import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402

TINY_DIMS = (8, 8, 8)

TINY = {
    "train-short": dict(lengths=(2, 8), corpus_docs=10, parse_docs=3,
                        train_docs=5, dev_size=1, epochs=2, dims=TINY_DIMS),
    "train-long": dict(lengths=(10, 16), corpus_docs=5, parse_docs=2,
                       train_docs=3, dev_size=1, epochs=1, dims=TINY_DIMS),
    "parse": dict(lengths=(1, 14), corpus_docs=3, parse_docs=3, dims=TINY_DIMS),
    "parse-goldedu": dict(lengths=(1, 14), corpus_docs=3, parse_docs=3,
                          dims=TINY_DIMS),
}


def benchmark_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
        [w["name"] for w in spec["workloads"]],
    )


def test_benchmark_file_matches_harness():
    end_to_end, per_layer, names = benchmark_names()
    assert end_to_end == workloads.END_TO_END
    assert per_layer == workloads.per_layer_units()
    assert names == list(workloads.WORKLOADS)
    assert set(TINY) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_reported(name, trace, tmp_path):
    end_to_end, per_layer, _ = benchmark_names()
    workload = dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])
    result = workloads.run_workload(workload, 3, 0.5, trace, str(tmp_path))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = per_layer if trace else end_to_end
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    if not trace:
        assert all(v > 0 for v in values.values())
        return
    assert values["convert.convert_document.calls"] == TINY[name]["corpus_docs"]
    # convert and `parse --jobs 1` write one tree each; the benchmark's own
    # checks are not traced, the --jobs N workers record nothing here, and
    # the train workloads parse at --jobs 1 only before tracing starts.
    parsed = 0 if workload.trains else TINY[name]["parse_docs"]
    assert values["serialize.write_joint.calls"] == TINY[name]["corpus_docs"] + parsed
    if workload.trains:
        # One encoding in the rollout, one in loss_and_gradients.
        assert values["model.encode.calls_per_train_doc"] == 2.0
        assert values["trainer.rollout.calls"] > 0
        assert values["transition.dynamic_oracle.calls"] > 0
        assert values["model.save_checkpoint.bytes"] > 0
    else:
        assert values["trainer.rollout.calls"] == 0
        # `parse --jobs 1` loads once per chunk of two documents; the set-up
        # step's own loads are not traced.
        chunks = math.ceil(TINY[name]["parse_docs"] / 2)
        assert values["model.load_checkpoint.calls"] == chunks
        assert values["transition.parse_greedy.calls"] == TINY[name]["parse_docs"]
    if name == "parse":
        # An n-token end-to-end derivation scores 2n - 1 structural steps.
        tokens = values["model.encode.tokens"]
        assert values["model.SpanScorer.structural.calls"] == 2 * tokens - 3
