"""The benchmark's correctness gate as a test: a sweep of the benchmark config
and the certify workload's CLI calls must match the outputs recorded under
``perfbench/reference/``.  Reads files there and writes none."""

import glob
import json
import os
import sys
import types

from ramseyforge import cli

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench"))

import gate  # noqa: E402
import workloads  # noqa: E402


def test_sweep_matches_reference(tmp_path):
    sweep = workloads.SweepWorkload(types.SimpleNamespace(cli=cli), str(tmp_path), seed=None)
    verdict = gate.check_sweep(sweep.run_batch(), gate.load_reference("sweep"))
    assert verdict.correct, verdict.problems


def test_certify_calls_match_reference():
    records = [workloads.run_cli(cli, list(argv)) for argv in workloads.CERTIFY_CALLS]
    verdict = gate.check_certify(records, gate.load_reference("certify"))
    assert verdict.correct and verdict.failed == 0, verdict.problems


def _ramsey_records(node):
    """Every ``ramsey`` block inside a recorded JSON document."""
    if isinstance(node, dict):
        if isinstance(node.get("ramsey"), dict):
            yield node["ramsey"]
        for value in node.values():
            yield from _ramsey_records(value)
    elif isinstance(node, list):
        for value in node:
            yield from _ramsey_records(value)


def test_reference_ramsey_records_respect_known_ramsey_numbers(ramsey_r3):
    # none of today's records has t <= 9; a re-recorded reference may
    paths = glob.glob(os.path.join(os.path.dirname(gate.__file__), "reference", "*.json"))
    records = []
    for path in sorted(paths):
        with open(path, encoding="utf-8") as fh:
            records.extend(_ramsey_records(json.load(fh)))
    assert paths and records
    past = [r for r in records if r["t"] in ramsey_r3 and r["n"] >= ramsey_r3[r["t"]]]
    assert not past, f"reference records past a known R(3, t): {past}"
