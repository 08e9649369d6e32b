"""The benchmark's correctness gate as a test: a sweep of the benchmark config
and the certify workload's CLI calls must match the outputs recorded under
``perfbench/reference/``.  Reads files there and writes none."""

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
