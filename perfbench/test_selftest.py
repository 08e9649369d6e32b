"""Fast self-tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""
import copy
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _bench():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _names_units(entries):
    return {m["name"]: m["unit"] for m in entries}


def test_end_to_end_metric_names_match_benchmark_json():
    metrics = run.end_to_end_metrics([2.0, 1.0, 3.0], [0.2], 100.0, gate.Verdict(attempted=4, failed=1))
    assert {k: v["unit"] for k, v in metrics.items()} == _names_units(_bench()["end_to_end"])
    assert metrics["wall_s"]["value"] == 2.0
    assert metrics["ok_share"]["value"] == 0.75


def test_per_layer_metric_names_match_benchmark_json():
    spans = [
        (1, "cli.main", 0.0, 1.0, None, 7, {}),
        (2, "exactmetrics.triangle_count", 0.1, 0.5, 1, 7, {"bytes": 16}),
        (3, "graphs.build_euclidean", 0.5, 0.6, 1, 7, {"edges": 4}),
    ]
    metrics = tracing.per_layer_metrics(spans, ops=2, overhead_s=0.25)
    printed = {k: metrics[k][1] for k in tracing.RESULT_LINE}
    assert printed == _names_units(_bench()["per_layer"])
    assert abs(metrics["cli.self_s"][0] - 0.5) < 1e-12
    assert metrics["exactmetrics.triangles_bytes_computed"][0] == 16
    assert metrics["certify.builds_per_row"][0] == 0.5


def test_self_time_counts_overlapping_children_once():
    spans = [
        (1, "certify.run_sweep", 0.0, 10.0, None, 1, {}),
        (2, "graphs.build_family", 1.0, 6.0, 1, 2, {}),
        (3, "graphs.build_family", 2.0, 8.0, 1, 3, {}),
    ]
    assert abs(tracing.self_times(spans)[1] - 3.0) < 1e-12


def _certify_records(reference):
    return [
        {
            "op": op,
            "exit": ref["exit"],
            "stdout": json.dumps(ref["stdout"]) if isinstance(ref["stdout"], dict) else ref["stdout"],
            "stderr": ref["stderr"],
            "error": None,
        }
        for op, ref in reference["calls"].items()
    ]


def test_gate_accepts_the_reference_itself():
    reference = gate.load_reference("certify")
    verdict = gate.check_certify(_certify_records(reference), reference)
    assert verdict.correct and verdict.failed == 0 and verdict.attempted == len(workloads.CERTIFY_CALLS)


def _first_evidence(cert, provenance, kind):
    for claim in cert["claims"]:
        for ev in claim["evidence"].values():
            if ev["provenance"] == provenance and type(ev["value"]) is kind:
                return ev
    raise AssertionError("no such evidence")


def test_gate_flags_one_changed_exact_evidence_value():
    reference = gate.load_reference("certify")
    records = _certify_records(reference)
    cert = json.loads(records[0]["stdout"])
    _first_evidence(cert, "computed-exact", int)["value"] += 1
    records[0]["stdout"] = json.dumps(cert)
    verdict = gate.check_certify(records, reference)
    assert not verdict.correct and verdict.failed == 1


def test_gate_allows_float_noise_but_not_a_float_change():
    reference = gate.load_reference("certify")
    op = "verify --suite mt1 --q 17"
    for factor, ok in ((1 + 1e-12, True), (1 + 1e-6, False)):
        records = _certify_records(reference)
        rec = next(r for r in records if r["op"] == op)
        cert = json.loads(rec["stdout"])
        _first_evidence(cert, "computed-float", float)["value"] *= factor
        rec["stdout"] = json.dumps(cert)
        assert gate.check_certify(records, reference).correct is ok


def test_gate_flags_a_changed_exit_code():
    reference = gate.load_reference("certify")
    records = _certify_records(reference)
    rec = next(r for r in records if r["op"] == "certify-ramsey --family euclidean --q 11")
    rec["exit"] = 0
    verdict = gate.check_certify(records, reference)
    assert not verdict.correct and verdict.failed == 1


def _write_sweep(reference, out_dir):
    for row in reference["rows"]:
        with open(os.path.join(out_dir, row["file"]), "w", encoding="utf-8") as fh:
            json.dump(row["certificate"], fh)
    with open(os.path.join(out_dir, "summary.csv"), "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(reference["header"]) + "\n")
        for row in reference["rows"]:
            fh.write(",".join(row["csv"]) + "\n")
    stdout = json.dumps({"statuses": [row["status"] for row in reference["rows"]]})
    return {"records": [{"exit": reference["exit"], "stdout": stdout, "error": None}], "out_dir": out_dir}


def test_sweep_gate_counts_the_known_refusal_and_flags_a_csv_change(tmp_path):
    reference = gate.load_reference("sweep")
    batch = _write_sweep(reference, str(tmp_path))
    verdict = gate.check_sweep(batch, reference)
    assert verdict.correct and (verdict.failed, verdict.attempted) == (1, 39)
    changed = copy.deepcopy(reference)
    changed["rows"][0]["csv"][changed["header"].index("girth")] = "5"
    batch = _write_sweep(changed, str(tmp_path))
    verdict = gate.check_sweep(batch, reference)
    assert not verdict.correct and verdict.failed == 2


def test_same_seed_same_adhoc_inputs():
    first, again, other = workloads.adhoc_inputs(7), workloads.adhoc_inputs(7), workloads.adhoc_inputs(8)
    assert first == again
    assert first != other
    kinds = sorted(op["kind"] for op in first)
    assert kinds == sorted(op["kind"] for op in other)


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return oracles.adjacency(10, outer + spokes + inner)


def test_oracles_on_the_petersen_graph():
    a = _petersen()
    assert oracles.triangles(a) == 0
    assert oracles.girth(a) == 5 and oracles.diameter(a) == 2 and oracles.components(a) == 1
    assert oracles.alpha_bruteforce(a) == 4
    assert oracles.max_cut_and_bisection(a)[0] == 12
    assert str(oracles.toughness(a)) == "4/3"


def test_adhoc_gate_checks_a_real_op_and_flags_a_wrong_cut():
    rf = run.import_package()
    op = {"kind": "tiny", "n": 10, "id": "petersen",
          "edges": [tuple(map(int, e)) for e in zip(*(_petersen().nonzero())) if e[0] < e[1]]}
    rec = workloads.run_adhoc_op(rf, op)
    assert gate.check_adhoc_op(rec, op) == (False, [], [])
    rec["results"]["cut"] = (11, 0)
    failed, problems, _ = gate.check_adhoc_op(rec, op)
    assert failed and problems
