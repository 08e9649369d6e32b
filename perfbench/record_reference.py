"""Record the reference outputs the gate compares sweep and certify against.

    python3 perfbench/record_reference.py

Run from the repository root.  It writes perfbench/reference/certify.json
(exit code, stdout and stderr of each certify call) and
perfbench/reference/sweep.json (the sweep's exit code, CSV header, and per
row its certificate file, status, CSV cells and certificate).  Record again
only when a change is meant to alter these outputs, and say why.
"""
import csv
import json
import os
import shutil

import gate
import run
import workloads


def record_certify(rf) -> dict:
    calls = {}
    for argv in workloads.CERTIFY_CALLS:
        rec = workloads.run_cli(rf.cli, argv)
        if rec["error"]:
            raise SystemExit(f"{rec['op']} raised:\n{rec['error']}")
        calls[rec["op"]] = {"exit": rec["exit"], "stdout": gate.parse_stdout(rec["stdout"]), "stderr": rec["stderr"]}
    return {"calls": calls}


def record_sweep(rf) -> dict:
    wl = workloads.SweepWorkload(rf, run.OUT, seed=0)
    batch = wl.run_batch()
    rec = batch["records"][0]
    if rec["error"]:
        raise SystemExit(f"sweep raised:\n{rec['error']}")
    summary = json.loads(rec["stdout"])
    with open(os.path.join(batch["out_dir"], "summary.csv"), newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    rows = []
    for path, status, cells in zip(summary["json_files"], summary["statuses"], table[1:]):
        with open(path, encoding="utf-8") as fh:
            cert = json.load(fh)
        rows.append({"file": os.path.basename(path), "status": status, "csv": cells, "certificate": cert})
    shutil.rmtree(batch["out_dir"], ignore_errors=True)
    return {"exit": rec["exit"], "header": table[0], "rows": rows}


def main() -> None:
    rf = run.import_package()
    os.makedirs(run.OUT, exist_ok=True)
    ref_dir = os.path.join(run.HERE, "reference")
    os.makedirs(ref_dir, exist_ok=True)
    for name, recorder in (("certify", record_certify), ("sweep", record_sweep)):
        path = os.path.join(ref_dir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(recorder(rf), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {os.path.relpath(path, run.ROOT)}")


if __name__ == "__main__":
    main()
