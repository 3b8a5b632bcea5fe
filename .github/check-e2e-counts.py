#!/usr/bin/env python3
"""Gate on the xmlup-e2e metrics that repeat exactly for a seed.

  check-e2e-counts.py RESULT.json           compare with BENCH_e2e_counts.json; exit 1 on any difference
  check-e2e-counts.py RESULT.json --write   rewrite BENCH_e2e_counts.json from RESULT.json
"""
import json
import pathlib
import sys

BASELINE = pathlib.Path(__file__).resolve().parent.parent / "BENCH_e2e_counts.json"
METRICS = [
    "wal_bytes_per_update", "disk_bytes_per_xml_byte", "repository.sql_per_update",
    "exec.rows_scanned_per_op", "exec.index_lookups_per_op", "trigger.firings_per_update",
    "txn.undo_records_per_update", "wal.fsyncs_per_update",
]

result = json.loads(pathlib.Path(sys.argv[1]).read_text())
got = {"seed": result["environment"]["seed"], "workloads": {}}
for workload, modes in sorted(result["workloads"].items()):
    found = {**modes["per_layer"]["metrics"], **modes["end_to_end"]["metrics"]}
    got["workloads"][workload] = {m: found[m]["value"] for m in METRICS}

if "--write" in sys.argv[2:]:
    BASELINE.write_text(json.dumps(got, indent=2) + "\n")
    sys.exit(0)
want = json.loads(BASELINE.read_text())
if got["seed"] != want["seed"]:
    sys.exit(f"baseline is for --seed {want['seed']}, result is for --seed {got['seed']}")
differing = [
    f"{w} {m}: committed {want['workloads'].get(w, {}).get(m)}, measured {got['workloads'].get(w, {}).get(m)}"
    for w in sorted(set(want["workloads"]) | set(got["workloads"]))
    for m in METRICS
    if want["workloads"].get(w, {}).get(m) != got["workloads"].get(w, {}).get(m)
]
print("\n".join(differing) or f"all {len(want['workloads']) * len(METRICS)} count metrics equal {BASELINE.name}")
sys.exit(1 if differing else 0)
