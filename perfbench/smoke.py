#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 smoke.py MAIN_EXE BENCHMARK_JSON

Runs every workload named in BENCHMARK.json, and the workloads kept out
of it but still runnable by hand (BY_HAND), untraced and traced, and
asserts that each run is correct with failed_ratio 0, that the result
line carries exactly the end_to_end (untraced) or per_layer (traced)
metrics with their declared units, and that the report line gives every
metric a unit and a sample count.  Exits non-zero on the first failure.
"""

import json
import subprocess
import sys
import tempfile

# Workloads main.exe runs that BENCHMARK.json leaves out as too
# host-sensitive to gate on (perfbench/METRICS.md, "Bounds and stability").
BY_HAND = ("pipeline", "serve")


def fail(msg):
    print("perfbench smoke: FAIL: " + msg)
    sys.exit(1)


def check_run(exe, spec, workload, trace, out_dir):
    cmd = [exe, "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--scale", "tiny", "--out", out_dir]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    what = "%s trace=%d" % (workload, trace)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        fail("%s exited %d\n%s%s" % (what, proc.returncode, proc.stdout,
                                     proc.stderr))
    result, report = json.loads(lines[-1]), json.loads(lines[-2])["report"]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: result keys %s" % (what, sorted(result)))
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        fail("%s: correct=%s attempted=%s failed=%s" % (
            what, result["correct"], result["attempted"], result["failed"]))
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail("%s: metrics/units differ from BENCHMARK.json: %s" % (
            what, sorted(set(got.items()) ^ set(want.items()))))
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            fail("%s: %s has no numeric value" % (what, name))
    for name, m in report["metrics"].items():
        if not m.get("unit") or not isinstance(m.get("samples"), int):
            fail("%s: report metric %s lacks unit or sample count" % (what, name))
    if report["metrics"]["failed_ratio"]["value"] != 0:
        fail("%s: failed_ratio %s" % (what, report["metrics"]["failed_ratio"]))
    if report["seed"] != 3 or "class" not in report["fingerprint"]:
        fail("%s: seed or fingerprint missing from the report" % what)
    print("perfbench smoke: ok: " + what)


def main():
    exe, bench = sys.argv[1], sys.argv[2]
    with open(bench) as f:
        spec = json.load(f)
    with tempfile.TemporaryDirectory(dir=".") as out_dir:
        for name in [w["name"] for w in spec["workloads"]] + list(BY_HAND):
            for trace in (0, 1):
                check_run(exe, spec, name, trace, out_dir)


if __name__ == "__main__":
    main()
