#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 bench_e2e/test_bench.py

Runs every workload in short mode (small inputs, one second), traced and
untraced, and checks that the result line names every metric listed in
BENCHMARK.json with its unit.  Then damages one oracle input at a time
(--break) and checks that the run fails.  Exits nonzero on any failure.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# (workload, damaged oracle input)
BREAKS = [
    ("calls", "bare-output"),
    ("calls", "gmon-repeat"),
    ("calls", "self-time"),
    ("wide", "empty-arcs"),
    ("contexts", "cct-collapse"),
    ("ingest", "ingest-report"),
    ("ingest", "ingest-store"),
]


def run(workload, trace, *extra):
    cmd = [sys.executable, str(ROOT / "bench_e2e" / "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--short", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc.returncode, result, proc.stdout + proc.stderr


def main():
    failures = []

    def expect(ok, what):
        print(f"[{'PASS' if ok else 'FAIL'}] {what}")
        if not ok:
            failures.append(what)

    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, result, output = run(workload, trace)
            tag = f"{workload} --trace {trace}"
            expect(code == 0, f"{tag}: exits 0")
            if code != 0:
                print(output[-3000:])
            if result is None:
                expect(False, f"{tag}: last line is a JSON result")
                continue
            expect(sorted(result) == ["attempted", "correct", "failed",
                                      "metrics"],
                   f"{tag}: result has exactly the contract's keys")
            expect(result["correct"] is True and result["failed"] == 0 and
                   result["attempted"] >= 1,
                   f"{tag}: correct, attempted >= 1, failed == 0")
            metrics = result["metrics"]
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            expect(set(metrics) == set(want),
                   f"{tag}: emits exactly the {section} metrics")
            expect(all(metrics[n]["unit"] == u for n, u in want.items()
                       if n in metrics),
                   f"{tag}: every metric carries its unit")
            if trace == 0:
                expect(all(metrics[n]["value"] > 0 for n in want
                           if n in metrics),
                       f"{tag}: no end-to-end metric reads 0")
            else:
                expect(metrics.get("coverage_pct", {}).get("value", 0) >= 95,
                       f"{tag}: the ledger covers >= 95% of pipeline_s")

    for workload, oracle in BREAKS:
        code, result, _ = run(workload, 0, "--break", oracle)
        expect(code != 0 and (result is None or result["correct"] is False),
               f"{workload} --break {oracle}: the run fails")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
