"""Smoke check of the benchmark: every workload at minimal size, untraced
and traced, must print every metric named in BENCHMARK.json with its
unit, and check its outputs as correct.

    python3 perfbench/smoke.py

Exits 0 when all checks hold; prints each failure and exits 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in (x["name"] for x in spec["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, *spec["command"][1:], "--workload", w,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace),
                 "--smoke"], cwd=ROOT, capture_output=True, text=True,
                timeout=600)
            tag = f"{w} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-500:]}")
                continue
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(out) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{tag}: result keys {sorted(out)}")
            if not out["correct"] or out["failed"] or out["attempted"] < 1:
                problems.append(f"{tag}: correct={out['correct']} "
                                f"attempted={out['attempted']} "
                                f"failed={out['failed']}")
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            if got != want[trace]:
                missing = sorted(set(want[trace]) - set(got))
                extra = sorted(set(got) - set(want[trace]))
                units = sorted(k for k in got if k in want[trace]
                               and got[k] != want[trace][k])
                problems.append(f"{tag}: missing {missing}, unexpected "
                                f"{extra}, wrong unit {units}")
            print(f"{tag}: {len(got)} metrics", flush=True)
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
