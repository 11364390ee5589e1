"""Benchmark of the cherednik package: four exact-arithmetic workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload deep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` measures the end-to-end metrics with no tracing: it starts
fresh interpreters that only set up (import, root systems, sl2
calibration) for ``setup_s``, then runs about ``--seconds`` worth of
passes of the workload, one fresh interpreter per pass.  Times are scaled
to reference speed by the speed meter in worker.py; the raw times are in
the result file.  ``--trace 1`` runs one untraced pass, one pass with
span wrappers and one under cProfile, and reports the per-layer metrics.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics.  ``--workload all`` runs every workload both ways and
prints one table.

Every op's output is checked (see workloads.check); a wrong output counts
as a failed op.  Results, with an environment block, also go to
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "cherednik"
OUT = ROOT / ".perfbench"
PASS_TIMEOUT_S = 150
SETUP_SAMPLES = 3
# Seconds one pass takes on a 2-core x86 container with Python 3.11 and the
# fractions backend.  A run makes round(--seconds / PASS_S) passes, so the
# amount of work measured does not depend on how noisy the machine is.
PASS_S = {"deep": 10.0, "sweep": 10.0, "scan": 6.5, "symbolic": 10.0}


class BenchError(Exception):
    pass


def _worker(request: dict) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                          input=json.dumps(request), capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker ({request['mode']}) exited "
                         f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _pass(workload, ops, mode, **extra):
    return _worker(dict(mode=mode, workload=workload, ops=ops,
                        probe=workload == "symbolic", **extra))


def _p90(xs):
    return statistics.quantiles(xs, n=10)[8] if len(xs) > 1 else xs[0]


def measure(workload, ops, seconds):
    """Untraced run: end-to-end metrics."""
    # the first interpreter also writes the bytecode cache; its time is dropped
    _worker({"mode": "setup"})
    setup = [_worker({"mode": "setup"})["setup_s"] for _ in range(SETUP_SAMPLES)]
    n = max(1, round(seconds / PASS_S[workload]))
    passes = [_pass(workload, ops, "plain") for _ in range(n)]
    setup += [p["setup_s"] for p in passes]
    op_s = [t for p in passes for t in p["op_s"]]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "op_p50_s": (statistics.median(op_s), "s"),
        "op_p90_s": (_p90(op_s), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes),
                        "MB"),
    }
    samples = {"setup_s": len(setup), "passes": len(passes), "ops": len(op_s),
               "raw_wall_s": [p["raw_wall_s"] for p in passes],
               "speed": [p["speed"] for p in passes],
               "op_s": [p["op_s"] for p in passes]}
    return metrics, passes, samples


def trace(workload, ops, seed):
    """Traced run: per-layer metrics, tracing overhead and profile shares."""
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    plain = _pass(workload, ops, "plain")
    traced = _pass(workload, ops, "trace", spans_path=str(spans_path))
    prof = _pass(workload, ops, "profile")
    passes = [plain, traced, prof]
    metrics = spans.layer_metrics(spans.load(spans_path))
    scal, poly = prof["profile_shares"]
    attempted = len(ops) * len(passes)
    failed = sum(len(p["failures"]) for p in passes)
    metrics.update({
        "trace.overhead_s": (traced["raw_wall_s"] - plain["raw_wall_s"], "s"),
        "profile.overhead_s": (prof["raw_wall_s"] - plain["raw_wall_s"], "s"),
        "scalars.self_share": (scal, "ratio"),
        "polynomials.self_share": (poly, "ratio"),
        "fail_ratio": (failed / attempted, "ratio"),
        "probe.failures": (int(traced["probe"] not in (None, "passed")),
                           "count"),
    })
    samples = {"passes": len(passes), "ops": attempted,
               "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, passes, samples


def environment(backend):
    files = sorted(SRC.glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    rev = "not a git checkout"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        rev = git.stdout.strip() or rev
    return {"python": platform.python_version(), "backend": backend,
            "git_revision": rev, "src_sha256": digest.hexdigest()[:16],
            "nproc": os.cpu_count(), "src_lines": lines}


def run_one(workload, seed, seconds, traced, smoke=False):
    ops = workloads.generate(workload, seed, smoke)
    if traced:
        metrics, passes, samples = trace(workload, ops, seed)
    else:
        metrics, passes, samples = measure(workload, ops, seconds)
    failures = [f for p in passes for f in p["failures"]]
    result = {
        "workload": workload, "why": workloads.WHY[workload], "seed": seed,
        "trace": int(traced), "env": environment(passes[0]["backend"]),
        "samples": samples, "probe": passes[-1]["probe"],
        "failures": failures[:20],
        "correct": not failures,
        "attempted": len(ops) * len(passes), "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(result, indent=1))
    return result


def _print_table(result):
    print(f"# {result['workload']} (trace {result['trace']}): {result['why']}")
    print(f"#   env {json.dumps(result['env'])}")
    counts = {k: v for k, v in result["samples"].items()
              if not isinstance(v, list)}
    print(f"#   samples {json.dumps(counts)}")
    if result["probe"] not in (None, "passed"):
        print(f"#   known-defect probe failed: {result['probe']}")
    for f in result["failures"]:
        print(f"#   FAILED op {f[0]}: {f[1]}")
    for name, m in result["metrics"].items():
        print(f"{result['workload']:>9} {name:<30} {m['value']:>14.6g} {m['unit']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="minimal op lists, for the smoke check")
    args = ap.parse_args(argv)
    if not (SRC / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        runs = [(w, t) for w in workloads.WORKLOADS for t in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    results = []
    try:
        for w, t in runs:
            results.append(run_one(w, args.seed, args.seconds, t, args.smoke))
            _print_table(results[-1])
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results
                   for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
