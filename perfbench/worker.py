"""One pass of a workload in a fresh interpreter.

Reads a JSON request on stdin and prints one JSON result line on stdout.
Modes:

- ``setup``: import the package, build the four root systems and run the
  sl2 calibration on each; report the time that took.
- ``plain``: setup, then the timed phase: every op of the pass, each
  timed on its own.  Checks run after the timed phase.
- ``trace``: as ``plain`` with span wrappers installed (see spans.py);
  spans of the setup and the timed phase are written to ``spans_path``.
- ``profile``: as ``plain`` with cProfile on during the timed phase.

In ``setup`` and ``plain`` mode a speed meter runs alongside (see
SpeedMeter), and every time is reported twice: as measured, and scaled
to reference speed.

The program under test is always taken from ``src/`` of the checkout
that holds this file.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
TYPES = ("A1", "A2", "B2", "G2")


def _ref_kernel():
    acc = Fraction(0)
    for i in range(1, 300):
        acc = acc + Fraction(i % 7 + 1, i % 5 + 2) * Fraction(3, i % 4 + 1)
    return acc


class SpeedMeter:
    """How fast this process runs right now.

    On a shared machine the same pass can take 1.3x longer from one
    minute to the next, because co-located load slows the core; CPU time
    slows with it.  Every INTERVAL_S a SIGALRM handler runs a fixed
    exact-arithmetic kernel (about 2 ms) and records how long it took.
    The handler's own time is subtracted from every reported time, and
    ``speed`` = REF_CHUNK_S / mean chunk time scales a measured time to
    reference speed: the speed at which one chunk takes REF_CHUNK_S.
    Each op is scaled by the speed measured around it, the pass total by
    the speed over the pass.
    """

    INTERVAL_S = 0.05
    REF_CHUNK_S = 0.002
    LOCAL_CHUNKS = 10

    def __init__(self):
        self.chunks = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t = time.perf_counter()
        _ref_kernel()
        d = time.perf_counter() - t
        self.chunks.append((t, d))
        self.spent += d

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def speed(self, start=None, end=None):
        """Speed over the whole run, or around the interval [start, end]:
        the chunks inside it, widened to the LOCAL_CHUNKS nearest to its
        middle when fewer fell inside."""
        chunks = self.chunks
        if start is not None:
            inside = [c for c in chunks if start <= c[0] <= end]
            if len(inside) < self.LOCAL_CHUNKS:
                mid = (start + end) / 2
                inside = sorted(chunks, key=lambda c: abs(c[0] - mid))[
                    :self.LOCAL_CHUNKS]
            chunks = inside
        return self.REF_CHUNK_S * len(chunks) / sum(d for _, d in chunks)


def _import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import cherednik
    import cherednik.cli  # noqa: F401  (reached as api.cli)

    if Path(cherednik.__file__).resolve().parent != (src / "cherednik").resolve():
        raise SystemExit(f"cherednik imported from {cherednik.__file__}, "
                         f"not from {src}")
    return cherednik


def main():
    req = json.loads(sys.stdin.read())
    mode = req["mode"]
    meter = SpeedMeter() if mode in ("setup", "plain") else None
    if meter is not None:
        meter.start()
    t0 = time.perf_counter()
    api = _import_package()
    tracer = None
    if mode == "trace":
        tracer = spans.Tracer()
        spans.install(tracer, api)
        tracer.on = True
    for label in TYPES:
        api.sl2_calibration(api.build_root_system(label))
    setup_raw = time.perf_counter() - t0 - (meter.spent if meter else 0.0)
    result = {"backend": api.scalars.Rat.__module__, "raw_setup_s": setup_raw}
    if mode == "setup":
        meter.stop()
        for _ in range(20):   # set-up is short: sample the speed a bit longer
            meter._tick(None, None)
        result.update(speed=meter.speed(), setup_s=setup_raw * meter.speed())
        print(json.dumps(result))
        return

    ops = req["ops"]
    prof = None
    if mode == "profile":
        import cProfile
        prof = cProfile.Profile()
    outs, op_s, op_bounds = [], [], []
    if prof is not None:
        prof.enable()
    spent0 = meter.spent if meter else 0.0
    w0 = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        s = meter.spent if meter else 0.0
        a = time.perf_counter()
        try:
            outs.append((workloads.execute(api, op), None))
        except Exception as exc:  # an op that raises is a failed op
            outs.append((None, f"{type(exc).__name__}: {exc}"))
        b = time.perf_counter()
        op_s.append(b - a - ((meter.spent - s) if meter else 0.0))
        op_bounds.append((a, b))
    wall = time.perf_counter() - w0 - ((meter.spent - spent0) if meter else 0.0)
    if prof is not None:
        prof.disable()
    if meter is not None:
        meter.stop()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    probe_err = None
    if req.get("probe"):
        if tracer is not None:
            tracer.op = -2
        probe_err = workloads.run_probe(api) or "passed"
    if tracer is not None:
        tracer.on = False
        tracer.dump(req["spans_path"])

    failures = []
    for i, (op, (out, err)) in enumerate(zip(ops, outs)):
        if err is None:
            try:
                err = workloads.check(api, op, out)
            except Exception:  # a check that cannot read the output fails it
                err = "check raised: " + traceback.format_exc(limit=1).strip()
        if err is not None:
            failures.append([i, err])

    speed = meter.speed() if meter else 1.0
    if meter is not None:
        op_s = [t * meter.speed(a, b) for t, (a, b) in zip(op_s, op_bounds)]
    result.update(speed=speed, setup_s=setup_raw * speed, raw_wall_s=wall,
                  wall_s=wall * speed, op_s=op_s,
                  failures=failures, peak_rss_mb=rss_kb / 1024.0,
                  probe=probe_err)
    if prof is not None:
        import pstats
        result["profile_shares"] = spans.profile_shares(pstats.Stats(prof).stats)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
