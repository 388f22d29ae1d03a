"""One workload process: set up, then run the timed loop or the traced passes.

Started by run.py, never directly.  It prints one JSON object as the last
line of its standard output.  `--t0` is run.py's CLOCK_MONOTONIC reading
taken just before it started this process, so set-up time counts interpreter
start as well as imports, input generation and warm-up.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, HERE)

import quiverlab  # noqa: E402
import quiverlab.cli  # noqa: E402,F401  (cli is a layer; it is not imported by the package)

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, child_env  # noqa: E402


class Loop:
    """Closed loop with one client: the next op starts when the previous
    one and its check are done.  Latency covers the call only."""

    def __init__(self, workload, call, tracer=None, probe=None):
        self.workload = workload
        self.call = call
        self.tracer = tracer
        self.probe = probe  # if set, timed before every op (see probe.py)
        self.latencies = []
        self.probes = []
        self.failures = []

    def run(self, ops):
        clock = time.perf_counter
        for op in ops:
            if self.probe:
                self.probes.append(self.probe())
            if self.tracer:
                self.tracer.op += 1
            t = clock()
            try:
                result = self.call(op)
            except Exception as e:  # an op fails; the loop goes on and reports it
                self.latencies.append(clock() - t)
                self.failures.append(f"{self.workload.label(op)}: {type(e).__name__}: {e}")
                continue
            self.latencies.append(clock() - t)
            was_on = self.tracer.on if self.tracer else False
            if self.tracer:
                self.tracer.on = False  # the check is not part of the op
            try:
                if not self.workload.check(op, result):
                    self.failures.append(f"{self.workload.label(op)}: wrong result")
            except Exception as e:
                self.failures.append(f"{self.workload.label(op)}: check raised {e!r}")
            finally:
                if self.tracer:
                    self.tracer.on = was_on

    @property
    def busy_s(self):
        return sum(self.latencies)


def peak_rss_mib():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def timed_phase(wl, ops0, seconds, tiny):
    """Latencies in units of the probe: each op's latency over the mean probe
    time of its round (about 1 s of work for fiber-orbit, 4 s for cli), so
    that a slow spell of the host slows op and probe alike and cancels."""
    loop = Loop(wl, wl.call, probe=wl.probe)
    scaled = []
    start = time.monotonic()
    r = 0
    while True:
        first = len(loop.latencies)
        loop.run(ops0 if r == 0 else wl.round(r))
        probes = loop.probes[first:]
        per_probe = len(probes) / sum(probes)
        scaled += [t * per_probe for t in loop.latencies[first:]]
        r += 1
        if tiny or time.monotonic() - start >= seconds:
            break
    lat = loop.latencies
    n = len(lat)
    tail_p = wl.tail_percentile

    def tail(xs):
        return statistics.quantiles(xs, n=100, method="inclusive")[tail_p - 1]

    return {
        "attempted": n,
        "failed": len(loop.failures),
        "failures": loop.failures[:20],
        # whole rounds only, so every run weighs the cases alike
        "ops_per_kprobe": 1e3 * n / sum(scaled),
        "op_p50_probe": statistics.median(scaled),
        "op_tail_probe": tail(scaled),
        "tail_percentile": tail_p,
        "tail_samples_beyond": n * (100 - tail_p) / 100,
        "peak_rss_mib": peak_rss_mib(),
        # the same figures in seconds, as this host ran them
        "raw": {"ops_per_s": n / loop.busy_s, "op_p50_ms": statistics.median(lat) * 1e3,
                "op_tail_ms": tail(lat) * 1e3,
                "probe_p50_ms": statistics.median(loop.probes) * 1e3},
    }


def child_times(argv, env, cwd, reps=5):
    out = []
    for _ in range(reps):
        t = time.perf_counter()
        subprocess.run(argv, env=env, cwd=cwd, check=True, capture_output=True, timeout=60)
        out.append(time.perf_counter() - t)
    return statistics.median(out)


def trace_passes(wl, ops0, workdir, spans_path):
    """Round 0 four times: untraced twice (the second is the reference time,
    the first warms the code paths), traced (spans, self times), and counted
    (exact counts, scalar operations included)."""
    call = getattr(wl, "call_in_process", wl.call)
    warm = Loop(wl, call)
    warm.run(ops0)
    plain = Loop(wl, call)
    plain.run(ops0)

    tracer = Tracer(quiverlab)
    tracer.install()
    try:
        traced = Loop(wl, call, tracer)
        tracer.on = tracer.timed = True
        traced.run(ops0)
        tracer.on = tracer.timed = False
        times = tracer.self_times()
        tracer.write_spans(spans_path)
        tracer.counts.clear()

        counted = Loop(wl, call, tracer)
        tracer.on = tracer.counting_scalars = True
        counted.run(ops0)
        tracer.on = tracer.counting_scalars = False
        counts = dict(tracer.counts)
    finally:
        tracer.uninstall()

    env = child_env(quiverlab)
    bare = child_times([sys.executable, "-c", "pass"], env, workdir)
    imported = child_times([sys.executable, "-c", "import quiverlab.cli"], env, workdir)
    loops = (warm, plain, traced, counted)
    return {
        "attempted": sum(len(lp.latencies) for lp in loops),
        "failed": sum(len(lp.failures) for lp in loops),
        "failures": [f for lp in loops for f in lp.failures][:20],
        "counts": counts,
        "self_s": dict(times),
        "untraced_s": plain.busy_s,
        "traced_s": traced.busy_s,
        "cli_run_s": plain.busy_s if hasattr(wl, "call_in_process") else 0.0,
        "interp_start_s": bare,
        "import_s": imported - bare,
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    cls = WORKLOADS[args.workload]
    extra = (args.workdir,) if args.workload == "cli" else ()
    if args.workload == "cli":
        compileall.compile_dir(os.path.dirname(os.path.abspath(quiverlab.__file__)), quiet=1)
    wl = cls(quiverlab, args.seed, args.tiny, *extra)
    ops0 = wl.round(0)
    warm = cls(quiverlab, args.seed, True, *extra)
    warm_loop = Loop(warm, warm.call)
    warm_loop.run(warm.round(-1))
    setup_s = time.monotonic() - args.t0
    out = {"setup_s": setup_s, "warmup_attempted": len(warm_loop.latencies),
           "warmup_failures": warm_loop.failures[:20], "warmup_failed": len(warm_loop.failures)}
    if not args.setup_only:
        if args.trace:
            spans = os.path.join(OUT, f"spans-{args.workload}.tsv")
            out.update(trace_passes(wl, ops0, args.workdir, spans))
        else:
            out.update(timed_phase(wl, ops0, args.seconds, args.tiny))
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
