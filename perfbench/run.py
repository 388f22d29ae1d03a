"""quiverlab benchmark: the command that runs one workload and prints its metrics.

    python3 perfbench/run.py --workload fiber-orbit --seed 1 --seconds 60 --trace 0

Run from the root of a checkout; the library is imported from ./src, and
the workload names and metric names, units and directions are read from
BENCHMARK.json.  Each workload runs in fresh processes started one at a time
(see worker.py): one that only sets up, one that sets up and measures, and
one more that only sets up.  `setup_s` is the median of the three set-ups.

--trace 0  end-to-end metrics, with every result checked: throughput, median
           and tail latency in units of the probe timed next to every op
           (see probe.py), set-up time and peak memory.  The record also
           holds the throughput and latencies in seconds.
--trace 1  per-layer metrics from round 0 of the workload, run in one
           process untraced (twice; the second is the reference), traced
           (spans and self times) and counted (exact counts); see spans.py.
           trace.overhead_ratio is traced time over untraced time for the
           same ops.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  A record of the run (interpreter,
cores, platform, commit, seed, every metric with its unit) is written to
.bench_build/perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
SETUPS = 3
BUDGET_S = 170.0


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def per_layer_values(names, res):
    """Per-layer figures from a traced worker result: counts from the counting
    pass, self times from the timed pass."""
    counts, self_s = res["counts"], res["self_s"]
    special = {
        "repspace.sample_fiber.solves_per_accept":
            counts.get("repspace.sample_fiber.solves", 0)
            / max(counts.get("repspace.sample_fiber.calls", 0), 1),
        "strata.hit_ratio":
            counts.get("strata.hits", 0) / max(counts.get("strata.moment_checks", 0), 1),
        "cli.interp_start_s": res["interp_start_s"],
        "cli.import_s": res["import_s"],
        "cli.run_s": res["cli_run_s"],
        "trace.overhead_ratio": res["traced_s"] / res["untraced_s"],
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
        elif name.endswith(".self_s"):
            out[name] = self_s.get(name[: -len(".self_s")], 0.0)
        else:
            out[name] = counts.get(name, 0)
    return out


def git_commit():
    """The checked-out commit, read from .git without running git; "unknown"
    outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def run_record(args):
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def spawn(args, workdir, deadline, setup_only):
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--workdir", workdir]
    if args.tiny:
        argv.append("--tiny")
    if setup_only:
        argv.append("--setup-only")
    t0 = time.monotonic()
    argv += ["--t0", repr(t0)]
    # A process group of its own, so a timeout also ends the worker's CLI children.
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(deadline - t0, 1.0))
    except BaseException:  # timeout, or run.py being stopped: end the worker too
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        sys.stderr.write(stderr)
        raise SystemExit(f"worker for {args.workload} exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def main(argv=None):
    if not os.path.isfile(os.path.join(ROOT, "src", "quiverlab", "__init__.py")):
        sys.stderr.write("error: src/quiverlab not found; run from the root of a quiverlab checkout\n")
        return 2
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test size: one round of the cheapest cases, one set-up")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    deadline = time.monotonic() + BUDGET_S
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        # set-up-only workers before and after the measuring one, so that the
        # set-ups span the run rather than one spell of the host's speed
        extra = 0 if args.trace or args.tiny else SETUPS - 1
        setups = [spawn(args, workdir, deadline, True)["setup_s"] for _ in range(extra // 2)]
        res = spawn(args, workdir, deadline, False)
        setups.append(res["setup_s"])
        setups += [spawn(args, workdir, deadline, True)["setup_s"]
                   for _ in range(extra - extra // 2)]
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"error: {args.workload} did not finish within {BUDGET_S:.0f} s\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # warm-up ops are untimed but checked like the rest
    failures = res["warmup_failures"] + res["failures"]
    attempted = res["warmup_attempted"] + res["attempted"]
    failed = res["warmup_failed"] + res["failed"]
    listed = spec["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        values = per_layer_values([m["name"] for m in listed], res)
    else:
        values = dict(res, setup_s=statistics.median(setups))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    record = run_record(args)
    record.update({
        "attempted": attempted, "failed": failed,
        "ops_failed_ratio": failed / attempted,
        "failures": failures,
        "metrics": metrics,
    })
    if args.trace:
        record["untraced_s"], record["traced_s"] = res["untraced_s"], res["traced_s"]
    else:
        record.update({"setups_s": setups, "raw": res["raw"],
                       "tail_percentile": res["tail_percentile"],
                       "tail_samples": res["attempted"],
                       "tail_samples_beyond": res["tail_samples_beyond"]})
    path = os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} ops ({res['warmup_attempted']} of them warm-up), {failed} failed")
    for msg in failures[:10]:
        print(f"  FAILED {msg}")
    for name, m in metrics.items():
        note = ""
        if name == "op_tail_probe":
            note = f"  (p{res['tail_percentile']} of {res['attempted']} timed samples)"
        elif name == "setup_s":
            note = f"  (median of {len(setups)} set-ups)"
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}{note}")
    print(f"  {'ops_failed_ratio':<44} {failed / attempted:>14.6g} ({failed}/{attempted})")
    for name, value in res.get("raw", {}).items():
        print(f"  {name + ' (host time)':<44} {value:>14.6g}")
    print(f"  record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
