"""The benchmark workloads: input generation, the timed call, the check.

Every workload is a closed loop with one client.  Its work is a sequence of
rounds; each round holds the same mix of cases (so throughput and latency
percentiles do not depend on where the clock stops) and draws everything
else -- parameters, sample seeds, order -- from `random.Random` seeded with
the workload name, the run seed and the round number.  The library receives
only the generated inputs.

Every op is preceded by the workload's probe (probe.py): in process for
fiber-orbit, as a child process for cli, so that the probe pays what the ops
pay.  Latencies are reported in units of the probe's time.

`tail_percentile` is fixed per workload, so that a faster or slower program
is compared at the same percentile.  It keeps at least ten samples beyond it
in a 60 s run (about 1500 ops for fiber-orbit and 250 for cli on a 2-core
VM).

fiber-orbit  Coxeter relation trials over Q: the point-level fiber and
             reflection path (sample_fiber, reflect_point, reflect_word,
             orbit_equivalent).  Dominated by Q `rref` inside `hom_space`.
cli          `python -m quiverlab.cli` child processes: start-up, import,
             argparse and rendering.  Checked byte for byte against
             committed stdout goldens.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time

from probe import timed as timed_probe

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS = os.path.join(HERE, "goldens")
PROBE = os.path.join(HERE, "probe.py")


def round_rng(name, seed, r):
    return random.Random(f"{name}:{seed}:{r}")


# -- fiber-orbit ----------------------------------------------------------------

# (quiver, d, v): dimension vectors from (1,1) up to A3 v=(1,2,1) and D4 v=(1,1,1,1).
FIBER_CASES = (
    ("A2", (2, 2), (1, 1)),
    ("A3", (1, 1, 1), (1, 1, 1)),
    ("A3", (1, 1, 1), (1, 2, 1)),
    ("D4", (1, 1, 1, 1), (1, 1, 1, 1)),
)
LAMBDA_CHOICES = (1, -1, 2, -2, 3)


class FiberOrbit:
    """One op is one Coxeter relation trial: sample a fiber point, reflect it
    once and verify the six conditions, apply the relation's two words and
    decide whether the results lie in one orbit."""

    name = "fiber-orbit"
    tail_percentile = 95

    def __init__(self, ql, seed, tiny):
        self.ql = ql
        self.seed = seed
        cases = FIBER_CASES[:1] if tiny else FIBER_CASES
        self.trials = []  # (quiver, cartan data, dims, relation kind, word1, word2)
        for name, d, v in cases:
            q = ql.dynkin_quiver(name)
            cd = ql.cartan_data(q)
            dims = ql.DimData(ql.WeightVec(d), ql.RootVec(v))
            for kind, w1, w2 in self._relations(cd, q):
                if tiny and kind != "involution":
                    continue
                self.trials.append((q, cd, dims, kind, w1, w2))

    @staticmethod
    def _relations(cd, q):
        vs = q.vertices
        out = [("involution", [v, v], []) for v in vs]
        for i in range(cd.n):
            for j in range(i + 1, cd.n):
                if cd.adjacency[i][j] == 0:
                    out.append(("commutation", [vs[i], vs[j]], [vs[j], vs[i]]))
                elif cd.adjacency[i][j] == 1:
                    out.append(("braid", [vs[i], vs[j], vs[i]], [vs[j], vs[i], vs[j]]))
        return out

    def _defined_along(self, cd, q, lam, word):
        """Every letter of the word reflects at a vertex with lambda_i != 0."""
        for vertex in word:
            i = q.vertex_index(vertex)
            if lam[i] == 0:
                return False
            lam = self.ql.reflect_weight(cd, i, lam)
        return True

    def _generic_lambda(self, rng, q, cd, dims, w1, w2):
        ql = self.ql
        zero = ql.WeightVec((0,) * cd.n)
        while True:
            lam = ql.WeightVec(tuple(rng.choice(LAMBDA_CHOICES) for _ in range(cd.n)))
            if (ql.genericity(cd, zero, lam, dims.v, mode="Uv").ok
                    and self._defined_along(cd, q, lam, w1)
                    and self._defined_along(cd, q, lam, w2)):
                return lam

    def round(self, r):
        rng = round_rng(self.name, self.seed, r)
        ops = []
        for q, cd, dims, kind, w1, w2 in self.trials:
            lam = self._generic_lambda(rng, q, cd, dims, w1, w2)
            ops.append({"q": q, "dims": dims, "kind": kind, "w1": w1, "w2": w2, "lam": lam,
                        "sample_seed": rng.randrange(2**30), "vertex": rng.choice(q.vertices)})
        rng.shuffle(ops)
        return ops

    probe = staticmethod(timed_probe)

    def call(self, op):
        ql = self.ql
        lam = op["lam"]
        s = ql.sample_fiber(op["q"], op["dims"], lam, seed=op["sample_seed"])
        refl = ql.reflect_point(s, op["vertex"], lam)
        z = ql.verify_Z_conditions(s, refl.point, op["vertex"], lam)
        o1 = ql.reflect_word(s, op["w1"], lam)
        o2 = ql.reflect_word(s, op["w2"], lam)
        return z, o1, o2, ql.orbit_equivalent(o1.point, o2.point)

    def check(self, op, result):
        z, o1, o2, dec = result
        return (z.all_pass and o1.lam == o2.lam and dec.kind == "yes"
                and self.ql.group_act(dec.witness, o1.point) == o2.point)

    def label(self, op):
        return f"{op['q'].n}:{op['kind']}:{''.join(map(str, op['w1']))}"


# -- cli ------------------------------------------------------------------------

# name -> argv.  Point files are written into the working directory at set-up.
CLI_BATTERY = {
    "info_weyl_d4": ["info", "--quiver", "D4", "--weyl", "--d", "1,1,1,2", "--v", "1,1,1,1"],
    "sample": ["sample", "--quiver", "A2", "--d", "2,1", "--v", "1,1", "--lambda", "1,1",
               "--seed", "9"],
    "reflect": ["reflect", "pt.json", "--vertex", "1"],
    "reflect_word": ["reflect-word", "pt.json", "--word", "1,2,1"],
    "invariants_json": ["invariants", "pt.json", "--max-len", "3"],
    "invariants_csv": ["invariants", "pt.json", "--format", "csv"],
    "covariant": ["covariant", "wpt.json", "--chi", "chi.json", "--m", "1"],
    "check_coxeter": ["check-coxeter", "--quiver", "A2", "--d", "2,2", "--v", "1,1",
                      "--lambda", "1,1", "--trials", "2", "--seed", "3"],
    "reduce": ["reduce", "--quiver", "A2", "--d", "1,1", "--v", "2,0", "--lambda", "0,0"],
    "strata": ["strata", "--quiver", "A1", "--d", "2", "--v", "1"],
    "strata_csv": ["strata", "--quiver", "A1", "--d", "2", "--v", "1", "--format", "csv"],
    "strata_single": ["strata", "--quiver", "A2", "--d", "1,1", "--v", "1,1", "--v-prime", "0,1"],
    "count": ["count", "--quiver", "A1", "--d", "2", "--v", "1", "--lambda", "0",
              "--p", "3,5,7"],
    "count_csv": ["count", "--quiver", "A1", "--d", "2", "--v", "1", "--lambda", "0",
                  "--p", "3,5,7", "--format", "csv"],
    "verify": ["verify", "pt.json", "rpt.json", "--vertex", "1"],
}
CLI_TINY = ("reduce", "strata", "strata_csv")


def write_cli_inputs(ql, workdir):
    """Point and chi-data files the battery reads, written with the CLI's own
    writer so that they match what a user's pipeline would hold."""
    cli = ql.cli
    pt = os.path.join(workdir, "pt.json")
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.run(CLI_BATTERY["sample"] + ["-o", pt]) != 0:
            raise RuntimeError("could not write pt.json")
        if cli.run(["reflect", pt, "--vertex", "1", "-o",
                    os.path.join(workdir, "rpt.json")]) != 0:
            raise RuntimeError("could not write rpt.json")
    # the rank-one A1 example: d = 2, v = 1, gamma = (1 0), delta = (1 0)^T
    q = ql.dynkin_quiver("A1")
    dims = ql.DimData(ql.WeightVec((2,)), ql.RootVec((1,)))
    s = ql.FramedPoint(q, dims, ql.QQ, {}, {1: ql.Mat.from_rows(ql.QQ, [[1, 0]])},
                       {1: ql.Mat.from_rows(ql.QQ, [[1], [0]])})
    worked = s.to_json()
    worked["lambda"] = ["1"]
    with open(os.path.join(workdir, "wpt.json"), "w") as fh:
        json.dump(worked, fh)
    chi = {"target_copies": [1], "source_copies": [0], "vectors": [[1, 0]],
           "covectors": [], "entries": [{"key": ["av", 1, 1, 1], "expr": "e1"}]}
    with open(os.path.join(workdir, "chi.json"), "w") as fh:
        json.dump(chi, fh)


def child_env(ql):
    """Environment for `python -m quiverlab.cli` children: an absolute
    PYTHONPATH taken from the imported package, so a child started from
    another working directory imports the same quiverlab."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(ql.__file__)))
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv, workdir, env):
    """One `python -m quiverlab.cli` child: (exit code, stdout bytes)."""
    proc = subprocess.run([sys.executable, "-m", "quiverlab.cli", *argv],
                          cwd=workdir, env=env, capture_output=True, timeout=120)
    return proc.returncode, proc.stdout


class Cli:
    """One op is one `python -m quiverlab.cli` invocation, timed from spawn
    to exit; a round runs the whole battery (an odd number of commands, so
    the median falls inside one command) in a seeded order."""

    name = "cli"
    tail_percentile = 90

    def __init__(self, ql, seed, tiny, workdir):
        self.ql = ql
        self.seed = seed
        self.workdir = workdir
        self.names = list(CLI_TINY if tiny else CLI_BATTERY)
        self.env = child_env(ql)
        self.golden = {}
        for name in self.names:
            with open(os.path.join(GOLDENS, "cli", name + ".out"), "rb") as fh:
                self.golden[name] = fh.read()
        write_cli_inputs(ql, workdir)

    def round(self, r):
        rng = round_rng(self.name, self.seed, r)
        order = list(self.names)
        rng.shuffle(order)
        return [{"name": name} for name in order]

    def probe(self):
        """One `python perfbench/probe.py` child, timed from spawn to exit."""
        t = time.perf_counter()
        subprocess.run([sys.executable, PROBE], cwd=self.workdir, env=self.env,
                       check=True, capture_output=True, timeout=60)
        return time.perf_counter() - t

    def call(self, op):
        return run_cli(CLI_BATTERY[op["name"]], self.workdir, self.env)

    def call_in_process(self, op):
        """The same invocation through `cli.run` in this process, for the
        traced passes (spans cannot be recorded inside a child)."""
        out = io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            with contextlib.redirect_stdout(out):
                code = self.ql.cli.run(list(CLI_BATTERY[op["name"]]))
        finally:
            os.chdir(cwd)
        return code, out.getvalue().encode()

    def check(self, op, result):
        code, stdout = result
        return code == 0 and stdout == self.golden[op["name"]]

    def label(self, op):
        return op["name"]


WORKLOADS = {w.name: w for w in (FiberOrbit, Cli)}
