"""Write the committed expected outputs under perfbench/goldens.

    python3 perfbench/make_goldens.py

cli/<name>.out   stdout of each CLI battery invocation, byte for byte

Regenerate only when an output is meant to change; the benchmark counts any
difference from these files as a failed op.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, HERE)

import quiverlab  # noqa: E402
import quiverlab.cli  # noqa: E402,F401

from workloads import CLI_BATTERY, GOLDENS, child_env, run_cli, write_cli_inputs  # noqa: E402


def main():
    os.makedirs(os.path.join(GOLDENS, "cli"), exist_ok=True)
    scratch = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="goldens-", dir=scratch)
    try:
        write_cli_inputs(quiverlab, workdir)
        env = child_env(quiverlab)
        for name, argv in CLI_BATTERY.items():
            code, stdout = run_cli(argv, workdir, env)
            if code != 0:
                raise SystemExit(f"{name}: exit code {code}")
            with open(os.path.join(GOLDENS, "cli", name + ".out"), "wb") as fh:
                fh.write(stdout)
    finally:
        shutil.rmtree(workdir)


if __name__ == "__main__":
    main()
