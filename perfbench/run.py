#!/usr/bin/env python3
"""Build the pmtbr daemon and the benchmark from source, then run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload mesh-flat --seed 1 --seconds 10 --trace 0

The arguments go to perfbench/bench.exe unchanged (see bench.ml and
NOTES.md).  The last line of standard output is the run's JSON result.
Build output goes to standard error.  The exit code is not 0 when the
sources are missing, the build fails or the benchmark fails.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGETS = ["./bin/pmtbr_cli.exe", "./perfbench/bench.exe"]
# the bench bounds its own phases; this only catches a wedged run
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    for needed in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no %s at %s: run from a full checkout of the repository" % (needed, ROOT))
    # keep every build product inside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT] + TARGETS,
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    # own process group, so any daemon the bench left behind is reaped too
    proc = subprocess.Popen([exe] + sys.argv[1:], cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 3
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
