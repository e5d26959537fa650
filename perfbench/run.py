#!/usr/bin/env python3
"""Build and run the SIMBA hub benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload ingest-flat --seed 1 --seconds 20 --trace 0

The Go benchmark in perfbench/ (a module of its own that imports the
repository's internal packages through a replace directive) is built
into .bench_build/ with its build cache there too, so nothing is
written outside the checkout. The hubs' WAL and outbox live under
.bench_build/run-<pid>, which is removed afterwards. Its standard
output is passed through; its last line is the JSON result.
Exits non-zero, printing no result, when the benchmark cannot be built
or fails.
"""

import os
import shutil
import signal
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
# Leave headroom under the 180 s a run may take.
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOPROXY="off",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    return env


def build():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or not os.path.isdir(
        os.path.join(ROOT, "internal", "hub")
    ):
        sys.exit("run.py: run from the root of the simba repository (go.mod and internal/hub not found)")
    env = go_env()
    for d in (env["GOCACHE"], env["GOTMPDIR"]):
        os.makedirs(d, exist_ok=True)
    proc = subprocess.run(
        ["go", "build", "-o", BINARY, "."], cwd=BENCH, env=env, stdout=sys.stderr, stderr=sys.stderr
    )
    if proc.returncode != 0:
        sys.exit("run.py: building the benchmark failed")


def main(argv):
    build()
    run_dir = os.path.join(BUILD, "run-%d" % os.getpid())
    # A terminated wrapper still stops the benchmark process and removes
    # its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen([BINARY, "-dir", run_dir] + argv, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: the benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
