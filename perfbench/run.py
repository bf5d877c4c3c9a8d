#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload pairs|ingest|mixed --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root.  The benchmark is a dune project of its own
(perfbench/dune-project, sources in perfbench/src).  It is built from source with dune in a workspace under
.bench_build/ that links in only the engine's libraries (lib/) and the
benchmark, so the repository's own build and tests never see it.  The
build's output goes to stderr; the benchmark's report goes to stdout and
its last line is the JSON result.  --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer split.  --selftest runs the benchmark's
own tests instead.

Exits 0 when every output check passed, 1 when a check failed, and with
another non-zero code, printing no result, when the build or the run
breaks.
"""

import argparse
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
WORKLOADS = ("pairs", "ingest", "mixed")

# Workspace entry -> what it links to, relative to the repository root.
# The engine's libraries have no public names, so they join the benchmark's
# project (perfbench/dune-project) rather than being a project of their own.
WORKSPACE = {
    "dune-project": os.path.join("perfbench", "dune-project"),
    "lib": "lib",
    "perfbench": os.path.join("perfbench", "src"),
}


def workspace():
    """Create (or refresh) the build workspace; return its absolute path."""
    root = os.getcwd()
    ws = os.path.join(root, BUILD_DIR, "ws")
    os.makedirs(ws, exist_ok=True)
    for name, target in WORKSPACE.items():
        if not os.path.exists(os.path.join(root, target)):
            print(f"perfbench: {target} not found; run from the repository root",
                  file=sys.stderr)
            return None
        link = os.path.join(ws, name)
        if os.path.islink(link):
            os.remove(link)
        os.symlink(os.path.relpath(os.path.join(root, target), ws), link)
    return ws


def dune(ws, *args):
    # The dune cache lives outside the checkout; keep every write inside.
    env = dict(os.environ, DUNE_CACHE="disabled")
    env.pop("DUNE_BUILD_DIR", None)
    return subprocess.run(
        ["dune", *args, "--root", ws,
         "--build-dir", os.path.join(os.path.dirname(ws), "out"),
         "--profile", "release"],
        env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL).returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if not args.selftest:
        if args.workload is None or args.seed is None or args.seconds is None:
            p.error("--workload, --seed and --seconds are required")
        if args.seconds <= 0:
            p.error("--seconds must be positive")

    ws = workspace()
    if ws is None:
        return 3
    if args.selftest:
        return dune(ws, "test", "--force")
    if dune(ws, "build", "./perfbench/main.exe") != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3

    exe = os.path.join(BUILD_DIR, "out", "default", "perfbench", "main.exe")
    cmd = [exe, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    return subprocess.run(cmd, stdin=subprocess.DEVNULL).returncode


if __name__ == "__main__":
    sys.exit(main())
