#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper64 --seed 1 --seconds 20 --trace 0

Builds the perfbench Go package (its own module, which imports the
simulator from the repository root) into the build directory, then runs
it with the given flags. Every file the build and the run write stays
under the build directory: $CARGO_TARGET_DIR when set, else
.bench_build, relative to the repository root. The benchmark's last
line of standard output is its JSON result; the exit code is the
benchmark's, or 2 when the build fails.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(ROOT, "perfbench")


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    # Keep the Go toolchain's caches, config and telemetry inside the
    # build directory, and never let it fetch anything.
    for var, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"),
                     ("GOPATH", "gopath"), ("HOME", "home"),
                     ("XDG_CONFIG_HOME", "config"), ("XDG_CACHE_HOME", "cache"),
                     ("GOTMPDIR", "tmp")):
        env[var] = os.path.join(build, sub)
        os.makedirs(env[var], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="",
               GOENV="off", GOTELEMETRY="off", GOWORK="off")
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=PKG, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("run.py: building perfbench failed", file=sys.stderr)
        return 2
    args = [binary, "-trace-dir", os.path.join(build, "trace")] + sys.argv[1:]
    return subprocess.run(args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
