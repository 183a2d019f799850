#!/usr/bin/env python3
"""Builds the benchmark and the daemon from source, then runs one workload.

    python3 perfbench/run.py --workload solve|trust|wire --seed N --seconds S --trace 0|1

Run from the repository root. Cargo builds into $CARGO_TARGET_DIR
(default `.bench_build`), offline and against the committed lock file;
its output goes to standard error. The benchmark's own output, ending in
the one-line JSON result, goes to standard output. The exit code is the
benchmark's, or cargo's when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "-p", "leapfrog-perfbench", "-p", "leapfrog-serve",
        "--bin", "perfbench", "--bin", "leapfrogd",
    ]
    built = subprocess.run(build, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        return built.returncode
    release = os.path.join(target, "release")
    bench = [
        os.path.join(release, "perfbench"),
        "--daemon", os.path.join(release, "leapfrogd"),
        "--work", os.path.join(target, "perfbench-work"),
    ] + sys.argv[1:]
    return subprocess.run(bench, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
