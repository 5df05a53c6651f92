#!/usr/bin/env python3
"""Build the layered benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 15 --trace 0

Builds perfbench/main.exe with dune into .bench_build/, then runs it with
the given arguments plus a source identifier for the host fingerprint.
Everything the run writes (build, profiles, Chrome traces, sockets)
stays inside the checkout, under .bench_build/ and .bench_out/.  The
last line of standard output is the result object; the exit status is
the benchmark's (non-zero on a failed build or on any wrong result).
"""

import hashlib
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
SOURCES = ("dune-project", "dune", "lib", "bin", "perfbench")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, check=True,
                             timeout=10).stdout.split()
        if len(out) == 2 and os.path.realpath(out[0]) == os.path.realpath(os.getcwd()):
            return out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in SOURCES:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in paths:
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "perfbench/main.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
    cmd = [exe] + sys.argv[1:] + ["--commit", source_id()]
    with subprocess.Popen(cmd) as proc:
        try:
            return proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise


if __name__ == "__main__":
    sys.exit(main())
