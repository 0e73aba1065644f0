#!/usr/bin/env python3
"""Builds and runs the repo benchmark (perfbench) from the root of a checkout.

    python3 perfbench/run.py --workload plan_cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and compiles the hetpipe sources plus the binary
(Release) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench;
later calls only rebuild what changed. All arguments go to the binary, whose
last stdout line is the JSON result. Build output goes to stderr. Exits
non-zero, printing no result, when the build fails.
"""

import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(root, build_root, "perfbench")

    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, cwd=root, stdout=sys.stderr).returncode != 0:
            print("perfbench: configure failed", file=sys.stderr)
            shutil.rmtree(build, ignore_errors=True)
            return 1
    if subprocess.run(["cmake", "--build", build, "-j", "4"], cwd=root,
                      stdout=sys.stderr).returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")) and shutil.which("git"):
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                               text=True)
        if probe.returncode == 0:
            commit = probe.stdout.strip()

    command = [os.path.join(build, "perfbench"), *sys.argv[1:], "--commit", commit,
               "--work-dir", os.path.join(build, "work"),
               "--golden-dir", os.path.join(root, "tests", "golden")]
    try:
        return subprocess.run(command, cwd=root, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
