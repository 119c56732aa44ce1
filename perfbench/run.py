#!/usr/bin/env python3
"""Build and run the repo benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload wc_deep --seed 1 --seconds 20 --trace 0

The first call configures and builds perfbench/ (the FT-MRMPI libraries
from src/ plus the benchmark program) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls only re-check the build. Build output
goes to stderr, so the program's last stdout line is its JSON result. Every
file the benchmark writes stays under that build directory.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            return False
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, env=env).returncode == 0


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 3
    exe = os.path.join(build_dir, "perfbench")
    out = os.path.join(build_dir, "results")
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    sys.stdout.flush()
    return subprocess.run([exe, *sys.argv[1:], "--out", out], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
