#!/usr/bin/env python3
"""Build and run the mediator benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload bulk-fig5 --seed 1 --seconds 20 --trace 0

The script builds the Go benchmark program in perfbench/ from source, with
every build artefact (Go build cache, temporary files, the binary) kept
under .bench_build/ in the repository root, then runs it with the given
arguments. The program prints every metric by name and unit; its last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is the program's, or 1 when
the build fails or the run overruns its time limit.
"""

import os
import shutil
import subprocess
import sys

# The benchmark must end within 180 s; leave room for process start-up.
RUN_TIMEOUT_S = 170
# A cold build compiles the standard library and the repository.
BUILD_TIMEOUT_S = 850


def main(argv):
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)

    go = shutil.which("go")
    if go is None:
        print("perfbench: go toolchain not found on PATH", file=sys.stderr)
        return 1
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOENV": "off",
        "GOWORK": "off",
        "GOFLAGS": "",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "perfbench", "perfbench")
    try:
        built = subprocess.run(
            [go, "build", "-o", binary, "."],
            cwd=bench_dir, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        ran = subprocess.run(
            [binary] + argv + ["--out", build, "--go", go],
            cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
