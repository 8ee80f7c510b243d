#!/usr/bin/env python3
"""Build the benchmark from this checkout and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload array-ebr --seed 1 --seconds 20 --trace 0

The Go program in perfbench/ is built with the local Go toolchain into
.bench_build/perfbench/, with Go's build cache and configuration kept there
too, so a run writes nothing outside the checkout. The arguments are passed
to the program unchanged; the last line of its standard output is the JSON
result. Build output goes to standard error. The exit code is the program's,
or the build's when the build fails (as it does when the repository's own
sources are missing).
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("run.py: building perfbench failed", file=sys.stderr)
        return built.returncode
    return subprocess.run([binary] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
