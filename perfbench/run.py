#!/usr/bin/env python3
"""Build the perfbench command from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload belle-paper --seed 1 --seconds 25 --trace 0

Every argument is passed to the benchmark binary (see README.md beside this
file for the flags). The Go build cache, the binary, the scratch directory
and the span files all live under .bench_build/ in the repository root;
nothing is written elsewhere. Build output goes to standard error, so the
last line of standard output is the benchmark's JSON result. The exit code
is the benchmark's own, or the build's when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def flag_value(args, name):
    """Return the value of -name/--name in args (either form), or None."""
    for i, a in enumerate(args):
        for prefix in ("-" + name, "--" + name):
            if a == prefix and i + 1 < len(args):
                return args[i + 1]
            if a.startswith(prefix + "="):
                return a[len(prefix) + 1:]
    return None


def main():
    out = os.path.join(ROOT, ".bench_build", "perfbench")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="",
    )
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        return build.returncode

    args = sys.argv[1:]
    extra = ["-workdir", os.path.join(out, "work-%d" % os.getpid())]
    if flag_value(args, "trace") == "1" and flag_value(args, "spans") is None:
        name = "spans-%s-%s.csv" % (flag_value(args, "workload"), flag_value(args, "seed"))
        extra += ["-spans", os.path.join(out, name)]
    return subprocess.run([binary] + args + extra, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
