#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a repdir checkout:

    python3 perfbench/run.py --workload local-mixed --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Builds perfbench/perfbench.exe from source with dune (release profile, no
shared dune cache, so nothing is written outside the checkout), then runs
it with the given arguments. The executable prints one line per metric and,
as its last line, the JSON result. A traced run (--trace 1) also writes its
spans to perfbench/out/<workload>-seed<seed>.spans.jsonl.

Exits non-zero, without a result line, when the build fails or the repdir
sources are missing; otherwise with the benchmark's own exit code (1 when a
correctness check failed).
"""

import os
import subprocess
import sys


def arg_value(args, name, default):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return default


def main():
    args = sys.argv[1:]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not (
        os.path.isfile(os.path.join(root, "dune-project"))
        and os.path.isdir(os.path.join(root, "lib"))
    ):
        print("perfbench: the repdir sources (dune-project, lib/) are missing", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", root, "--profile", "release", "./perfbench/perfbench.exe"],
        cwd=root,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(root, "_build", "default", "perfbench", "perfbench.exe")
    extra = []
    if arg_value(args, "--trace", "0") == "1" and "--spans" not in args:
        out = os.path.join(root, "perfbench", "out")
        os.makedirs(out, exist_ok=True)
        name = "%s-seed%s.spans.jsonl" % (
            arg_value(args, "--workload", "unknown"),
            arg_value(args, "--seed", "1"),
        )
        extra = ["--spans", os.path.join(out, name)]
    return subprocess.run([exe] + args + extra, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
