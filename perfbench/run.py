#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <redact|attack|serve_mix> \
        --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default `.bench_build` in the
checkout) and its log to stderr, so the last line on stdout is the
benchmark's JSON result. Exits non-zero, without a result, when the build
fails (for instance in a directory that lacks the workspace crates).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    # The flow's knobs (tracing, deadlines, queue bounds) are the
    # benchmark's own settings, never the caller's environment.
    for name in [n for n in env if n.startswith("SHELL_")]:
        del env[name]
    run = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env, check=False)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
