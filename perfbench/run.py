#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the repository root. The benchmark is a Cargo package of its
own (perfbench/Cargo.toml) that builds against the repository's crates by
path, into $CARGO_TARGET_DIR (default .bench_build). Its last stdout line
is the JSON result. When the build fails, this exits non-zero without a
result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    """Build the release binary; return its path, or None on failure."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(HERE, "Cargo.toml")
    try:
        done = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
             "--manifest-path", manifest],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: cargo build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: cargo build failed", file=sys.stderr)
        return None
    return os.path.join(target, "release", "perfbench")


def main():
    binary = build()
    if binary is None:
        return 1
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
