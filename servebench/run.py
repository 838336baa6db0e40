#!/usr/bin/env python3
"""Builds the `clarify` daemon and the benchmark client from source, then
runs one benchmark run.

    python3 servebench/run.py --workload census-mix --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. Both builds are release builds into
`$CARGO_TARGET_DIR` (default `.bench_build`). Every argument is passed to
the client (`servebench/src/main.rs`), which prints diagnostics lines and,
as its last line, one JSON result object. Exits non-zero, without a
result, when either build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr)
    if proc.returncode != 0:
        sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
        sys.exit(2)


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    os.environ["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(ROOT, "Cargo.toml")
    if not os.path.isfile(manifest):
        sys.stderr.write("run.py: no Cargo.toml at %s; run from a checkout\n" % ROOT)
        sys.exit(2)
    build(["--manifest-path", manifest, "--bin", "clarify"])
    build(["--manifest-path", os.path.join(HERE, "Cargo.toml")])
    client = os.path.join(target, "release", "servebench")
    clarify = os.path.join(target, "release", "clarify")
    proc = subprocess.run([client, "--clarify", clarify] + sys.argv[1:], cwd=ROOT)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
