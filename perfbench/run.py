#!/usr/bin/env python3
"""Builds the daemon and the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. Both binaries build in release mode into
$CARGO_TARGET_DIR (default: .bench_build). The script prints one line describing
the host and the build, then the benchmark's own output, whose last line is the
JSON result. It exits non-zero when the sources are missing, a build fails or an
answer disagrees with the oracle.
"""

import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCES = ("Cargo.toml", "Cargo.lock", "src", "crates", "perfbench/Cargo.toml",
           "perfbench/Cargo.lock", "perfbench/src")


def source_digest():
    """SHA-256 over the sources the binaries build from: the checkout is not a git
    repository, so this stands in for the commit."""
    digest = hashlib.sha256()
    files = []
    for entry in SOURCES:
        path = os.path.join(ROOT, entry)
        if os.path.isfile(path):
            files.append(path)
        for folder, dirs, names in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d != "target")
            files.extend(os.path.join(folder, n) for n in names
                         if n.endswith((".rs", ".toml", ".lock")))
    for path in sorted(files):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def main():
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates", "serve"))):
        sys.exit("perfbench: the repository sources are missing; run from a full checkout")
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    builds = (["cargo", "build", "--release", "--quiet", "--bin", "fcpn-served"],
              ["cargo", "build", "--release", "--quiet",
               "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")])
    for command in builds:
        if subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(command))
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
    print("# env " + json.dumps({
        "nproc": len(os.sched_getaffinity(0)),
        "profile": "release",
        "rustc": rustc.stdout.strip(),
        "source_sha256": source_digest(),
    }), flush=True)
    release = os.path.join(target, "release")
    bench = [os.path.join(release, "fcpn-perfbench"), *sys.argv[1:],
             "--served", os.path.join(release, "fcpn-served")]
    sys.exit(subprocess.run(bench, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
