#!/usr/bin/env python3
"""Builds the benchmark from this checkout and runs one workload.

Run from the root of a checkout:

    python3 vizbench/run.py --workload zoom_pan --seed 1 --seconds 10 --trace 0

The engine (src/) and the benchmark (vizbench/) are compiled with CMake into
$CARGO_TARGET_DIR/vizbench (default .bench_build/vizbench); databases and
trace files go next to it, so a run reads and writes only inside the
checkout. Build output goes to stderr; the binary's last stdout line is the
JSON result. Exits non-zero, printing no result, when the build fails.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_digest():
    """A digest of the sources the binary is built from, for provenance
    when the checkout is not a git repository."""
    h = hashlib.sha1()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_describe():
    """`git describe --always --dirty` of the checkout, read on every run so
    that runs of different commits in one build directory name their own
    commit; "unknown" outside a git repository."""
    def git(*args):
        try:
            proc = subprocess.run(["git", *args], cwd=ROOT,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
        except OSError:
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    # Not a repository of its own: a checkout inside another repository
    # must not report that repository's commit.
    top = git("rev-parse", "--show-toplevel")
    if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
        return "unknown"
    return git("describe", "--always", "--dirty") or "unknown"


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "vizbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(target, "vizbench")
    if not build(build_dir):
        print("vizbench: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(build_dir, "vizbench"), *sys.argv[1:],
           "--work-dir", os.path.join(target, "vizbench-work"),
           "--trace-dir", os.path.join(target, "vizbench-traces"),
           "--git-describe", git_describe(),
           "--source-digest", source_digest()]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
