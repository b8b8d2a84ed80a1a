#!/usr/bin/env python3
"""Build perfbench from source and make one benchmark run.

Run from the repository root:

    python3 perfbench/run.py --workload drive --seed 7 --seconds 48 --trace 0

The Go build cache, temporary files and the traced run's spans stay under
.bench_build/ in the current directory. The run fails when it changed any
tracked file: measuring must never rewrite a committed file.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def tracked_files(root):
    """Files git tracks or, outside a git checkout, every file but build output."""
    if os.path.exists(os.path.join(root, ".git")):
        out = subprocess.run(["git", "ls-files", "-z"], cwd=root, check=True,
                             stdout=subprocess.PIPE).stdout
        return [p for p in out.decode().split("\0") if p]
    files = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in (".bench_build", ".git")]
        files += [os.path.relpath(os.path.join(dirpath, f), root) for f in filenames]
    return files


def digests(root):
    out = {}
    for rel in tracked_files(root):
        path = os.path.join(root, rel)
        if os.path.isfile(path):
            with open(path, "rb") as f:
                out[rel] = hashlib.sha256(f.read()).hexdigest()
    return out


def main():
    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ,
               GOCACHE=os.path.join(build, "gocache"),
               GOPATH=os.path.join(build, "gopath"),
               GOTMPDIR=tmp, TMPDIR=tmp,
               XDG_CONFIG_HOME=os.path.join(build, "config"),
               GOTOOLCHAIN="local", GOPROXY="off", GOWORK="off", GOFLAGS="")
    before = digests(root)
    binary = os.path.join(build, "perfbench")
    if subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env).returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    run = subprocess.run([binary, "--trace-file", os.path.join(build, "trace.json")] + sys.argv[1:],
                         cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    after = digests(root)
    changed = sorted(p for p in set(before) | set(after) if before.get(p) != after.get(p))
    if changed:
        print("perfbench: the run changed tracked files: " + ", ".join(changed), file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
