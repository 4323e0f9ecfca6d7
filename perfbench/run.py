#!/usr/bin/env python3
"""Build and run the CIRC benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload corpus-cold --seed 1 --seconds 30 --trace 0

The Go benchmark (this directory, its own module) is built from source
into the build directory ($CARGO_TARGET_DIR, default .bench_build). Every
Go cache and configuration path points inside it, so building and running
touch nothing outside the checkout and need no network. The benchmark's
last line of output is its JSON result; this wrapper checks that the
result carries exactly the metrics BENCHMARK.json names for the mode and
exits non-zero when it does not, when the build fails, or when the
benchmark reports a failure.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def go_env(build):
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "go-cache"), ("GOPATH", "gopath"), ("GOMODCACHE", "gopath/pkg/mod"),
                     ("HOME", "home"), ("XDG_CONFIG_HOME", "home/.config"), ("XDG_CACHE_HOME", "home/.cache"),
                     ("TMPDIR", "tmp")):
        env[key] = os.path.join(build, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOSUMDB="off", GOWORK="off", GOFLAGS="", CGO_ENABLED="0")
    return env


def source_identity(root):
    """The git commit when the checkout is a repository, else a hash of the Go sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()[:12]
    except OSError:
        pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src:" + h.hexdigest()[:12]


def expected_metrics(root, trace):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]}


def main(argv):
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "go.mod")) or not os.path.isdir(os.path.join(root, "internal")):
        print("run.py: run from the root of a CIRC checkout (go.mod and internal/ not found)", file=sys.stderr)
        return 2
    trace = "0"
    for i, a in enumerate(argv):
        if a in ("--trace", "-trace") and i + 1 < len(argv):
            trace = argv[i + 1]
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = go_env(build)
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("run.py: go build failed:", e, file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("run.py: go build failed", file=sys.stderr)
        return 2
    cmd = [binary] + argv + ["--commit", source_identity(root), "--trace-out", os.path.join(build, "traces")]
    try:
        run = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, timeout=175)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 2
    out = run.stdout.decode()
    sys.stdout.write(out)
    sys.stdout.flush()
    if run.returncode != 0:
        return run.returncode
    lines = out.strip().splitlines()
    try:
        got = set(json.loads(lines[-1])["metrics"])
    except (IndexError, ValueError, KeyError):
        print("run.py: no result line", file=sys.stderr)
        return 3
    want = expected_metrics(root, trace)
    if got != want:
        print("run.py: metrics differ from BENCHMARK.json: missing %s, extra %s"
              % (sorted(want - got), sorted(got - want)), file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
