#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload sim-hits --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first form builds the Go program in perfbench/ (its own module, which
imports the repository's packages through a replace directive), runs one
workload, and passes its output through: the last line is the JSON
result. --selftest runs every workload of BENCHMARK.json once, traced
and untraced, and fails if a check failed or a metric BENCHMARK.json
names is missing. See perfbench/README.md.

Everything the build and the runs write goes under the build directory:
$CARGO_TARGET_DIR when set, else .bench_build, relative to the
repository root.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT = 800
RUN_TIMEOUT = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def go_env(bd):
    """Keep every Go cache, temp and config file inside the build dir."""
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(bd, "gocache"),
        GOTMPDIR=os.path.join(bd, "tmp"),
        GOPATH=os.path.join(bd, "gopath"),
        GOMODCACHE=os.path.join(bd, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(bd, "config"),
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOENV="off",
        CGO_ENABLED="0",
    )
    for key in ("GOTMPDIR", "XDG_CONFIG_HOME"):
        os.makedirs(env[key], exist_ok=True)
    return env


def build():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        fail(f"no go.mod at {ROOT}: run from a checkout of the repository")
    bd = build_dir()
    os.makedirs(bd, exist_ok=True)
    binary = os.path.join(bd, "perfbench")
    try:
        proc = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE,
                              env=go_env(bd), stdout=sys.stderr, timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if proc.returncode != 0:
        fail("build failed")
    return binary


def fingerprint():
    """The commit, or a hash of the sources when there is no git checkout."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    skip = os.path.basename(build_dir())
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith(".") and d != skip)
        for name in sorted(filenames):
            if name.endswith((".go", ".mod", ".gcs")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def run(binary, workload, seed, seconds, trace, capture=False):
    args = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace),
            "--out", os.path.join(build_dir(), "results"), "--commit", fingerprint()]
    sys.stdout.flush()
    try:
        return subprocess.run(args, cwd=ROOT, timeout=RUN_TIMEOUT, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT}s")


def selftest(binary, seconds):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            name = f"{w['name']} --trace {trace}"
            proc = run(binary, w["name"], 1, seconds, trace, capture=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{name}: exit {proc.returncode}")
                continue
            res = json.loads(lines[-1])
            if not res["correct"] or res["failed"] != 0:
                problems.append(f"{name}: {res['failed']} of {res['attempted']} checks failed")
            for m in spec[key]:
                got = res["metrics"].get(m["name"])
                if got is None:
                    problems.append(f"{name}: metric {m['name']} missing")
                elif got["unit"] != m["unit"]:
                    problems.append(f"{name}: metric {m['name']} in {got['unit']}, want {m['unit']}")
            print(f"perfbench selftest: {name}: {len(res['metrics'])} metrics, "
                  f"{res['attempted']} checks, {res['failed']} failed")
    for p in problems:
        print(f"perfbench selftest: FAIL {p}")
    print("perfbench selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run every workload once for --seconds (default 1) and check the result")
    a = ap.parse_args()
    if not a.selftest and not a.workload:
        ap.error("--workload is required")
    binary = build()
    if a.selftest:
        sys.exit(selftest(binary, a.seconds or 1))
    sys.exit(run(binary, a.workload, a.seed, a.seconds or 10, a.trace).returncode)


if __name__ == "__main__":
    main()
