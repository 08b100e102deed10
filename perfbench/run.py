#!/usr/bin/env python3
"""Build and run the BitDew-rs benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <ingest|fanout|mutate|churn_sim> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (offline, release) into `$CARGO_TARGET_DIR`
(default `.bench_build`) and runs it with the given arguments plus the
source revision. The benchmark's own output goes to stdout; its last line
is the JSON result. Build output goes to stderr. Exits non-zero when the
build fails, when a correctness check fails, or when the run overstays its
time limit.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def source_rev():
    """The git revision, or a digest of the sources when there is no git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for base, dirs, names in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d != "target")
            files.extend(os.path.join(base, n) for n in sorted(names))
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "src-" + digest.hexdigest()[:12]


def main():
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    env["CARGO_TARGET_DIR"] = target
    try:
        build = subprocess.run(
            [
                "cargo",
                "build",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                os.path.join("perfbench", "Cargo.toml"),
            ],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build did not run: {e}", file=sys.stderr)
        return 3
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    exe = os.path.join(ROOT, target, "release", "perfbench")
    try:
        run = subprocess.run(
            [exe, *sys.argv[1:], "--rev", source_rev()],
            cwd=ROOT,
            env=env,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4
    except OSError as e:
        print(f"perfbench: cannot run {exe}: {e}", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
