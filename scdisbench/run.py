#!/usr/bin/env python3
"""Build and run the scdisd end-to-end benchmark from a repository checkout.

Run from the checkout's root:

    python3 scdisbench/run.py --workload stream-json --seed 1 --seconds 30 --trace 0

The benchmark is a Go module of its own (scdisbench/go.mod) that imports the
repository's packages through a replace directive, so it builds only inside a
full checkout: without the repository's sources the build fails and this
script exits 1 without printing a result. The binary, the Go build cache and
every file a run writes stay under <checkout>/.bench_build.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A first build compiles the standard library into an empty cache; build
# and run together stay under 15 minutes.
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 150


def main():
    out = os.path.join(ROOT, ".bench_build")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOMODCACHE": os.path.join(out, "gopath", "pkg", "mod"),
        # The go command's own state (telemetry, env file) lives under the
        # user's config directory, and its work files under the temporary
        # directory; keep both inside the checkout too.
        "HOME": out,
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "TMPDIR": tmp,
        "GOTMPDIR": tmp,
        "GOENV": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(out, "scdisbench")
    try:
        # Telemetry off before any other go command: in its default local
        # mode the go command starts a detached upload process it does not
        # wait for.
        subprocess.run(["go", "telemetry", "off"], cwd=HERE, env=env, timeout=60,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"scdisbench: build: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("scdisbench: build failed; the benchmark needs the whole repository checkout",
              file=sys.stderr)
        return 1
    try:
        run = subprocess.run([binary, "-root", ROOT] + sys.argv[1:], env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"scdisbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
