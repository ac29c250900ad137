#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 e2e_bench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds
e2e_bench/ (the library from src/ plus the e2e_bench binary) under
.bench_build, or under $CARGO_TARGET_DIR when that is set; later calls
only rebuild what changed. Build output goes to standard error, so the
last line of standard output is the binary's JSON result. The exit
code is the binary's: non-zero when the build fails, an output check
fails or the run overruns its time limit.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("decode_s1", "prefill_s128", "serve_ragged")
RUN_LIMIT_S = 170


def build():
    out = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
        "e2e_bench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return None
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, "e2e_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    binary = build()
    if binary is None:
        print("e2e_bench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    proc = subprocess.Popen(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace],
        cwd=ROOT)
    start = time.monotonic()
    try:
        return proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("e2e_bench: run exceeded %d s after %.0f s" %
              (RUN_LIMIT_S, time.monotonic() - start), file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
