#!/usr/bin/env python3
"""Build the benchmark binary from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The binary is built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); build output goes
to stderr so that the last stdout line stays the binary's JSON result. A traced
run (--trace 1) writes its spans as a Chrome trace into that build directory.
The exit code is the binary's.
"""
import ctypes
import os
import subprocess
import sys

ADDR_NO_RANDOMIZE = 0x0040000

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    """Configures (once) and builds the binary; returns its build directory or
    None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: simulator sources (src/) not found beside perfbench/",
              file=sys.stderr)
        return None
    out = os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
                       "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return None
    return out


def fixed_layout():
    """Turns off address-space randomisation for the benchmark binary (Linux
    only), so that every run starts from the same heap layout and heap
    placement is not a source of host-time variation between runs. Simulated
    numbers do not depend on it."""
    try:
        ctypes.CDLL(None).personality(ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def main():
    out = build()
    if out is None:
        return 2
    sys.stdout.flush()
    cmd = [os.path.join(out, "perfbench")] + sys.argv[1:] + ["--trace-dir", out]
    return subprocess.run(cmd, preexec_fn=fixed_layout).returncode


if __name__ == "__main__":
    sys.exit(main())
