#!/usr/bin/env python3
"""Self-test of the benchmark on a small size of every workload.

    python3 perfbench/selftest.py

Run from the repository root. For each workload in BENCHMARK.json it runs the
benchmark with --small, once untraced (--trace 0) and once traced (--trace 1),
and checks that
  * the run exits 0 and its last stdout line is the JSON result with
    "correct": true and exactly the keys the contract names;
  * every end-to-end (trace 0) or per-layer (trace 1) metric of
    BENCHMARK.json is in the result with its unit, and printed in the table
    with the same unit, a clock and a sample count;
  * the layer-sum, output and serving-identity checks ran and passed;
  * a traced run wrote its spans as a loadable Chrome trace.
It also checks that the benchmark refuses an unknown workload. Exits non-zero on
the first failure.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args):
    cmd = [sys.executable, os.path.join(HERE, "run.py")] + args
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)


def check_run(spec, workload, trace):
    proc = run(["--workload", workload, "--seed", "3", "--seconds", "2",
                "--trace", str(trace), "--small"])
    where = "%s --trace %d" % (workload, trace)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise AssertionError("%s: exit code %d" % (where, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, where
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    assert isinstance(result["failed"], int) and result["failed"] == 0, where
    wanted = spec["end_to_end"] if trace == 0 else spec["per_layer"]
    names = [m["name"] for m in wanted]
    assert sorted(result["metrics"]) == sorted(names), \
        "%s: metrics %s, expected %s" % (where, sorted(result["metrics"]), sorted(names))
    table = {}
    for line in lines:
        m = re.match(r"metric (\S+)\s+(\S+) (\S+)\s+clock=(\w+)\s+n=(\d+)", line)
        if m:
            table[m.group(1)] = (m.group(3), m.group(4))
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        got = result["metrics"][name]
        assert got["unit"] == unit, "%s: %s unit %s != %s" % (where, name, got["unit"], unit)
        assert isinstance(got["value"], (int, float)), "%s: %s value" % (where, name)
        assert name in table and table[name][0] == unit, "%s: %s not in table" % (where, name)
    assert "CHECK FAILED" not in proc.stderr, where
    checks = [l for l in lines if l.startswith("checks:")]
    assert checks and " 0 failed; 0 check failures" in checks[-1], where
    assert any(l.startswith("check %s output" % workload) for l in lines), where
    if trace == 1:
        traced = [l for l in lines if l.startswith("traced pass:")]
        assert traced, where
        path = traced[-1].split("Chrome trace ", 1)[1]
        with open(path) as f:
            assert json.load(f)["traceEvents"], "%s: empty Chrome trace" % where
    print("ok  %s (%d metrics)" % (where, len(wanted)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, workload["name"], trace)
    bad = run(["--workload", "no_such_workload", "--seed", "1", "--seconds", "1",
               "--trace", "0"])
    assert bad.returncode != 0 and not bad.stdout.strip(), "unknown workload accepted"
    print("ok  unknown workload refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
