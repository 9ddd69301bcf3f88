#!/usr/bin/env python3
"""Smoke test of the benchmark at sim::smoke_scenario() scale (3,000 users).

    python3 perfbench/smoke_test.py

Builds the benchmark like run.py does, then drives all three workloads
untraced and traced. Each run must exit 0 with correct=true and failed=0,
its JSON must carry exactly the metrics BENCHMARK.json lists for that mode,
and its report must print every metric by name with its unit. A traced run
must also write its spans.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def main():
    with open(os.path.join(run.SOURCE_ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    expected = {"0": manifest["end_to_end"], "1": manifest["per_layer"]}
    binary = run.build()
    out = run.build_dir()
    failures = []
    for workload in [w["name"] for w in manifest["workloads"]]:
        for trace in ["0", "1"]:
            label = "%s trace=%s" % (workload, trace)
            spans = os.path.join(out, "spans", "%s-seed7.spans.json" % workload)
            if os.path.exists(spans):
                os.remove(spans)
            done = subprocess.run(
                [binary, "--workload", workload, "--seed", "7", "--seconds",
                 "1", "--trace", trace, "--scale", "smoke", "--work-dir",
                 os.path.join(out, "work"), "--spans-dir",
                 os.path.join(out, "spans")],
                stdout=subprocess.PIPE, text=True, timeout=300)
            lines = done.stdout.rstrip("\n").split("\n")
            result = json.loads(lines[-1])
            report = "\n".join(lines[:-1])
            if done.returncode != 0 or not result["correct"] or result["failed"]:
                failures.append("%s: exit %d, result %s" %
                                (label, done.returncode, lines[-1][:200]))
            names = [m["name"] for m in expected[trace]]
            if list(result["metrics"]) != names:
                failures.append("%s: metrics %s, expected %s" %
                                (label, sorted(result["metrics"]), names))
            for m in expected[trace] + [{"name": "error_rate",
                                         "unit": "fraction"}]:
                got = result["metrics"].get(m["name"], {}).get("unit", m["unit"])
                if got != m["unit"]:
                    failures.append("%s: %s has unit %s" % (label, m["name"], got))
                if not any(l.split()[:1] == [m["name"]] and
                           l.split()[-1] == m["unit"]
                           for l in report.split("\n")):
                    failures.append("%s: report does not print %s in %s" %
                                    (label, m["name"], m["unit"]))
            if trace == "1" and not os.path.isfile(spans):
                failures.append("%s: no spans written" % label)
            print("%-22s exit %d, %d attempted, %d failed" %
                  (label, done.returncode, result["attempted"],
                   result["failed"]))
    for f in failures:
        print("FAIL " + f)
    print("smoke test " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
