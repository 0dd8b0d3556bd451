"""Check that the benchmark's work counts equal perfbench/baseline.json.

Runs ``perfbench/run.py --seed 1 --trace 1`` on every workload that the
baseline lists and compares each traced call count, each ``*_out``
count, ``markov_steps`` and ``scalars.coeff_bits_max`` with the
baseline.  A speed change must leave the work unchanged.  Run it from
the root of a checkout:

    python3 tools/check_work_counts.py

It prints each count that differs, or how many it checked, and exits 1
when a count differs or none was checked.
"""

import json
import re
import subprocess
import sys

COUNT = re.compile(r"\.calls$|_out$|\.markov_steps$|^scalars\.coeff_bits_max$")


def main():
    with open("perfbench/baseline.json") as fh:
        baseline = json.load(fh)["per_layer"]
    bad, checked = [], 0
    for workload, expected in baseline.items():
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", "1", "--trace", "1"],
            check=True, capture_output=True, text=True).stdout
        got = json.loads(out.splitlines()[-1])["metrics"]
        for name, value in expected.items():
            if COUNT.search(name):
                checked += 1
                if got[name]["value"] != value:
                    bad.append("%s %s: %s, baseline %s"
                               % (workload, name, got[name]["value"], value))
    print("\n".join(bad) or "%d work counts equal the baseline" % checked)
    return 1 if bad or not checked else 0


if __name__ == "__main__":
    sys.exit(main())
