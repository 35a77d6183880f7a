#!/usr/bin/env python3
"""Build the ER benchmark from source and run one workload.

    python3 erbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It builds erbench/main.exe with
dune (build output goes to stderr), then runs it with the same
arguments; the benchmark's last stdout line is its JSON result and its
exit status is the benchmark's.
"""

import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "dune-project")):
        print("erbench: no dune-project at %s; the benchmark builds the "
              "repository it sits in" % root, file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", root, "--display", "quiet",
         "./erbench/main.exe"],
        cwd=root, stdout=sys.stderr)
    if build.returncode != 0:
        print("erbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(root, "_build", "default", "erbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
