"""Set up one benchmark workload in a fresh interpreter.

    python3 bench/setup_probe.py --workload eval --seed 3

Imports jsbnn from the checkout, generates the workload's config, dataset,
network and checkpoint (see `workloads.prepare`), and prints one JSON line
with the facts the runner's output checks need. `bench/run.py` starts this
script several times per run and times each process from start to exit, so
the interpreter start and the import of scipy.stats count towards `setup_s`.
Exits 2 when the checkout has no jsbnn sources.
"""

from __future__ import annotations

import argparse
import json
import sys

import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    try:
        workloads.import_jsbnn()
    except workloads.CheckoutError as err:
        print(f"setup_probe: {err}", file=sys.stderr)
        return 2
    print(json.dumps(workloads.prepare(args.workload, args.seed), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
