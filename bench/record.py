"""Record the reference SHA-256 of every benchmark operation.

Usage, from the root of a checkout:

    python3 bench/record.py --seeds 0-15

Runs each workload's operations once per seed, untimed, and merges the
hashes into ``bench/reference_hashes.json``.  Record only from a commit
whose outputs are trusted: later runs treat these hashes as correct.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    sys.path.insert(0, str(SRC))
    import lab

    for workload in lab.WORKLOADS.values():
        algebras = lab.build_algebras(workload)
        ops = lab.operations(workload, algebras)
        for seed in seeds:
            gate = lab.Gate({})
            hashes = {op.key: gate.check(op, lab.run_op(op, algebras, seed)) for op in ops}
            if gate.failures:
                print("\n".join(gate.failures), file=sys.stderr)
                return 1
            with open(lab.REFERENCE_FILE, encoding="utf-8") as handle:
                reference = json.load(handle)
            reference["seeds"].setdefault(str(seed), {}).update(hashes)
            with open(lab.REFERENCE_FILE, "w", encoding="utf-8") as handle:
                json.dump(reference, handle, indent=1, sort_keys=True)
                handle.write("\n")
            print(f"recorded {workload.name} seed {seed}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
