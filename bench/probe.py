"""Set-up probe, run in a fresh interpreter by run.py.

Usage: python3 probe.py SRC_DIR FAMILY:RANK [FAMILY:RANK ...]

Prints the seconds taken by ``import nilab`` from SRC_DIR plus
``build_algebra`` of each listed algebra, scaled to the reference host speed
(see speed.py), then the raw seconds.
"""

import sys
import time
from pathlib import Path


def main(argv):
    src = Path(argv[0]).resolve()
    start = time.perf_counter()
    sys.path.insert(0, str(src))
    import nilab

    for spec in argv[1:]:
        family, rank = spec.split(":")
        nilab.build_algebra(family, int(rank))
    seconds = time.perf_counter() - start
    if src not in Path(nilab.__file__).resolve().parents:
        raise SystemExit(f"probe imported nilab from {nilab.__file__}, not {src}")
    import speed  # only now: the timed region must not include its imports

    print(repr(speed.scaled(seconds, speed.calibrate())), repr(seconds))


if __name__ == "__main__":
    main(sys.argv[1:])
