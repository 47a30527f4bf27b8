"""Workloads, operations and the correctness gate of the nilab benchmark.

An operation is one orbit run through ``nilab.index.analyze_orbit`` or one
``nilab verify`` suite.  Every operation yields a canonical JSON text whose
SHA-256 is compared against ``reference_hashes.json`` (recorded with
``record.py``) and, for seeds that were never recorded, against the hashes
an earlier run of the same seed left in the local hash cache.  Orbit
operations are also checked against the closed-form centralizer dimension,
which does not come from the library.

Importing this module needs ``nilab`` on ``sys.path``; ``run.py`` puts the
checkout's ``src`` there first.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from nilab import cli
from nilab.algebras import build_algebra
from nilab.index import _family_rank_for_size, analyze_orbit, valid_partitions
from nilab.triples import Partition

REFERENCE_FILE = Path(__file__).resolve().parent / "reference_hashes.json"


@dataclass(frozen=True)
class Workload:
    """A fixed list of operations plus the algebras its set-up builds.

    ``algebras`` are (family, matrix size) pairs; ``sweep`` entries run every
    valid partition of that size, ``orbits`` entries one partition each and
    ``verify`` entries one identity suite per (family, rank).
    """

    name: str
    algebras: tuple = ()
    sweep: tuple = ()
    orbits: tuple = ()
    verify: tuple = ()


WORKLOADS = {
    w.name: w
    for w in (
        # The headline sweep: build_pair_data and the coordinate read-off
        # dominate, the polynomial layer is under 1 percent.
        Workload("sweep-sl7", algebras=(("A", 7),), sweep=(("A", 7),)),
        # Same kernels, other input shape: two-entry so/sp basis matrices,
        # the Jacobson-Morozov solve, the Pfaffian gradient through
        # gram_inverse, duplicated D4 exponents and two orbits that stop
        # early on a violated hypothesis (B7 3,3,1 and D8 3,3,1,1).
        Workload(
            "sweep-bcd",
            algebras=(("B", 7), ("C", 6), ("D", 8)),
            sweep=(("B", 7), ("C", 6), ("D", 8)),
        ),
        # Invariants and interpolation on dense random elements, where the
        # sparsity of nilpotent inputs does not help.
        Workload(
            "verify-rank2-3",
            algebras=(("A", 4), ("B", 5), ("C", 4)),
            verify=(("A", 3), ("B", 2), ("C", 2)),
        ),
        # poly_det at s=8 (Leibniz) and s=9 (Bareiss), degree 8-9
        # interpolation, and the largest algebras to set up.
        Workload(
            "orbits-sl9-sl10",
            algebras=(("A", 9), ("A", 10)),
            orbits=(("A", 9, (9,)), ("A", 10, (10,))),
        ),
    )
}


def algebra_specs(workload: Workload):
    """(family, rank) of every algebra the workload's set-up builds."""
    return [(f, _family_rank_for_size(f, n)) for f, n in workload.algebras]


@dataclass(frozen=True)
class Op:
    key: str  # unique across workloads, e.g. "A7:3,2,2" or "verify:B2"
    family: str
    size: int  # matrix size for orbits, rank for verify
    parts: tuple = ()

    @property
    def is_verify(self) -> bool:
        return not self.parts


def operations(workload: Workload, algebras: dict):
    ops = []
    for family, n in workload.sweep:
        for p in valid_partitions(algebras[family, n]):
            ops.append(Op(f"{family}{n}:{p}", family, n, p.parts))
    for family, n, parts in workload.orbits:
        ops.append(Op(f"{family}{n}:{Partition(parts)}", family, n, tuple(parts)))
    for family, rank in workload.verify:
        ops.append(Op(f"verify:{family}{rank}", family, rank))
    return ops


def build_algebras(workload: Workload) -> dict:
    return {
        (f, n): build_algebra(f, _family_rank_for_size(f, n)) for f, n in workload.algebras
    }


@dataclass
class Outcome:
    text: str  # canonical JSON of the operation's output
    problems: list  # the library's own failure reports
    z_dim: int | None = None  # dims["z"] of a nonzero orbit
    g_dim: int | None = None  # algebra dimension reported by verify
    start: float = 0.0  # time.perf_counter() when the library call began
    seconds: float = 0.0


def run_op(op: Op, algebras: dict, seed: int) -> Outcome:
    """Run one operation; only the library call is timed."""
    if op.is_verify:
        argv = ["verify", "--family", op.family, "--rank", str(op.size), "--seed", str(seed)]
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.run(argv)
        seconds = time.perf_counter() - start
        payload = buf.getvalue()
        problems = [] if code == cli.EXIT_OK else [f"exit code {code}"]
        try:
            g_dim = json.loads(payload)["algebra"]["dim"]
        except (ValueError, KeyError, TypeError):
            return Outcome(payload, problems + ["unparsable verify payload"], start=start,
                           seconds=seconds)
        return Outcome(f"{payload}exit {code}\n", problems, g_dim=g_dim, start=start,
                       seconds=seconds)
    alg = algebras[op.family, op.size]
    start = time.perf_counter()
    rep = analyze_orbit(alg, Partition(op.parts), seed=seed)
    seconds = time.perf_counter() - start
    problems = []
    if rep.error:
        problems.append(rep.error)
    elif rep.hypothesis_ok and not rep.passed:
        problems.append("pipeline check failed")
    text = json.dumps(rep.to_dict(), indent=2, sort_keys=True)
    z_dim = None if rep.skipped else rep.dims.get("z")
    return Outcome(text, problems, z_dim=z_dim, start=start, seconds=seconds)


def dual_partition(parts):
    return [sum(1 for p in parts if p > i) for i in range(max(parts))]


def centralizer_dim(family: str, parts) -> int:
    """dim z(e) for the orbit of Jordan type ``parts`` (Collingwood-McGovern 6.1)."""
    squares = sum(c * c for c in dual_partition(parts))
    odd = sum(1 for p in parts if p % 2)
    if family == "A":
        return squares - 1
    if family == "C":
        return (squares + odd) // 2
    return (squares - odd) // 2


def algebra_dim(family: str, rank: int) -> int:
    if family == "A":
        n = rank + 1
        return n * n - 1
    n = 2 * rank + 1 if family == "B" else 2 * rank
    return n * (n + 1) // 2 if family == "C" else n * (n - 1) // 2


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_reference(seed: int) -> dict:
    """Recorded op-key -> SHA-256 for ``seed``; empty for unrecorded seeds."""
    with open(REFERENCE_FILE, encoding="utf-8") as handle:
        return json.load(handle)["seeds"].get(str(seed), {})


@dataclass
class Gate:
    """Decides whether an operation failed and keeps the failure count.

    ``reference`` holds recorded hashes; ``seen`` holds hashes of earlier
    passes of this run and, for unrecorded seeds, of earlier runs.
    """

    reference: dict
    seen: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def check(self, op: Op, out: Outcome) -> str:
        sha = digest(out.text)
        problems = list(out.problems)
        expected = self.reference.get(op.key) or self.seen.get(op.key)
        if expected is not None and expected != sha:
            problems.append(f"hash {sha[:12]} != expected {expected[:12]}")
        self.seen.setdefault(op.key, sha)
        if out.z_dim is not None:
            oracle = centralizer_dim(op.family, op.parts)
            if out.z_dim != oracle:
                problems.append(f"dim z {out.z_dim} != closed form {oracle}")
        if op.is_verify:
            oracle = algebra_dim(op.family, op.size)
            if out.g_dim != oracle:
                problems.append(f"dim g {out.g_dim} != closed form {oracle}")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{op.key}: {'; '.join(problems)}")
        return sha

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def self_test() -> None:
    """Check that the gate counts a corrupted reference hash and an oracle
    mismatch as failed operations, on a real orbit of sl(3)."""
    op = Op("A3:2,1", "A", 3, (2, 1))
    out = run_op(op, {("A", 3): build_algebra("A", 2)}, 0)
    clean = Gate({})
    sha = clean.check(op, out)
    corrupted = Gate({op.key: ("0" if sha[0] != "0" else "1") + sha[1:]})
    corrupted.check(op, out)
    wrong_dim = Gate({op.key: sha})
    wrong_dim.check(op, Outcome(out.text, [], z_dim=out.z_dim + 1))
    if clean.failed_ratio != 0 or corrupted.failed_ratio <= 0 or wrong_dim.failed_ratio <= 0:
        raise RuntimeError(
            "benchmark self-test: the gate does not count injected failures "
            f"(clean {clean.failures}, hash {corrupted.failures}, oracle {wrong_dim.failures})"
        )
