"""Command-line front end.

Subcommands:

  verify       identity suites for one algebra (field identities for every
               generator, sl(2) ladders, gradient independence, triangular
               decomposition, shifted-gradient rank; ranks up to
               VERIFY_MAX_RANK = 6, samples up to VERIFY_MAX_SAMPLES = 100)
  index        the full pipeline for one nilpotent orbit (matrix sizes up
               to ORBIT_MAX_N = 20)
  table        the pipeline swept over every valid partition of a size
               (matrix sizes up to TABLE_MAX_N = 10)
  decompose    the triangular decomposition bases (ranks up to
               DECOMPOSE_MAX_RANK = 12)
  convolution  the alpha table and proportionality-constant audit (matrix
               sizes up to ORBIT_MAX_N = 20)

Exit codes: 0 all checks passed; 1 a check failed; 2 the orbit violates
the spanning hypothesis (reported, not a failure); 3 usage error.  Output
is JSON (table also offers CSV), deterministic for a fixed seed; rationals
are serialized as exact "p/q" strings.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import __version__
from .algebras import _family_rank_for_size, build_algebra
from .errors import ContractError, HypothesisViolation, NilabError, IdentityError
from .index import (
    analyze_orbit,
    bracket_matrix,
    build_pair_data,
    convolution_entries,
    sweep,
)
from .invariants import (
    _decomposition_from_ladders,
    kostant_independence,
    make_samples,
    mf_shift_rank,
    sl2_vectors,
    triangular_decomposition,
    verify_field_identities,
)
from .reports import CheckReport, coords_strs
from .triples import (
    Partition,
    _validate_partition,
    principal_triplet,
    triple_from_partition,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_HYPOTHESIS = 2
EXIT_USAGE = 3

# Largest sizes the commands accept; larger ones are refused before any
# algebra is built.  A table sweep's orbit count grows like the partition
# count of n and its per-orbit work with dim g.  Whole commands, start-up
# included (python -B -m nilab), median of three runs on a shared 2-vCPU
# host, slower than the one the caps were set on: the sl(10) table takes
# about 0.46 s; one orbit (index, convolution) of sl(20) 0.14 s and 18 MB
# (minimal) or 0.22 s and 21 MB (principal), the minimal orbit of sl(16)
# 0.13 s and 17 MB.
# The verify suites grow with the rank through the generator degrees: the
# slowest rank-6 suite, B6, takes about 4.9 s there (C6 4.4 s, B5 1.6 s).
# The verify samples are drawn one at a time, each checked for all
# generators at once and then dropped: B4 takes 0.67 s with the default 20
# samples and 2.7 s with 100.  The decomposition of a rank is slowest on
# B, the largest matrix size: B12 (so(25)) takes 0.58 s and 33 MB.
TABLE_MAX_N = 10
ORBIT_MAX_N = 20
VERIFY_MAX_RANK = 6
VERIFY_MAX_SAMPLES = 100
DECOMPOSE_MAX_RANK = 12


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _meta(args, alg, partition=None) -> dict:
    return {
        "family": alg.family,
        "rank": alg.rank_r,
        "n": alg.matrix_size_N,
        "partition": str(partition) if partition is not None else None,
        "seed": getattr(args, "seed", 0),
        "version": __version__,
    }


def _emit(args, payload: dict, rows=None) -> None:
    """Write payload as JSON, or rows as CSV when they are given."""
    if rows is None:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for row in rows:
            writer.writerow(row)
        text = buf.getvalue()
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ContractError(f"cannot write {args.output!r}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _require_at_most(args, flag: str, cap: int) -> None:
    value = getattr(args, flag)
    if value > cap:
        raise ContractError(f"{args.command} supports --{flag} up to {cap}, got {value}")


def _cmd_verify(args) -> int:
    if args.samples < 1:
        raise ContractError(f"--samples must be at least 1, got {args.samples}")
    _require_at_most(args, "rank", VERIFY_MAX_RANK)
    _require_at_most(args, "samples", VERIFY_MAX_SAMPLES)
    alg = build_algebra(args.family, args.rank)
    samples = make_samples(alg, args.samples, args.seed)
    checks = [report.to_dict() for report in verify_field_identities(alg, samples)]
    triple = principal_triplet(alg)
    ladder = CheckReport(f"{alg.name} sl(2) ladders")
    ladder_error = None
    try:
        ladders = sl2_vectors(alg, triple)
        ladder.add("eigen-ladders", True)
    except IdentityError as exc:
        ladder_error = exc
        ladder.add("eigen-ladders", False, str(exc))
    checks.append(ladder.to_dict())
    try:
        checks.append(kostant_independence(alg, triple).to_dict())
    except IdentityError as exc:
        failed = CheckReport(f"{alg.name} gradient independence at regular e")
        failed.add("independence", False, str(exc))
        checks.append(failed.to_dict())
    tri = CheckReport(f"{alg.name} triangular decomposition")
    try:
        if ladder_error is not None:  # the decomposition is built from the ladders
            raise ladder_error
        decomposition = _decomposition_from_ladders(alg, ladders)
        tri.add(
            "dims",
            True,
            f"({decomposition.h_space.dim}, {decomposition.n_plus.dim}, "
            f"{decomposition.n_minus.dim})",
        )
    except IdentityError as exc:
        tri.add("dims", False, str(exc))
    checks.append(tri.to_dict())
    shifts = list(range(1, max(alg.exponents) + 2))
    rank = mf_shift_rank(alg, triple, shifts)
    half_orbit = (alg.dim - alg.rank_r) // 2
    shift_report = CheckReport(f"{alg.name} shifted-gradient span")
    shift_report.add(
        "half-orbit-dimension", rank == half_orbit, f"rank {rank}, expected {half_orbit}"
    )
    checks.append(shift_report.to_dict())
    payload = {
        "meta": _meta(args, alg),
        "algebra": alg.describe(),
        "checks": checks,
        "results": {"all_pass": all(c["pass"] for c in checks)},
    }
    _emit(args, payload)
    return EXIT_OK if payload["results"]["all_pass"] else EXIT_CHECK_FAILED


def _cmd_index(args) -> int:
    _require_at_most(args, "n", ORBIT_MAX_N)
    alg = build_algebra(args.family, _family_rank_for_size(args.family, args.n))
    partition = Partition.parse(args.partition)
    _validate_partition(alg, partition)  # usage errors exit 3, not 1
    report = analyze_orbit(alg, partition, seed=args.seed)
    payload = {
        "meta": _meta(args, alg, partition),
        "checks": report.to_dict()["checks"],
        "results": {
            "ind": report.ind,
            "hypothesis_ok": report.hypothesis_ok,
            "s": report.s,
            "dims": report.dims,
            "pair_exponents": list(report.pair_exponents),
            "det_consistent": report.det_consistent,
            "note": report.note,
            "error": report.error,
        },
    }
    _emit(args, payload)
    return _orbits_exit_code([report])


def _orbits_exit_code(reports) -> int:
    """1 if an orbit raised or failed a check, else 2 if one violates the
    hypothesis, else 0; a skipped orbit passes."""
    if any(rep.error or (rep.hypothesis_ok and not rep.passed) for rep in reports):
        return EXIT_CHECK_FAILED
    if any(not rep.hypothesis_ok and not rep.skipped for rep in reports):
        return EXIT_HYPOTHESIS
    return EXIT_OK


def _csv_rows(reports):
    rows = [["partition", "dim_delta", "s", "ind", "hypothesis_ok", "gamma_nonzero"]]
    for rep in reports:
        if rep.skipped:
            rows.append([rep.partition, "", "", "", "", ""])
            continue
        rows.append(
            [
                rep.partition,
                rep.dims.get("delta", ""),
                rep.s,
                rep.ind if rep.ind is not None else "",
                rep.hypothesis_ok,
                rep.gamma_nonzero if rep.gamma_nonzero is not None else "",
            ]
        )
    return rows


def _cmd_table(args) -> int:
    _require_at_most(args, "n", TABLE_MAX_N)
    reports = sweep(args.family, args.n, seed=args.seed)
    alg = build_algebra(args.family, _family_rank_for_size(args.family, args.n))
    payload = {
        "meta": _meta(args, alg),
        "checks": [],
        "results": {"orbits": [rep.to_dict() for rep in reports]},
    }
    _emit(args, payload, rows=_csv_rows(reports) if args.format == "csv" else None)
    return _orbits_exit_code(reports)


def _cmd_decompose(args) -> int:
    _require_at_most(args, "rank", DECOMPOSE_MAX_RANK)
    alg = build_algebra(args.family, args.rank)
    decomposition = triangular_decomposition(alg)
    payload = {
        "meta": _meta(args, alg),
        "checks": [],
        "results": {
            "h_basis": [coords_strs(el) for el in decomposition.h_space.basis],
            "n_plus_basis": [coords_strs(el) for el in decomposition.n_plus.basis],
            "n_minus_basis": [coords_strs(el) for el in decomposition.n_minus.basis],
            "dims": {
                "h": decomposition.h_space.dim,
                "n_plus": decomposition.n_plus.dim,
                "n_minus": decomposition.n_minus.dim,
            },
        },
    }
    _emit(args, payload)
    return EXIT_OK


def _cmd_convolution(args) -> int:
    _require_at_most(args, "n", ORBIT_MAX_N)
    alg = build_algebra(args.family, _family_rank_for_size(args.family, args.n))
    partition = Partition.parse(args.partition)
    _validate_partition(alg, partition)
    if all(part == 1 for part in partition.parts):
        print("zero orbit has no pipeline", file=sys.stderr)
        return EXIT_USAGE
    pd = build_pair_data(alg, triple_from_partition(alg, partition))
    if not pd.hypothesis_ok:
        payload = {
            "meta": _meta(args, alg, partition),
            "checks": [],
            "results": {"hypothesis_ok": False},
        }
        _emit(args, payload)
        return EXIT_HYPOTHESIS
    bracket_matrix(pd)  # validates membership and symmetry
    table = {}
    audit = {}
    for key, alphas, entry in convolution_entries(pd):
        table[key] = [str(a) for a in alphas]
        audit[key] = entry
    payload = {
        "meta": _meta(args, alg, partition),
        "checks": [],
        "results": {
            "hypothesis_ok": True,
            "s": pd.s,
            "pair_exponents": list(pd.pair_exponents),
            "alphas": table,
            "const_audit": audit,
        },
    }
    _emit(args, payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nilab", description=__doc__.strip().splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, needs_n=False, needs_rank=False, needs_partition=False, seeded=True):
        p.add_argument("--family", required=True, choices=list("ABCD"))
        if needs_rank:
            p.add_argument("--rank", required=True, type=int)
        if needs_n:
            p.add_argument("--n", required=True, type=int)
        if needs_partition:
            p.add_argument("--partition", required=True)
        if seeded:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", default=None)

    p_verify = sub.add_parser(
        "verify",
        help=f"run the identity suites (--rank up to {VERIFY_MAX_RANK}, --samples up "
        f"to {VERIFY_MAX_SAMPLES})",
        description=f"The identity suites for one algebra. Supported ranks: up to "
        f"{VERIFY_MAX_RANK}; supported samples: 1 to {VERIFY_MAX_SAMPLES}; other "
        f"values are a usage error (exit 3).",
    )
    common(p_verify, needs_rank=True)
    p_verify.add_argument(
        "--samples", type=int, default=20, help=f"random sample points (1 to {VERIFY_MAX_SAMPLES})"
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_index = sub.add_parser(
        "index",
        help=f"pipeline for one orbit (--n up to {ORBIT_MAX_N})",
        description=f"The pipeline on one nilpotent orbit. Supported sizes: --n up "
        f"to {ORBIT_MAX_N}; larger sizes are a usage error (exit 3).",
    )
    common(p_index, needs_n=True, needs_partition=True)
    p_index.set_defaults(func=_cmd_index)

    p_table = sub.add_parser(
        "table",
        help=f"pipeline for every partition (--n up to {TABLE_MAX_N})",
        description=f"The pipeline on every valid partition of matrix size n. "
        f"Supported sizes: --n up to {TABLE_MAX_N}, from the family's smallest "
        f"(A 2, B 3, C 2, D 4); larger sizes are a usage error (exit 3).",
    )
    common(p_table, needs_n=True)
    p_table.add_argument("--format", choices=["json", "csv"], default="json")
    p_table.set_defaults(func=_cmd_table)

    p_dec = sub.add_parser(
        "decompose",
        help=f"triangular decomposition bases (--rank up to {DECOMPOSE_MAX_RANK})",
        description=f"The triangular decomposition bases of one algebra. Supported "
        f"ranks: up to {DECOMPOSE_MAX_RANK}; larger ranks are a usage error (exit 3).",
    )
    common(p_dec, needs_rank=True, seeded=False)
    p_dec.set_defaults(func=_cmd_decompose)

    p_conv = sub.add_parser(
        "convolution",
        help=f"alpha table and constant audit (--n up to {ORBIT_MAX_N})",
        description=f"The alpha table and constant audit of one nilpotent orbit. "
        f"Supported sizes: --n up to {ORBIT_MAX_N}; larger sizes are a usage "
        f"error (exit 3).",
    )
    common(p_conv, needs_n=True, needs_partition=True, seeded=False)
    p_conv.set_defaults(func=_cmd_convolution)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    folder = os.path.dirname(args.output or "")
    if folder and not os.path.isdir(folder):
        print(f"nilab: --output directory {folder!r} does not exist", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except ContractError as exc:
        print(f"nilab: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except HypothesisViolation as exc:
        print(f"nilab: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except NilabError as exc:
        print(f"nilab: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
