"""nilab benchmark: exact-arithmetic workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Workloads are defined in ``lab.py``; ``--workload all`` runs each one in a
fresh child process and prints every metric.  One caller runs one operation
at a time (a closed loop, no pool).  A pass runs each of the workload's
operations once; passes repeat while the next one is expected to end within
``--seconds``, and at least one pass always runs.

``--trace 0`` reports the end-to-end metrics with tracing off:

    wall_s       median over passes of the summed operation times
    op_max_s     the slowest operation (its median over passes)
    setup_s      median over fresh interpreters, started between the
                 operations of the first pass, of ``import nilab`` plus
                 ``build_algebra`` of the workload's algebras
    peak_rss_mb  peak resident set size of this process

Times are scaled to a reference host speed, measured by a calibration loop
that a background thread times every 10 ms during the operations and each
set-up probe times after its work (see ``speed.py``); the ``pass`` lines
also print the raw seconds.

``--trace 1`` alternates untraced and traced passes (ABBA order, starting
side chosen by the seed) and reports, per pass, ``<layer>.calls``,
``<layer>.self_s`` and ``<layer>.total_s`` (scaled by the pass's ratio of
scaled to raw seconds) for every layer in ``tracer.py``,
``poly.poly_det.per_orbit`` (determinants per orbit that reached the index)
and ``trace.overhead_s`` (median traced minus median untraced pass).  Spans are written to
``.bench_out/spans-<workload>.jsonl``.

Every operation's output is hashed and checked (see ``lab.py``); a hash
mismatch, an oracle mismatch, a failed library check or an error counts as
a failed operation.  Per-operation hashes are printed, one ``op`` line each,
so that two commits can be compared.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 15


def setup_probe(lab, workload) -> float:
    """Seconds of ``import nilab`` plus ``build_algebra`` in a fresh interpreter."""
    specs = [f"{f}:{r}" for f, r in lab.algebra_specs(workload)]
    argv = [sys.executable, str(BENCH / "probe.py"), str(SRC), *specs]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[0])


def run_pass(lab, ops, algebras, seed, gate, sampler, tracer, hashes, after_op=None):
    """One pass over the operations; returns ({op key: scaled seconds}, raw seconds).

    ``after_op(i)`` runs untimed after the i-th operation.
    """
    times = {}
    raw = 0.0
    if tracer:
        tracer.reset_stats()
        tracer.install()
    try:
        for i, op in enumerate(ops):
            with tracer.op(op.key) if tracer else nullcontext():
                out = lab.run_op(op, algebras, seed)
            hashes.setdefault(op.key, gate.check(op, out))
            times[op.key] = sampler.scaled(out.start, out.seconds)
            raw += out.seconds
            if after_op:
                after_op(i)
    finally:
        if tracer:
            tracer.uninstall()
    return times, raw


def hash_cache(seed: int) -> Path:
    return OUT / f"hashes-seed{seed}.json"


def load_seen(seed: int) -> dict:
    try:
        with open(hash_cache(seed), encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def save_seen(seed: int, hashes: dict) -> None:
    seen = load_seen(seed)
    merged = {**hashes, **seen}
    if merged == seen:
        return
    OUT.mkdir(exist_ok=True)
    tmp = hash_cache(seed).with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(merged, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, hash_cache(seed))


def layer_metrics(layer_names, traced_passes, plain_walls):
    """Per-layer metrics from (scaled pass seconds, raw pass seconds, stats)
    of each traced pass; layer times are scaled by their pass's factor."""
    metrics = {}
    problems = []
    for name in layer_names:
        calls = {stats[name][0] for _, _, stats in traced_passes}
        if len(calls) != 1:
            problems.append(f"{name}.calls differ between traced passes: {sorted(calls)}")
        metrics[f"{name}.calls"] = (max(calls), "count")
        for suffix, column in (("total_s", 1), ("self_s", 2)):
            value = statistics.median(
                stats[name][column] * wall / raw for wall, raw, stats in traced_passes
            )
            metrics[f"{name}.{suffix}"] = (value, "s")
    orbits = metrics["index.index_pair.calls"][0]
    dets = metrics["poly.poly_det.calls"][0]
    metrics["poly.poly_det.per_orbit"] = (dets / orbits if orbits else 0.0, "ratio")
    traced_wall = statistics.median(wall for wall, _, _ in traced_passes)
    metrics["trace.overhead_s"] = (traced_wall - statistics.median(plain_walls), "s")
    return metrics, problems


def run_workload(name: str, seed: int, seconds: int, traced: bool) -> dict:
    import lab
    import tracer as tracing

    lab.self_test()
    workload = lab.WORKLOADS[name]
    algebras = lab.build_algebras(workload)
    ops = lab.operations(workload, algebras)
    # The set-up probes are spread over the first untraced pass, so that
    # their median samples the machine at several moments of the run.
    probes_after = Counter(j * len(ops) // SETUP_PROBES for j in range(SETUP_PROBES))
    setup_times = []

    def probe(i):
        setup_times.extend(setup_probe(lab, workload) for _ in range(probes_after[i]))

    reference = lab.load_reference(seed)
    gate = lab.Gate(reference, {} if reference else load_seen(seed))
    tracer = tracing.Tracer() if traced else None
    # ABBA order keeps slow drift of the machine from favouring one side.
    order = [False, True, True, False] if seed % 2 == 0 else [True, False, False, True]
    unit = 2 if traced else 1
    passes = []  # (traced, {op key: scaled seconds}, raw seconds, layer stats or None)
    hashes = {}
    start = time.perf_counter()
    with speed.Sampler() as sampler:
        while True:
            unit_start = time.perf_counter()
            for _ in range(unit):
                with_trace = traced and order[len(passes) % 4]
                after_op = probe if not traced and not passes else None
                times, raw = run_pass(lab, ops, algebras, seed, gate, sampler,
                                      tracer if with_trace else None, hashes, after_op)
                stats = {k: list(v) for k, v in tracer.stats.items()} if with_trace else None
                passes.append((with_trace, times, raw, stats))
                print(f"pass {len(passes)} traced={int(with_trace)} "
                      f"scaled_s={sum(times.values()):.4f} raw_s={raw:.4f}", flush=True)
            now = time.perf_counter()
            if now - start + (now - unit_start) > seconds:
                break
    plain = [times for is_traced, times, _, _ in passes if not is_traced]
    walls = [sum(times.values()) for times in plain]
    op_seconds = {op.key: statistics.median(times[op.key] for times in plain) for op in ops}
    for key, sha in hashes.items():
        print(f"op {key} {sha} {op_seconds[key]:.4f}")
    problems = list(gate.failures)
    if not reference and not problems:
        save_seen(seed, hashes)
    if traced:
        traced_passes = [(sum(t.values()), raw, stats) for on, t, raw, stats in passes if on]
        metrics, layer_problems = layer_metrics(tracing.LAYER_NAMES, traced_passes, walls)
        problems += layer_problems
        tracer.dump(OUT / f"spans-{name}.jsonl")
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "op_max_s": (max(op_seconds.values()), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    for problem in problems:
        print(f"FAILED {problem}")
    print(f"metric {name} ops_failed_ratio {gate.failed_ratio!r} ratio "
          f"({gate.failed}/{gate.attempted})")
    for metric, (value, unit_name) in metrics.items():
        print(f"metric {name} {metric} {value!r} {unit_name}")
    return {
        "correct": not problems,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(names, seed: int, seconds: int, traced: bool) -> dict:
    """Each workload in a fresh child process, so set-up and memory are its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(traced))]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            raise SystemExit(f"workload {name} exited with {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = entry
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "nilab" / "__init__.py").is_file():
        print(f"bench: no nilab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import nilab

    if SRC not in Path(nilab.__file__).resolve().parents:
        print(f"bench: imported nilab from {nilab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import lab

    if args.workload == "all":
        result = run_all(list(lab.WORKLOADS), args.seed, args.seconds, bool(args.trace))
    elif args.workload in lab.WORKLOADS:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        choices = ", ".join([*lab.WORKLOADS, "all"])
        parser.error(f"unknown workload {args.workload!r}; choose from {choices}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
