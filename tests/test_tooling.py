"""Guards for the tools around the library: the benchmark tracer's layer
list, the package's public names, the demo scripts and `python -m nilab`."""

import importlib
import importlib.util
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import ModuleType

import pytest

import nilab
import nilab.algebras

ROOT = Path(__file__).resolve().parent.parent
TRACER_FILE = ROOT / "bench" / "tracer.py"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _load_tracer():
    spec = importlib.util.spec_from_file_location("nilab_bench_tracer", TRACER_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_tracer_target_resolves():
    tracer = _load_tracer()
    assert len(tracer.TARGETS) == 24
    for module_name, attr, _ in tracer.TARGETS:
        assert callable(_resolve(module_name, attr)), f"{module_name}.{attr}"


def test_tracer_installs_and_removes_every_layer(monkeypatch):
    tracer_module = _load_tracer()
    originals = {(m, a): _resolve(m, a) for m, a, _ in tracer_module.TARGETS}
    reductions, entry_reads = [], []
    reduce = nilab.algebras.Subspace._reduce
    read_entries = nilab.algebras.AlgebraRealization._coords_of_entries

    def counting_reduce(self, coords):
        reductions.append(self.dim)
        return reduce(self, coords)

    def counting_read_entries(self, entries):
        entry_reads.append(len(entries))
        return read_entries(self, entries)

    monkeypatch.setattr(nilab.algebras.Subspace, "_reduce", counting_reduce)
    monkeypatch.setattr(
        nilab.algebras.AlgebraRealization, "_coords_of_entries", counting_read_entries
    )
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for (module_name, attr), original in originals.items():
            assert _resolve(module_name, attr) is not original, f"{module_name}.{attr}"
        sl2 = nilab.build_algebra("A", 1)
        nilab.centralizer(sl2.basis_element(0))
        assert tracer.stats["algebras.centralizer"][0] == 1
        # ad(h), h = E00 - E11 the first basis vector, is summed from row 0
        # of the structure constants, so no read-off of g is traced; building
        # that row reads its two nonzero commutators, [h, E01] = 2 E01 and
        # [h, E10] = -2 E10, once each through the entry read-off, and each
        # column is reduced once, modulo the zero subspace
        assert tracer.stats["algebras.coords_of_rows"][0] == 0
        assert entry_reads == [1, 1]
        assert reductions == [0, 0, 0]
    finally:
        tracer.uninstall()
    for (module_name, attr), original in originals.items():
        assert _resolve(module_name, attr) is original, f"{module_name}.{attr}"


def test_bracket_makes_no_traced_read_off():
    # bracket sums the structure constants on coordinates, so the traced
    # coords_of_rows sees no read-off
    tracer_module = _load_tracer()
    alg = nilab.build_algebra("C", 2)
    x = alg.element([nilab.Rat(k - 4, 1 + k % 3) for k in range(alg.dim)])
    y = alg.element([nilab.Rat(3 - k, 2 + k % 2) for k in range(alg.dim)])
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        nilab.bracket(x, y)
    finally:
        tracer.uninstall()
    assert tracer.stats["algebras.bracket"][0] == 1
    assert tracer.stats["algebras.coords_of_rows"][0] == 0


@pytest.mark.parametrize("family,rank", [("A", 3), ("D", 4)])
def test_line_table_reads_each_generator_off_once(monkeypatch, family, rank):
    # one entry read-off per generator and line, whatever keys are wanted:
    # every term is a digit of the packed matrix's coordinates
    from nilab.invariants import _line_table

    reads = []
    read_entries = nilab.algebras.AlgebraRealization._coords_of_entries

    def counting_read_entries(self, entries):
        reads.append(len(entries))
        return read_entries(self, entries)

    monkeypatch.setattr(
        nilab.algebras.AlgebraRealization, "_coords_of_entries", counting_read_entries
    )
    alg = nilab.build_algebra(family, rank)
    rng = random.Random(f"reads:{family}{rank}")
    x, y, u = (alg.random_element(rng) for _ in range(3))
    js = [gen.index_j for gen in nilab.generators(alg)]
    top = max(alg.exponents)
    lines = [
        (None, None, [(0, 0)]),
        (y, None, [(0, k) for k in range(top + 1)]),
        (y, u, [(1, k) for k in range(top + 1)] + [(2, 0)]),
    ]
    for y_used, u_used, keys in lines:
        for group in (js, js[1:]):
            reads.clear()
            _line_table(alg, group, x, y_used, u_used, keys)
            assert len(reads) == len(group), (group, keys)


def _run_from_checkout(*args):
    """Run the interpreter with these arguments, with src/ first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=120,
    )


# Every name nilab/__init__.py binds, dunders aside; a change to the public
# surface has to change this list too.
PUBLIC_NAMES = [
    "AlgebraRealization", "BracketTensor", "CheckReport", "ContractError",
    "ConvolutionResult", "DegreeMismatchError", "Element", "GraduationError",
    "HypothesisViolation", "IdentityError", "IndexResult", "InternalError",
    "InvariantGenerator", "NilabError", "OrbitReport", "PairData", "Partition",
    "PartitionError", "Poly", "Rat", "ShapeError", "Subspace", "TaylorTerms",
    "Triplet", "UnsupportedAlgebraError", "analyze_orbit", "bracket",
    "bracket_matrix", "build_algebra", "build_pair_data", "center_of",
    "centralizer", "convolution_at", "det_shape_check", "eval_generator",
    "generators", "generic_rank_detail", "gradient", "h_graduation",
    "index_pair", "interpolate_vector_poly", "inverse", "kostant_independence",
    "make_samples", "mf_shift_rank", "mixed_term", "nilpotent_from_partition",
    "normalizer_decomposition_check", "pfaffian", "principal_triplet",
    "sl2_complete", "sl2_vectors", "structure_checks", "sweep", "taylor_terms",
    "trace_form", "triangular_decomposition", "triple_from_partition",
    "unipotent_conjugate", "valid_partitions", "verify_field_identities",
]


def test_public_names_are_pinned():
    # module objects are left out: an imported submodule such as
    # nilab.linalg becomes an attribute of the package
    bound = sorted(
        name
        for name, value in vars(nilab).items()
        if not (name.startswith("__") and name.endswith("__")) and not isinstance(value, ModuleType)
    )
    assert bound == PUBLIC_NAMES


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    result = _run_from_checkout(str(demo))
    assert result.returncode == 0, result.stderr


def test_import_loads_no_process_pool_modules():
    probe = (
        "import sys, nilab; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))"
    )
    result = _run_from_checkout("-c", probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


# dataclasses and what it imports took about a quarter of a fresh -B
# interpreter's `import nilab` plus `build_algebra`; the package's records are
# plain classes so that start-up does not pay for them
SLOW_START_MODULES = ("ast", "dataclasses", "dis", "inspect", "tokenize")


def test_cold_start_loads_no_dataclasses():
    probe = (
        "import sys, nilab, nilab.cli; "
        f"print(sorted(m for m in {SLOW_START_MODULES!r} if m in sys.modules))"
    )
    result = _run_from_checkout("-B", "-c", probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
    # -X importtime lists every module `python -m nilab` imports on stderr
    result = _run_from_checkout("-B", "-X", "importtime", "-m", "nilab", "--version")
    assert result.returncode == 0, result.stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()}
    assert "nilab.cli" in imported
    assert imported.isdisjoint(SLOW_START_MODULES)


def test_python_dash_m_runs_the_cli():
    result = _run_from_checkout("-m", "nilab", "--version")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == nilab.__version__
    result = _run_from_checkout("-m", "nilab", "table", "--family", "A", "--n", "11")
    assert result.returncode == 3, result.stderr


def test_build_algebra_set_up_memory_stays_small():
    # the read-off is set up off the sparse basis; dense N^2-wide copies of
    # the basis, eliminated as a set-up step, took about 10.6 MB on sl(20)
    tracemalloc.start()
    try:
        nilab.build_algebra("A", 19)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
