"""CLI integration: exit codes, output formats, determinism."""

import csv
import io
import json
from collections import Counter
from contextlib import redirect_stdout

import pytest

from nilab import ContractError, HypothesisViolation, IdentityError, InternalError, cli
from nilab.cli import (
    EXIT_CHECK_FAILED,
    EXIT_HYPOTHESIS,
    EXIT_OK,
    EXIT_USAGE,
    run,
)


def run_capture(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


def test_verify_passes_and_reports_json():
    code, out = run_capture(
        ["verify", "--family", "A", "--rank", "2", "--samples", "3"]
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["results"]["all_pass"] is True
    assert payload["meta"]["family"] == "A"
    assert payload["meta"]["rank"] == 2
    assert {"meta", "checks", "results"} <= set(payload)


def test_verify_output_is_stable_across_runs_in_one_process():
    # the one-entry caches (ad(x) columns, exp(+-n)) must not carry one run's
    # state into the next
    argv = ["verify", "--family", "A", "--rank", "3"]
    first = run_capture(argv)
    assert run_capture(["verify", "--family", "B", "--rank", "2"])[0] == EXIT_OK
    assert run_capture(argv) == first
    assert first[0] == EXIT_OK


def test_verify_records_a_failing_read_off_and_exits_1(monkeypatch):
    # on so(8) the Pfaffian and tr x^4 share exponent 3, so P at x + 4 y is
    # the one line with two generators: failing it at the second point it
    # meets (sample 1) must fail both their reports, in JSON, without a
    # traceback
    import nilab.invariants as invariants_module

    real = invariants_module._line_table
    points = []

    def failing(alg, js, x, *args):
        if len(js) == 2:
            if x not in points:
                points.append(x)
            if points.index(x) == 1:
                raise ContractError("injected read-off failure")
        return real(alg, js, x, *args)

    monkeypatch.setattr(invariants_module, "_line_table", failing)
    code, out = run_capture(["verify", "--family", "D", "--rank", "4", "--samples", "3"])
    assert code == EXIT_CHECK_FAILED
    payload = json.loads(out)
    assert payload["results"]["all_pass"] is False
    failed = {
        check["name"]: [item for item in check["items"] if not item["pass"]]
        for check in payload["checks"]
        if not check["pass"]
    }
    error = {"name": "sample-error[1]", "pass": False, "details": "injected read-off failure"}
    assert failed == {
        "so(8) generator 2 (degree 4)": [error],
        "so(8) generator 3 (degree 4)": [error],
    }


def _count_calls(monkeypatch, module, name, log):
    real = getattr(module, name)

    def counting(*args):
        log.append(name)
        return real(*args)

    monkeypatch.setattr(module, name, counting)


def test_verify_builds_the_sl2_ladders_once(monkeypatch):
    # the ladders check and the triangular decomposition share one
    # sl2_vectors, whose Taylor expansions are the only ones verify makes:
    # two per generator
    import nilab.invariants as invariants_module

    want = run_capture(["verify", "--family", "A", "--rank", "3"])
    log = []
    for module in (cli, invariants_module):
        _count_calls(monkeypatch, module, "sl2_vectors", log)
    _count_calls(monkeypatch, invariants_module, "taylor_terms", log)
    assert run_capture(["verify", "--family", "A", "--rank", "3"]) == want
    assert Counter(log) == {"sl2_vectors": 1, "taylor_terms": 2 * 3}


def test_verify_reports_a_broken_ladder_in_the_decomposition_too(monkeypatch):
    # the decomposition is built from the ladders, so when they fail its
    # dims item records the ladders' message, as the ladders check does
    import nilab.invariants as invariants_module
    from nilab import IdentityError

    message = "[h, v_1,0] != 2k v: ladder broken"

    def broken(alg, triplet):
        raise IdentityError(message)

    for module in (cli, invariants_module):
        monkeypatch.setattr(module, "sl2_vectors", broken)
    code, out = run_capture(["verify", "--family", "A", "--rank", "2", "--samples", "1"])
    assert code == EXIT_CHECK_FAILED
    failed = {
        check["name"]: [item for item in check["items"] if not item["pass"]]
        for check in json.loads(out)["checks"]
        if not check["pass"]
    }
    assert failed == {
        "sl(3) sl(2) ladders": [{"name": "eigen-ladders", "pass": False, "details": message}],
        "sl(3) triangular decomposition": [{"name": "dims", "pass": False, "details": message}],
    }


def test_verify_records_a_failing_independence_check_and_exits_1(monkeypatch):
    def failing(alg, triplet):
        raise IdentityError("injected independence failure")

    monkeypatch.setattr(cli, "kostant_independence", failing)
    code, out = run_capture(["verify", "--family", "A", "--rank", "2", "--samples", "1"])
    assert code == EXIT_CHECK_FAILED
    failed = [check for check in json.loads(out)["checks"] if not check["pass"]]
    assert failed == [
        {
            "name": "sl(3) gradient independence at regular e",
            "pass": False,
            "items": [
                {"name": "independence", "pass": False, "details": "injected independence failure"}
            ],
        }
    ]


@pytest.mark.parametrize(
    "error,code,message",
    [
        (HypothesisViolation("injected"), EXIT_HYPOTHESIS, "nilab: injected\n"),
        (InternalError("injected"), EXIT_CHECK_FAILED, "nilab: InternalError: injected\n"),
    ],
    ids=["hypothesis", "other"],
)
def test_an_error_raised_inside_a_command_sets_the_exit_code(
    monkeypatch, capsys, error, code, message
):
    # a HypothesisViolation exits 2 and any other NilabError 1, each with its
    # message on stderr and nothing on stdout
    def failing(alg):
        raise error

    monkeypatch.setattr(cli, "triangular_decomposition", failing)
    assert run(["decompose", "--family", "A", "--rank", "2"]) == code
    assert capsys.readouterr() == ("", message)


def test_index_json_fields():
    code, out = run_capture(
        ["index", "--family", "A", "--n", "3", "--partition", "2,1"]
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    results = payload["results"]
    assert results["ind"] == 0
    assert results["hypothesis_ok"] is True
    assert results["s"] == 1


def test_index_hypothesis_violation_exit_2():
    code, out = run_capture(
        ["index", "--family", "D", "--n", "8", "--partition", "3,3,1,1"]
    )
    assert code == EXIT_HYPOTHESIS
    payload = json.loads(out)
    assert payload["results"]["hypothesis_ok"] is False


def test_convolution_hypothesis_violation_exit_2():
    code, out = run_capture(
        ["convolution", "--family", "B", "--n", "7", "--partition", "3,3,1"]
    )
    assert code == EXIT_HYPOTHESIS
    assert json.loads(out)["results"] == {"hypothesis_ok": False}


@pytest.mark.parametrize(
    "argv,orbits",
    [
        (["index", "--family", "A", "--n", "3", "--partition", "3"], 1),
        (["table", "--family", "A", "--n", "3"], 2),  # (3) and (2,1) reach the stage
    ],
    ids=["index", "table"],
)
def test_a_failing_stage_is_reported_and_exits_1(monkeypatch, argv, orbits):
    # analyze_orbit captures the stage's error in the report, so the command
    # still writes its JSON
    import nilab.index as index_module

    def failing(pd, a):
        raise IdentityError("injected structure failure")

    monkeypatch.setattr(index_module, "structure_checks", failing)
    code, out = run_capture(argv)
    assert code == EXIT_CHECK_FAILED
    results = json.loads(out)["results"]
    if argv[0] == "index":
        errors = [results["error"]]
    else:
        errors = [orbit["error"] for orbit in results["orbits"] if not orbit["skipped"]]
    assert errors == ["IdentityError: injected structure failure"] * orbits


def test_table_csv_columns():
    code, out = run_capture(["table", "--family", "A", "--n", "4", "--format", "csv"])
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["partition", "dim_delta", "s", "ind", "hypothesis_ok", "gamma_nonzero"]
    body = {row[0]: row for row in rows[1:]}
    assert body["4"][3] == "0"
    assert body["3,1"][3] == "0"
    assert set(body) == {"4", "3,1", "2,2", "2,1,1", "1,1,1,1"}


def test_table_json_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(["table", "--family", "A", "--n", "5", "--seed", "7", "--output", str(a)]) == EXIT_OK
    assert run(["table", "--family", "A", "--n", "5", "--seed", "7", "--output", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_table_hypothesis_exit_2():
    code, _ = run_capture(["table", "--family", "D", "--n", "8"])
    assert code == EXIT_HYPOTHESIS  # one so(8) orbit violates the hypothesis


def test_decompose_output():
    code, out = run_capture(["decompose", "--family", "C", "--rank", "2"])
    assert code == EXIT_OK
    payload = json.loads(out)
    dims = payload["results"]["dims"]
    assert dims == {"h": 2, "n_plus": 4, "n_minus": 4}
    assert len(payload["results"]["h_basis"]) == 2


def test_convolution_output():
    code, out = run_capture(
        ["convolution", "--family", "A", "--n", "3", "--partition", "3"]
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    audit = payload["results"]["const_audit"]
    assert audit["1,1"] == {"c_observed": "1", "c_reference": "1/2"}
    assert audit["1,2"] == {"c_observed": "4/3", "c_reference": "2/3"}
    assert payload["results"]["alphas"]["1,2"] == ["0", "6"]


def test_usage_errors_exit_3(capsys):
    assert run(["index", "--family", "A", "--n", "3", "--partition", "9,9"]) == EXIT_USAGE
    assert run(["index", "--family", "A", "--n", "3", "--partition", "bogus"]) == EXIT_USAGE
    assert run(["verify", "--family", "Z", "--rank", "1"]) == EXIT_USAGE
    assert run(["verify"]) == EXIT_USAGE
    assert run(["index", "--family", "B", "--n", "4", "--partition", "3,1"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "partition" in err or "error" in err


def test_zero_orbit_index_is_skip():
    code, out = run_capture(
        ["index", "--family", "A", "--n", "3", "--partition", "1,1,1"]
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["results"]["note"] == "e = 0"


def test_zero_orbit_convolution_is_a_usage_error(monkeypatch, capsys):
    # refused before any triple is built
    def no_triple(alg, partition):
        raise AssertionError("triple built for the zero orbit")

    monkeypatch.setattr(cli, "triple_from_partition", no_triple)
    argv = ["convolution", "--family", "D", "--n", "8", "--partition", "1,1,1,1,1,1,1,1"]
    assert run(argv) == EXIT_USAGE
    assert capsys.readouterr() == ("", "zero orbit has no pipeline\n")


def test_verify_rejects_fewer_than_one_sample(capsys):
    for samples in ("0", "-1"):
        code, out = run_capture(
            ["verify", "--family", "A", "--rank", "2", "--samples", samples]
        )
        assert code == EXIT_USAGE
        assert out == ""
    assert "--samples" in capsys.readouterr().err


def test_verify_rejects_samples_above_its_cap(monkeypatch, capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError("an out-of-range sample count must not start any work")

    monkeypatch.setattr(cli, "build_algebra", must_not_run)
    monkeypatch.setattr(cli, "make_samples", must_not_run)
    cap = cli.VERIFY_MAX_SAMPLES
    for samples in (cap + 1, 10**9):
        code, out = run_capture(
            ["verify", "--family", "B", "--rank", "4", "--samples", str(samples)]
        )
        assert code == EXIT_USAGE and out == ""
        assert f"verify supports --samples up to {cap}, got {samples}" in (
            capsys.readouterr().err
        )
    assert f"--samples up to {cap}" in " ".join(cli.build_parser().format_help().split())


def test_bad_matrix_sizes_exit_3():
    assert run(["table", "--family", "C", "--n", "5"]) == EXIT_USAGE
    assert run(["index", "--family", "B", "--n", "6", "--partition", "5,1"]) == EXIT_USAGE
    assert run(["convolution", "--family", "D", "--n", "7", "--partition", "7"]) == EXIT_USAGE


def test_table_rejects_sizes_above_the_supported_range(monkeypatch, capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError("an out-of-range table must not start any work")

    monkeypatch.setattr(cli, "build_algebra", must_not_run)
    monkeypatch.setattr(cli, "sweep", must_not_run)
    for n in (cli.TABLE_MAX_N + 1, 40):
        code, out = run_capture(["table", "--family", "A", "--n", str(n)])
        assert code == EXIT_USAGE
        assert out == ""
    assert f"up to {cli.TABLE_MAX_N}" in capsys.readouterr().err


def test_orbit_and_verify_commands_reject_sizes_above_their_caps(monkeypatch, capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError("an out-of-range size must not start any work")

    monkeypatch.setattr(cli, "build_algebra", must_not_run)
    for argv, cap in (
        (["index", "--family", "A", "--partition", "2,1", "--n"], cli.ORBIT_MAX_N),
        (["convolution", "--family", "D", "--partition", "3,1", "--n"], cli.ORBIT_MAX_N),
        (["verify", "--family", "B", "--rank"], cli.VERIFY_MAX_RANK),
    ):
        for size in (cap + 1, 100):
            code, out = run_capture(argv + [str(size)])
            assert code == EXIT_USAGE, argv
            assert out == ""
            assert f"{argv[0]} supports --{argv[-1][2:]} up to {cap}, got {size}" in (
                capsys.readouterr().err
            )
        assert f"up to {cap}" in cli.build_parser().format_help()


def test_decompose_rejects_ranks_above_its_cap(monkeypatch, capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError("an out-of-range rank must not start any work")

    monkeypatch.setattr(cli, "build_algebra", must_not_run)
    cap = cli.DECOMPOSE_MAX_RANK
    for family in "ABCD":
        for rank in (cap + 1, 100):
            code, out = run_capture(["decompose", "--family", family, "--rank", str(rank)])
            assert code == EXIT_USAGE and out == ""
            assert f"decompose supports --rank up to {cap}, got {rank}" in capsys.readouterr().err
    assert f"up to {cap}" in cli.build_parser().format_help()


def test_flags_offered_only_where_they_act(monkeypatch, capsys):
    # --format is a table option and --seed drives no decompose/convolution
    # output, so argparse refuses them elsewhere before any work
    def must_not_run(*args, **kwargs):
        raise AssertionError("a refused flag must not start any work")

    monkeypatch.setattr(cli, "verify_field_identities", must_not_run)
    refused = [
        ["verify", "--family", "A", "--rank", "2", "--format", "csv"],
        ["index", "--family", "A", "--n", "3", "--partition", "3", "--format", "csv"],
        ["decompose", "--family", "C", "--rank", "2", "--format", "csv"],
        ["convolution", "--family", "A", "--n", "3", "--partition", "3", "--format", "csv"],
        ["decompose", "--family", "C", "--rank", "2", "--seed", "1"],
        ["convolution", "--family", "A", "--n", "3", "--partition", "3", "--seed", "1"],
    ]
    for argv in refused:
        code, out = run_capture(argv)
        assert code == EXIT_USAGE, argv
        assert out == ""
    assert "unrecognized arguments" in capsys.readouterr().err


def test_unseeded_commands_report_seed_zero():
    code, out = run_capture(["decompose", "--family", "C", "--rank", "2"])
    assert code == EXIT_OK
    assert json.loads(out)["meta"]["seed"] == 0


def test_output_in_missing_directory_exit_3(tmp_path, monkeypatch, capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError("an unwritable --output must be refused before any work")

    monkeypatch.setattr(cli, "build_algebra", must_not_run)
    monkeypatch.setattr(cli, "sweep", must_not_run)
    target = tmp_path / "missing" / "out.json"
    for argv in (
        ["verify", "--family", "A", "--rank", "1"],
        ["table", "--family", "A", "--n", "3", "--format", "csv"],
    ):
        code, out = run_capture(argv + ["--output", str(target)])
        assert code == EXIT_USAGE
        assert out == ""
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "does not exist" in err
    assert not target.parent.exists()


def test_output_that_cannot_be_written_exit_3(tmp_path, capsys):
    # the path is an existing directory: refused when the write fails
    argv = ["decompose", "--family", "C", "--rank", "2", "--output", str(tmp_path)]
    code, out = run_capture(argv)
    assert code == EXIT_USAGE
    assert out == ""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "cannot write" in err
