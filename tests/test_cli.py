import json
import subprocess
import sys
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from maxclass import cli
from maxclass.cli import main
from maxclass.counting import closed_form_count
from maxclass.errors import MaxclassError
from maxclass.rootlog import is_prime
from maxclass.zeta import series_coefficients, zeta_closed_form

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "maxclass" / "schemas"
DATA_DIR = Path(__file__).resolve().parent / "data"


def load_schema(name):
    return json.loads((SCHEMA_DIR / name).read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_text(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "3", "--p", "5", "--N", "2")
    assert code == 0
    assert "r (enumerated)  = 56" in out
    assert "r (closed form) = 56" in out
    assert "r (series)      = 56" in out
    assert "agreement: yes" in out


def test_count_single_method(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--n", "2", "--p", "3", "--N", "1", "--method", "series"
    )
    assert code == 0
    assert "r (series)      = 2" in out
    assert "enumerated" not in out


def test_count_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--n", "3", "--p", "5", "--N", "1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("count.schema.json"))
    assert payload["methods"]["enumerated"] == "8"
    assert payload["orbit_census"] == {"1": "4", "5": "4"}
    assert payload["agree"] is True


@pytest.mark.parametrize(
    "n, p, message", [(3, 4, "p=4 is not prime"), (5, 3, "exceptional prime p=3 < n=5")]
)
def test_count_series_refuses_bad_input(capsys, n, p, message):
    code, out, err = run_cli(
        capsys, "count", "--n", str(n), "--p", str(p), "--N", "2", "--method", "series"
    )
    assert code == 2
    assert out == ""
    assert message in err


def fail_if_called(*args, **kwargs):
    raise AssertionError("a counting method that was not asked for ran")


def test_count_enum_runs_no_other_method(capsys, monkeypatch):
    import maxclass.cli as cli
    import maxclass.counting as counting
    import maxclass.zeta as zeta

    for module in (cli, counting):
        monkeypatch.setattr(module, "closed_form_count", fail_if_called)
    for module in (cli, zeta):
        monkeypatch.setattr(module, "count_from_series", fail_if_called)
    code, out, _ = run_cli(
        capsys, "count", "--n", "3", "--p", "5", "--N", "2", "--method", "enum"
    )
    assert code == 0
    assert "r (enumerated)  = 56" in out
    assert "agreement: yes" in out


@pytest.mark.parametrize(
    "method, line",
    [("closed", "r (closed form) = 56"), ("series", "r (series)      = 56")],
)
def test_count_closed_and_series_run_no_enumeration(capsys, monkeypatch, method, line):
    import maxclass.cli as cli

    monkeypatch.setattr(cli, "enumerate_isoclasses", fail_if_called)
    code, out, _ = run_cli(
        capsys, "count", "--n", "3", "--p", "5", "--N", "2", "--method", method
    )
    assert code == 0
    assert line in out
    assert "agreement: yes" in out


def test_count_exceptional_prime(capsys):
    code, _, err = run_cli(capsys, "count", "--n", "4", "--p", "3", "--N", "1")
    assert code == 2
    assert "exceptional prime p=3 < n=4" in err


def test_count_budget(capsys):
    code, _, err = run_cli(
        capsys, "count", "--n", "3", "--p", "5", "--N", "2", "--budget", "10"
    )
    assert code == 2
    assert "budget" in err


def test_count_refuses_2_to_the_62_tails_or_more(capsys, monkeypatch):
    import maxclass.counting as counting

    def no_work(*args, **kwargs):
        raise AssertionError("the enumeration started")

    monkeypatch.setattr(counting, "_count_tail_range", no_work)
    monkeypatch.setattr(counting.multiprocessing, "Process", no_work)
    code, out, err = run_cli(
        capsys, "count", "--n", "2", "--p", "2", "--N", "70", "--budget", str(2**80)
    )
    assert code == 2
    assert out == ""
    assert "2^62" in err


@pytest.mark.parametrize("setting", ["-5", "0", "lots"])
def test_count_bad_budget_setting(capsys, monkeypatch, setting):
    monkeypatch.setenv("MAXCLASS_BUDGET", setting)
    code, _, err = run_cli(capsys, "count", "--n", "3", "--p", "5", "--N", "0")
    assert code == 2
    assert "MAXCLASS_BUDGET" in err or "budget" in err


def test_count_nonprime(capsys):
    code, _, err = run_cli(capsys, "count", "--n", "2", "--p", "6", "--N", "1")
    assert code == 2
    assert "not prime" in err


def test_count_threads_consistent(capsys):
    code1, out1, _ = run_cli(capsys, "count", "--n", "4", "--p", "5", "--N", "2")
    code2, out2, _ = run_cli(
        capsys, "count", "--n", "4", "--p", "5", "--N", "2", "--threads", "2"
    )
    assert code1 == code2 == 0
    assert out1 == out2


def _assert_digit_bound(monkeypatch, n, p, N, r):
    # A limit below r's digits must refuse; a limit two digits above must not.
    digits = len(str(r))
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: digits - 1)
    if digits > 1:
        with pytest.raises(MaxclassError):
            cli._refuse_unprintable_count(n, p, N)
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: digits + 2)
    cli._refuse_unprintable_count(n, p, N)


def test_digit_bound_on_the_closed_form_grid(monkeypatch):
    for n in range(2, 9):
        for p in (p for p in range(n, 30) if is_prime(p)):
            for N in range(40):
                _assert_digit_bound(monkeypatch, n, p, N, closed_form_count(n, p, N))


def test_digit_bound_on_series_below_n(monkeypatch):
    # zeta --series takes any p, including p < n.
    for n in range(3, 9):
        f = zeta_closed_form(n)
        for p in range(1, n):
            for N, c in enumerate(series_coefficients(f, p, 39)):
                _assert_digit_bound(monkeypatch, n, p, N, c)


def test_digit_limit_zero_means_no_limit(monkeypatch):
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
    cli._refuse_unprintable_count(3, 5, 10**9)


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--method", "closed", "--n", "3", "--p", "5", "--N", "20000"],
        ["zeta", "--n", "3", "--p", "5", "--series", "20000"],
        ["count", "--method", "closed", "--n", "2", "--p", "3", "--N", "200000"],
        ["table", "--n", "3", "--p", "5", "--max-N", "20000"],
    ],
)
def test_counts_too_long_to_print_are_refused_up_front(capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("a count started")

    for name in ("enumerate_isoclasses", "closed_form_count", "count_from_series"):
        monkeypatch.setattr(cli, name, no_work)
    monkeypatch.setattr(cli.zeta, "series_coefficients", no_work)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    limit = sys.get_int_max_str_digits()
    assert f"digits, over Python's int-to-str limit of {limit}" in err


def test_count_just_under_the_digit_limit(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--method", "closed", "--n", "3", "--p", "5", "--N", "6000"
    )
    assert code == 0
    value = out.splitlines()[1].split(" = ")[1]
    assert len(value) == 4198


def test_zeta_text(capsys):
    code, out, _ = run_cli(capsys, "zeta", "--n", "3")
    assert code == 0
    assert "zeta = (1 - t)^2 / ((1 - p t)^2)" in out
    assert "abscissa = 1" in out
    assert "holds with factor p^2" in out


def test_zeta_series(capsys):
    code, out, _ = run_cli(capsys, "zeta", "--n", "2", "--p", "3", "--series", "3")
    assert code == 0
    assert "series at p=3: 1, 2, 6, 18" in out


def test_zeta_abscissa_n6(capsys):
    code, out, _ = run_cli(capsys, "zeta", "--n", "6")
    assert code == 0
    assert "abscissa = 4" in out


def test_zeta_series_needs_p(capsys):
    code, _, err = run_cli(capsys, "zeta", "--n", "3", "--series", "2")
    assert code == 2
    assert "--series needs --p" in err


def test_zeta_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "zeta", "--n", "4", "--p", "5", "--series", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("zeta.schema.json"))
    assert payload["functional_equation"] == {"holds": True, "factor_exponent": 3}
    assert payload["series"]["coefficients"] == ["1", "28", "716"]


def test_verify_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "zeta")
    assert code == 0
    assert "[PASS]" in out
    assert "[FAIL]" not in out


def test_verify_counting_catches_a_wrong_closed_form(capsys, monkeypatch):
    import maxclass.checks as checks
    from maxclass.counting import closed_form_count

    monkeypatch.setattr(
        checks, "closed_form_count", lambda n, p, N: closed_form_count(n, p, N) + 1
    )
    code, out, _ = run_cli(capsys, "verify", "--suite", "counting")
    assert code == 1
    assert "[FAIL] enumerated = closed form = series on the whole grid" in out


@pytest.mark.parametrize(
    "golden, pin",
    [
        ("verify_default.txt", []),
        ("verify_3_3_2.txt", ["--n", "3", "--p", "3", "--N", "2"]),
        ("verify_4_5_1.txt", ["--n", "4", "--p", "5", "--N", "1"]),
        ("verify_2_5_2.txt", ["--n", "2", "--p", "5", "--N", "2"]),
    ],
)
def test_verify_all_matches_the_golden_transcript(capsys, golden, pin):
    code, out, err = run_cli(capsys, "verify", "--suite", "all", *pin)
    assert code == 0
    assert err == ""
    assert out == (DATA_DIR / golden).read_text()


@pytest.mark.parametrize(
    "suite, per_spec", [("standardform", 1), ("stability", 1), ("orbits", 5), ("oracle", 2)]
)
def test_verify_builds_few_tables_per_spec(monkeypatch, suite, per_spec):
    import maxclass.checks as checks
    from maxclass.standard_form import build_rep

    builds = []

    def counted(*args, **kwargs):
        builds.append(args)
        return build_rep(*args, **kwargs)

    # Every module that holds build_rep counts, so a rebuild hidden in a
    # helper (say, the orbit layer) shows up too.
    for name, module in list(sys.modules.items()):
        if name.startswith("maxclass") and getattr(module, "build_rep", None) is build_rep:
            monkeypatch.setattr(module, "build_rep", counted)
    results = checks.run_suite(suite, 3, 3, 2)
    assert all(r.passed for r in results)
    specs = 3 ** (2 * 2)
    if suite == "orbits":
        assert len(builds) <= per_spec * specs
    else:
        assert len(builds) == per_spec * specs


def test_verify_oracle_catches_a_shift_that_skips_columns(capsys, monkeypatch):
    # Reading column 2*offset + 1 still composes additively, so only the
    # matrix conjugation can tell it from the true shift (at n >= 3).
    import maxclass.checks as checks
    from maxclass.orbits import shift_spec

    monkeypatch.setattr(checks, "shift_spec", lambda rep, offset: shift_spec(rep, 2 * offset))
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "oracle", "--n", "3", "--p", "5", "--N", "1"
    )
    assert code == 1
    assert "[FAIL] cycle conjugation realizes the shift" in out
    assert out.count("[FAIL]") == 1


def test_verify_orbit_suite_with_grid(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "shout", "--n", "3", "--p", "5", "--N", "1"
    )
    assert code == 0
    assert "orbit size" in out


def test_verify_oracle_suite_with_grid(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "oracle", "--n", "2", "--p", "3", "--N", "2"
    )
    assert code == 0
    assert "[FAIL]" not in out


@pytest.mark.parametrize("verdict", ["check_relations", "subspace_is_stable"])
def test_verify_oracle_compares_verdicts_across_tolerances(capsys, monkeypatch, verdict):
    # The suite computes the residual behind each verdict once and reads
    # it at every tolerance.  A nudge of 1e-10 keeps the verdict at the
    # default 1e-9 and flips it only at 1e-11, so only the tolerance
    # property fails.  A nudge of 5e-9 breaks the verdict itself and
    # flips it only at 1e-7, so a suite that skips 1e-7 would miss it.
    import maxclass.oracle as oracle

    property_name = {
        "check_relations": "[FAIL] matrix relations hold numerically",
        "subspace_is_stable": "[FAIL] numerical subspace stability matches the minimal index",
    }[verdict]
    relation_residuals = oracle.relation_residuals
    stability_residual = oracle.stability_residual
    for nudge, broken in ((1e-10, []), (5e-9, [property_name])):
        if verdict == "check_relations":
            monkeypatch.setattr(oracle, "relation_residuals", lambda c: [
                (rel, res + nudge) for rel, res in relation_residuals(c)])
        else:
            monkeypatch.setattr(oracle, "stability_residual",
                                lambda c, j: stability_residual(c, j) + nudge)
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "oracle", "--n", "3", "--p", "5", "--N", "1"
        )
        assert code == 1
        expected = ["[FAIL] verdicts stable across tolerances 1e-11..1e-7", *broken]
        assert all(line in out for line in expected)
        assert out.count("[FAIL]") == len(expected)


def test_verify_oracle_catches_one_bad_spec_in_a_stack(capsys, monkeypatch):
    # One doctored table among the 81 of (3,3,2), stacked with sound ones:
    # the batch reductions must still report its broken relation.
    import maxclass.checks as checks
    from maxclass.standard_form import StandardFormRep, build_rep

    doctored = []

    def one_entry_off(spec, validate=True):
        rep = build_rep(spec, validate)
        if spec.tail != (1, 1):
            return rep
        doctored.append(spec)
        first, *rest = rep.rows
        return StandardFormRep(spec, (((first[0] + 1) % rep.dim, *first[1:]), *rest))

    monkeypatch.setattr(checks, "build_rep", one_entry_off)
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "oracle", "--n", "3", "--p", "3", "--N", "2"
    )
    assert doctored and code == 1
    assert "[FAIL] matrix relations hold numerically (81 specs)" in out


def test_verify_oracle_suite_refuses_an_exceptional_prime(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--suite", "oracle", "--n", "5", "--p", "3", "--N", "1"
    )
    assert code == 2
    assert "exceptional prime p=3 < n=5" in err
    assert "[FAIL]" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ["--suite", "counting", "--n", "3"],
        ["--suite", "all", "--n", "3", "--p", "5"],
        ["--suite", "stability", "--N", "1"],
    ],
)
def test_verify_refuses_a_partial_pin(capsys, monkeypatch, argv):
    import maxclass.checks as checks

    def no_suite(grid=None):
        raise AssertionError("a suite ran on a partial pin")

    for key in checks.SUITES:
        monkeypatch.setitem(checks.SUITES, key, no_suite)
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert "pin a suite with all of --n, --p and --N, or none" in err


@pytest.mark.parametrize(
    "suite, n, p, N",
    [
        ("stability", 3, 101, 2),
        ("oracle", 7, 7, 2),
        ("standardform", 4, 97, 2),
        ("standardform", 4, 11, 2),
        ("stability", 3, 97, 2),
        ("orbits", 2, 3, 9),
    ],
)
def test_verify_refuses_pins_over_the_budget(capsys, monkeypatch, suite, n, p, N):
    import maxclass.checks as checks

    def no_spec(*args, **kwargs):
        raise AssertionError("a spec was built")

    monkeypatch.delenv("MAXCLASS_BUDGET", raising=False)
    monkeypatch.setattr(checks, "spec_from_tail", no_spec)
    code, out, err = run_cli(
        capsys, "verify", "--suite", suite, "--n", str(n), "--p", str(p), "--N", str(N)
    )
    assert code == 2
    assert out == ""
    assert (
        f"{p ** (n * N)} table cells ({p ** ((n - 1) * N)} specs x {p ** N} columns) "
        "exceed the enumeration budget 100000000" in err
    )


@pytest.mark.parametrize("budget, code", [("81", 0), ("80", 2)])
def test_verify_budget_counts_table_cells(capsys, monkeypatch, budget, code):
    # (2,3,2) has 9 specs of 9 columns each: 81 table cells.
    monkeypatch.setenv("MAXCLASS_BUDGET", budget)
    got, out, err = run_cli(
        capsys, "verify", "--suite", "stability", "--n", "2", "--p", "3", "--N", "2"
    )
    assert got == code
    assert ("81 table cells" in err) == (code == 2)
    assert "[FAIL]" not in out


def test_verify_stability_catches_equal_columns_with_different_successors(
    capsys, monkeypatch
):
    import maxclass.checks as checks
    from maxclass.standard_form import StandardFormRep, build_rep
    from maxclass.stability import is_irreducible_depth

    def last_column_repeated(spec, validate=True):
        # On an irreducible spec every column differs from column 1, so
        # copying column q-1 into column q leaves the minimal stable index
        # at N; only the successor of the repeated column changes.
        rep = build_rep(spec, validate)
        if not is_irreducible_depth(spec):
            return rep
        rows = tuple(row[:-1] + row[-2:-1] for row in rep.rows)
        return StandardFormRep(spec, rows)

    monkeypatch.setattr(checks, "build_rep", last_column_repeated)
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "stability", "--n", "2", "--p", "3", "--N", "2"
    )
    assert code == 1
    assert "[FAIL] column equality propagates one step right" in out
    assert out.count("[FAIL]") == 1


def test_verify_orbits_catches_a_verdict_that_varies_along_an_orbit(capsys, monkeypatch):
    import maxclass.checks as checks
    from maxclass.stability import is_irreducible_structural

    def flipped_at_e2_zero(rep):
        return is_irreducible_structural(rep) != (rep.spec.tail[0] == 0)

    monkeypatch.setattr(checks, "is_irreducible_structural", flipped_at_e2_zero)
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "orbits", "--n", "3", "--p", "5", "--N", "1"
    )
    assert code == 1
    assert "[FAIL] irreducibility is constant on orbits" in out
    assert out.count("[FAIL]") == 1


@pytest.mark.parametrize("suite", ["standardform", "stability"])
def test_verify_table_suites_run_at_an_exceptional_prime(capsys, suite):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", suite, "--n", "5", "--p", "3", "--N", "1"
    )
    assert code == 0
    assert "[FAIL]" not in out


def test_table_format(capsys):
    code, out, _ = run_cli(capsys, "table", "--n", "3", "--p", "5", "--max-N", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n\tp\tN\tr_enum\tr_closed\tr_series\tagree\terror"
    assert len(lines) == 4
    assert lines[1].split("\t") == ["3", "5", "0", "1", "1", "1", "yes", ""]
    assert lines[3].split("\t") == ["3", "5", "2", "56", "56", "56", "yes", ""]


def test_table_r_values_heisenberg(capsys):
    code, out, _ = run_cli(capsys, "table", "--n", "2", "--p", "2", "--max-N", "3")
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()[1:]]
    assert [r[3] for r in rows] == ["1", "1", "2", "4"]


def test_table_minimal_grid(capsys):
    code, out, _ = run_cli(capsys, "table", "--n", "2", "--p", "3", "--max-N", "0")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[1].split("\t")[3:7] == ["1", "1", "1", "yes"]


def test_table_records_cell_errors(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--n", "3", "--p", "5", "--max-N", "2", "--budget", "20"
    )
    assert code == 0  # the run continues; errors land in the last column
    lines = out.splitlines()
    last = lines[3].split("\t")
    assert last[3] == ""  # enumeration cell empty
    assert last[4] == "56"  # closed form still fine
    assert "budget" in last[7]


def test_table_series_cells_refuse_an_exceptional_prime(capsys):
    code, out, _ = run_cli(capsys, "table", "--n", "5", "--p", "3", "--max-N", "1")
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 2
    for line in rows:
        cells = line.split("\t")
        assert cells[3:7] == ["", "", "", ""]
        assert "series: exceptional prime p=3 < n=5" in cells[7]


def test_dump_schema_and_content(capsys):
    code, out, _ = run_cli(
        capsys, "dump", "--n", "3", "--p", "5", "--N", "1", "--exponents", "0,1,1"
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("rep.schema.json"))
    assert payload["rows"] == [[0, 2, 0, 4, 4], [1, 2, 3, 4, 0], [1, 1, 1, 1, 1]]


def test_dump_rejects_bad_exponents(capsys):
    code, _, err = run_cli(
        capsys, "dump", "--n", "3", "--p", "5", "--N", "1", "--exponents", "1,1,1"
    )
    assert code == 2
    assert "e_1" in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "maxclass.cli", "zeta", "--n", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "(1 - t)^2 / ((1 - p^3 t)(1 - p t))" in proc.stdout
