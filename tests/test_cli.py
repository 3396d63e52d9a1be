import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

jsonschema = pytest.importorskip("jsonschema")

from maxclass import cli, counting, rootlog
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
    # `zeta` checks its input the same way whenever it is given --p.
    for argv in (["count", "--N", "2", "--method", "series"], ["zeta", "--series", "2"],
                 ["zeta"]):
        code, out, err = run_cli(capsys, *argv, "--n", str(n), "--p", str(p))
        assert code == 2
        assert out == ""
        assert message in err


NOT_IN_FAMILY = "the group family starts at n = 2"
NOT_PRIME = "p=4 is not prime"
EXCEPTIONAL = "exceptional prime p=3 < n=5: this toolkit requires p >= n"
REFUSALS = [
    ((1, 5, 1), NOT_IN_FAMILY),
    ((1, 4, 1), NOT_IN_FAMILY),
    ((3, 4, 1), NOT_PRIME),
    ((5, 3, 1), EXCEPTIONAL),
    ((3, 4, 100000), NOT_PRIME),
    ((5, 3, 100000), EXCEPTIONAL),
]
COMMANDS = {
    **{f"count-{m}": ["count", "--method", m, "--N"] for m in ("enum", "closed", "series", "all")},
    "zeta": ["zeta", "--series"],
    "table": ["table", "--max-N"],
    "dump": ["dump", "--exponents", "0", "--N"],
    "verify": ["verify", "--suite", "all", "--N"],
}


# At a valid (n, p, N) too large to run, each command names the first size
# rule it breaks: the digit bound, dump's table guard, or the table-cell
# budget of a pinned `verify --suite all`.
HUGE = (3, 5, 10**9)
HUGE_REFUSALS = {
    "dump": "5^1000000000 columns exceed the table guard 1000000",
    "verify": "5^3000000000 table cells (5^2000000000 specs x 5^1000000000 columns) "
              "exceed the enumeration budget 100000000",
}
HUGE_COUNT = ("the count at n=3, p=5, N=1000000000 may have 698970014 digits, "
              "over Python's int-to-str limit of 4300")


def refusal_cases():
    # `table` and `dump` admit p < n: `table` reports it cell by cell, so
    # only its digit bound refuses (5,3,100000) up front.
    for (n, p, N), message in [*REFUSALS, (HUGE, None)]:
        for command, argv in COMMANDS.items():
            expected = message or HUGE_REFUSALS.get(command, HUGE_COUNT)
            if message == EXCEPTIONAL and command in ("table", "dump"):
                if command == "dump" or N == 1:
                    continue
                expected = (f"the count at n={n}, p={p}, N={N} may have 143142 digits, "
                            "over Python's int-to-str limit of 4300")
            yield pytest.param([*argv, str(N), "--n", str(n), "--p", str(p)], expected,
                               id=f"{command}-{n}-{p}-{N}")


@pytest.mark.parametrize("argv, message", list(refusal_cases()))
def test_every_command_refuses_bad_input_in_one_order(capsys, monkeypatch, argv, message):
    # n < 2, then a non-prime p, then N < 0, then p < n, then the digit
    # bound, all before any count, table or suite starts.
    import maxclass.checks as checks

    def no_work(*args, **kwargs):
        raise AssertionError("work started on refused input")

    for name in ("enumerate_isoclasses", "closed_form_count", "count_from_series", "build_rep"):
        monkeypatch.setattr(cli, name, no_work)
    monkeypatch.setattr(cli.zeta, "series_coefficients", no_work)
    for key in checks.SUITES:
        monkeypatch.setitem(checks.SUITES, key, no_work)
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
    monkeypatch.delenv("MAXCLASS_BUDGET", raising=False)
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


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


def test_count_budget(capsys):
    code, _, err = run_cli(
        capsys, "count", "--n", "3", "--p", "5", "--N", "2", "--budget", "10"
    )
    assert code == 2
    assert "budget" in err


TAIL_RULE = ("tails exceed the enumeration budget {} (override with the budget argument or "
             "MAXCLASS_BUDGET) or the exactness bound 2^62 - 1")


@pytest.mark.parametrize(
    "n, p, N, budget, size",
    [(3, 5, 1000, 10**53, "5^2000"), (2, 2, 70, 2**80, "2^70"), (3, 5, 2, 10, "5^4")],
)
def test_count_names_the_tail_count_as_a_power(capsys, monkeypatch, n, p, N, budget, size):
    # One rule refuses tails over the budget or over 2^62 - 1, before any tail is read.
    def no_work(*args, **kwargs):
        raise AssertionError("the enumeration started")

    monkeypatch.setattr(counting, "_count_tail_range", no_work)
    argv = ["count", "--method", "enum", "--n", str(n), "--p", str(p), "--N", str(N)]
    assert run_cli(capsys, *argv, "--budget", str(budget)) == (
        2, "", f"error: {size} {TAIL_RULE.format(budget)}\n")


def test_count_refuses_2_to_the_62_tails_or_more(capsys, monkeypatch):
    import maxclass.counting as counting

    def no_work(*args, **kwargs):
        raise AssertionError("the enumeration started")

    monkeypatch.setattr(counting, "_count_tail_range", no_work)
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


@pytest.mark.parametrize(
    "n, p, N", [(2, 5, 5), (2, 7, 4), (2, 3, 7), (4, 7, 2), (3, 3, 6), (4, 5, 3), (3, 7, 4)]
)
def test_count_below_the_shard_floor_starts_no_process(capsys, monkeypatch, n, p, N):
    # --threads is reserved: the enumeration runs in the calling process
    # at every size, from 2^17 tails up too, as (3,3,6), (4,5,3) and
    # (3,7,4) have.
    def no_process(*args, **kwargs):
        raise AssertionError("a process was started")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)
    monkeypatch.setattr(os, "fork", no_process)
    code, out, err = run_cli(
        capsys, "count", "--n", str(n), "--p", str(p), "--N", str(N), "--threads", "2"
    )
    assert code == 0, err
    assert "agreement: yes" in out


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
            rootlog.refuse_unprintable_count(n, p, N)
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: digits + 2)
    rootlog.refuse_unprintable_count(n, p, N)


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
    rootlog.refuse_unprintable_count(3, 5, 10**9)


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
    code, out, err = run_cli(capsys, "zeta", "--n", "3", "--series", "2")
    assert code == 2
    assert out == ""
    assert err == "error: --series needs --p\n"


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


def test_verify_simplex_reads_the_closed_form_up_to_the_largest_shift(capsys, monkeypatch):
    # Wrong at exactly the largest argument the shift congruence reads, so
    # a table taken from the recursion, or bounded below it, misses it.
    import maxclass.checks as checks
    from maxclass.simplex import simplex

    monkeypatch.setattr(
        checks, "simplex", lambda k, j: simplex(k, j) + ((k, j) == (6, 6 * 7**2 + 29))
    )
    code, out, _ = run_cli(capsys, "verify", "--suite", "simplex")
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("[FAIL]")] == [
        "[FAIL] shift congruence T_k(a p^b + j) = T_k(j) mod p^b (k < p)"
    ]


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


def test_verify_all_reports_a_broken_orbit_law(capsys, monkeypatch):
    # A size-law failure on one spec fails that property; every other
    # suite still reports, and the run exits 1 rather than 2.
    import maxclass.checks as checks
    from maxclass.errors import InternalCheckError

    orbit_sizes = checks.orbit_sizes

    def broken_for_one_spec(tables, pp):
        if np.all(tables[:, 1:, 0] == (1, 1), axis=1).any():
            raise InternalCheckError("orbit size 1 != p^m = 9")
        return orbit_sizes(tables, pp)

    monkeypatch.setattr(checks, "orbit_sizes", broken_for_one_spec)
    code, out, err = run_cli(
        capsys, "verify", "--suite", "all", "--n", "3", "--p", "3", "--N", "2"
    )
    law = "orbits: orbit size = p^(restricted minimal stable index) (81 specs)"
    golden = (DATA_DIR / "verify_3_3_2.txt").read_text()
    assert code == 1
    assert err == ""
    assert out == golden.replace(f"[PASS] {law}", f"[FAIL] {law}").replace("36/36", "35/36")


def test_verify_reports_a_suite_that_raises_as_one_failure(capsys, monkeypatch):
    # An internal check raised inside a suite fails that suite in one line
    # carrying the message; the other suites still report, and the run
    # exits 1 rather than 2.  Stability and oracle both read the index.
    import maxclass.checks as checks
    from maxclass.errors import InternalCheckError

    def drifted(tables, pp, first_row=1):
        raise InternalCheckError("minimal stable index drifted")

    monkeypatch.setattr(checks, "minimal_stable_indices", drifted)
    code, out, err = run_cli(
        capsys, "verify", "--suite", "all", "--n", "3", "--p", "3", "--N", "2"
    )
    expected = []
    for line in (DATA_DIR / "verify_3_3_2.txt").read_text().splitlines()[:-1]:
        suite = line.split()[1]
        if suite in ("stability:", "oracle:"):
            line = f"[FAIL] {suite} minimal stable index drifted"
            if line in expected:
                continue
        expected.append(line)
    assert code == 1
    assert err == ""
    assert out.splitlines() == expected + ["26/28 properties passed"]
    code, out, err = run_cli(
        capsys, "verify", "--suite", "stability", "--n", "3", "--p", "3", "--N", "2"
    )
    assert (code, out, err) == (
        1, "[FAIL] stability: minimal stable index drifted\n0/1 properties passed\n", ""
    )


@pytest.mark.parametrize(
    "suite, per_spec", [("standardform", 1), ("stability", 1), ("orbits", 4), ("oracle", 2)]
)
def test_verify_builds_few_tables_per_spec(monkeypatch, suite, per_spec):
    import maxclass.checks as checks
    from maxclass.standard_form import build_stack

    builds = []

    def counted(n, pp, exponents):
        tables = build_stack(n, pp, exponents)
        builds.extend(tables)
        return tables

    # Every module that holds the builder counts, so a rebuild hidden in a
    # helper (say, build_rep in the orbit layer) shows up too.
    for name, module in list(sys.modules.items()):
        if name.startswith("maxclass") and getattr(module, "build_stack", None) is build_stack:
            monkeypatch.setattr(module, "build_stack", counted)
    results = checks.run_suite(suite, 3, 3, 2)
    assert all(r.passed for r in results)
    # orbits: its own table and one per shift offset 1, q // 2 = 4, q - 1 = 8.
    assert len(builds) == per_spec * 3 ** (2 * 2)


def test_verify_oracle_catches_a_shift_that_skips_columns(capsys, monkeypatch):
    # Reading column 2*offset + 1 still composes additively, so only the
    # matrix conjugation can tell it from the true shift (at n >= 3).
    import maxclass.checks as checks
    from maxclass.orbits import shifted_exponents

    monkeypatch.setattr(checks, "shifted_exponents",
                        lambda tables, offset: shifted_exponents(tables, 2 * offset))
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
            monkeypatch.setattr(oracle, "relation_residuals",
                                lambda c: relation_residuals(c) + nudge)
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
    from maxclass.standard_form import build_stack

    doctored = []

    def one_entry_off(n, pp, exponents):
        tables = build_stack(n, pp, exponents)
        hit = np.all(np.asarray(exponents)[:, 1:] == (1, 1), axis=1)
        doctored.extend(np.flatnonzero(hit))
        tables[hit, 0, 0] = (tables[hit, 0, 0] + 1) % pp.dim
        return tables

    monkeypatch.setattr(checks, "build_stack", one_entry_off)
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "oracle", "--n", "3", "--p", "3", "--N", "2"
    )
    assert doctored and code == 1
    assert "[FAIL] matrix relations hold numerically (81 specs)" in out


@pytest.mark.parametrize("irreducible_row, code", [(True, 1), (False, 0)])
def test_verify_oracle_judges_the_census_on_irreducible_specs(
    capsys, monkeypatch, irreducible_row, code
):
    # One spec of a stack reports two basis vectors in one joint
    # eigenspace: a failure on an irreducible spec, noise on a reducible one.
    import maxclass.oracle as oracle

    census = oracle.mutual_eigenspace_census
    doctored = []

    def merged(c):
        eigenspaces, largest = census(c)
        rows = np.flatnonzero((oracle.commutant_dimension(c) == 1) == irreducible_row)
        if not doctored and rows.size:
            doctored.append(rows[0])
            eigenspaces[rows[0]], largest[rows[0]] = c.dim - 1, 2
        return eigenspaces, largest

    monkeypatch.setattr(oracle, "mutual_eigenspace_census", merged)
    got, out, _ = run_cli(
        capsys, "verify", "--suite", "oracle", "--n", "3", "--p", "3", "--N", "2"
    )
    assert doctored and got == code
    assert out.count("[FAIL]") == code
    assert ("[FAIL] joint eigenspace census is (p^N, 1) on irreducibles" in out) == bool(code)


def test_verify_oracle_suite_refuses_an_exceptional_prime(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--suite", "oracle", "--n", "5", "--p", "3", "--N", "1"
    )
    assert code == 2
    assert "exceptional prime p=3 < n=5" in err
    assert "[FAIL]" not in out


def test_verify_all_refuses_an_exceptional_prime_before_any_suite(monkeypatch):
    # `all` reaches `counting`, which refuses p < n, so no suite may run first.
    import maxclass.checks as checks
    from maxclass.errors import ExceptionalPrimeError

    def no_suite(grid=None):
        raise AssertionError("a suite ran on an exceptional prime")

    for key in checks.SUITES:
        monkeypatch.setitem(checks.SUITES, key, no_suite)
    with pytest.raises(ExceptionalPrimeError, match="^exceptional prime p=3 < n=4: "):
        checks.run_suite("all", 4, 3, 3)


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
    "argv, message",
    [
        (["simplex", "--n", "3", "--p", "4", "--N", "1"], "p=4 is not prime"),
        (["zeta", "--n", "3", "--p", "4", "--N", "1"], "p=4 is not prime"),
        (["rootlog", "--n", "1", "--p", "5", "--N", "1"], "the group family starts at n = 2"),
        (["stability", "--n", "1", "--p", "4", "--N", "1"], "the group family starts at n = 2"),
        (["all", "--n", "3", "--p", "6", "--N", "1"], "p=6 is not prime"),
        (["all", "--n", "3", "--p", "5", "--N", "0"], "standard forms need N >= 1"),
    ],
)
def test_verify_refuses_an_invalid_pin_before_any_suite(capsys, monkeypatch, argv, message):
    import maxclass.checks as checks

    def no_suite(grid=None):
        raise AssertionError("a suite ran on an invalid pin")

    for key in checks.SUITES:
        monkeypatch.setitem(checks.SUITES, key, no_suite)
    assert run_cli(capsys, "verify", "--suite", *argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("suite", ["counting", "zeta"])
def test_verify_suites_without_tables_pass_at_N_0(capsys, suite):
    code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--n", "3", "--p", "5", "--N", "0")
    assert code == 0
    assert "[FAIL]" not in out


@pytest.mark.parametrize(
    "suite, message",
    [
        *((suite, HUGE_REFUSALS["verify"])
          for suite in ("standardform", "stability", "orbits", "oracle")),
        ("counting", f"5^2000000000 {TAIL_RULE.format(100000000)}"),
    ],
)
def test_verify_refuses_a_huge_pin_by_its_exponent(capsys, monkeypatch, suite, message):
    import maxclass.checks as checks

    def no_work(*args, **kwargs):
        raise AssertionError("a table was built or a tail counted")

    monkeypatch.delenv("MAXCLASS_BUDGET", raising=False)
    monkeypatch.setattr(checks, "build_stack", no_work)
    monkeypatch.setattr(counting, "_count_tail_range", no_work)
    n, p, N = HUGE
    assert run_cli(
        capsys, "verify", "--suite", suite, "--n", str(n), "--p", str(p), "--N", str(N)
    ) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["zeta", "--n", "3", "--series", "1"],
    ["count", "--n", "2", "--N", "1", "--method", "closed"],
    ["verify", "--suite", "zeta", "--n", "3", "--N", "1"],
])
def test_a_prime_beyond_the_miller_rabin_bound_is_refused(capsys, argv):
    # 2^89 - 1 is prime, but only trial division could certify it here.
    p = str(2**89 - 1)
    assert run_cli(capsys, *argv, "--p", p) == (2, "", (
        f"error: p={p} passes Miller-Rabin to the first 13 prime bases, which proves "
        "primality only below 3317044064679887385961981\n"))


@pytest.mark.parametrize("suite", ["simplex", "zeta", "rootlog"])
def test_verify_gridless_suites_run_at_an_exceptional_prime(capsys, suite):
    code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--n", "5", "--p", "3", "--N", "1")
    assert code == 0
    assert "[FAIL]" not in out


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

    def no_table(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.delenv("MAXCLASS_BUDGET", raising=False)
    monkeypatch.setattr(checks, "build_stack", no_table)
    assert run_cli(
        capsys, "verify", "--suite", suite, "--n", str(n), "--p", str(p), "--N", str(N)
    ) == (2, "", f"error: {p}^{n * N} table cells ({p}^{(n - 1) * N} specs x {p}^{N} columns) "
                 "exceed the enumeration budget 100000000\n")


@pytest.mark.parametrize(
    "n, p, N, budget, message",
    [
        (2, 97, 2, None, "97^2 matrix rows exceed the oracle guard 64"),
        (2, 2, 7, None, "2^7 matrix rows exceed the oracle guard 64"),
        (3, 67, 1, None, "67^1 matrix rows exceed the oracle guard 64"),
        # Over the table guard too, which the first table built would meet first.
        (2, 1000003, 1, "10000000000000", "1000003^1 columns exceed the table guard 1000000"),
    ],
)
def test_verify_all_refuses_pins_over_the_oracle_guard(capsys, monkeypatch, n, p, N, budget,
                                                        message):
    import maxclass.checks as checks

    def no_table(*args, **kwargs):
        raise AssertionError("a table was built")

    if budget is None:
        monkeypatch.delenv("MAXCLASS_BUDGET", raising=False)
    else:
        monkeypatch.setenv("MAXCLASS_BUDGET", budget)
    monkeypatch.setattr(checks, "build_stack", no_table)
    assert run_cli(
        capsys, "verify", "--suite", "all", "--n", str(n), "--p", str(p), "--N", str(N)
    ) == (2, "", f"error: {message}\n")


def test_verify_oracle_matches_the_3_7_2_transcript(capsys):
    # 2401 specs of dimension 49, the largest pin that CI replays.
    code, out, err = run_cli(capsys, "verify", "--suite", "oracle", "--n", "3", "--p", "7",
                             "--N", "2")
    assert (code, err) == (0, "")
    assert out == (DATA_DIR / "verify_oracle_3_7_2.txt").read_text()


@pytest.mark.parametrize("budget, code", [("81", 0), ("80", 2)])
def test_verify_budget_counts_table_cells(capsys, monkeypatch, budget, code):
    # (2,3,2) has 9 specs of 9 columns each: 81 table cells.
    monkeypatch.setenv("MAXCLASS_BUDGET", budget)
    got, out, err = run_cli(
        capsys, "verify", "--suite", "stability", "--n", "2", "--p", "3", "--N", "2"
    )
    assert got == code
    assert err == ("error: 3^4 table cells (3^2 specs x 3^2 columns) exceed the enumeration "
                   "budget 80\n" if code == 2 else "")
    assert "[FAIL]" not in out


def test_verify_stability_catches_equal_columns_with_different_successors(
    capsys, monkeypatch
):
    import maxclass.checks as checks
    from maxclass.standard_form import build_stack
    from maxclass.stability import irreducible_depth

    def last_column_repeated(n, pp, exponents):
        # On an irreducible spec every column differs from column 1, so
        # copying column q-1 into column q leaves the minimal stable index
        # at N; only the successor of the repeated column changes.
        tables = build_stack(n, pp, exponents)
        irreducible = irreducible_depth(np.asarray(exponents), pp.p)
        tables[irreducible, :, -1] = tables[irreducible, :, -2]
        return tables

    monkeypatch.setattr(checks, "build_stack", last_column_repeated)
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "stability", "--n", "2", "--p", "3", "--N", "2"
    )
    assert code == 1
    assert "[FAIL] column equality propagates one step right" in out
    assert out.count("[FAIL]") == 1


def test_verify_orbits_catches_a_verdict_that_varies_along_an_orbit(capsys, monkeypatch):
    import maxclass.checks as checks
    from maxclass.stability import irreducible_structural

    def flipped_at_e2_zero(tables, pp):
        return irreducible_structural(tables, pp) != (tables[:, 1, 0] == 0)

    monkeypatch.setattr(checks, "irreducible_structural", flipped_at_e2_zero)
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


def test_table_exits_1_when_a_row_disagrees(capsys, monkeypatch):
    monkeypatch.setattr(cli, "closed_form_count", lambda n, p, N: closed_form_count(n, p, N) + 1)
    code, out, _ = run_cli(capsys, "table", "--n", "3", "--p", "5", "--max-N", "1")
    assert code == 1
    assert [line.split("\t")[6] for line in out.splitlines()[1:]] == ["no", "no"]


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


def test_dump_rejects_a_malformed_exponent_list(capsys):
    code, out, err = run_cli(
        capsys, "dump", "--n", "3", "--p", "5", "--N", "1", "--exponents", "0,x"
    )
    assert code == 2
    assert out == ""
    assert err == "error: malformed exponent list '0,x'\n"


def test_every_command_matches_its_golden_output(capsys):
    # Recorded on a tree where the three counting methods agree.  Each
    # count runs with --threads 1 and 2, which must print the same.
    for entry in json.loads((DATA_DIR / "cli_golden.json").read_text()):
        argv, expected = entry["argv"], (entry["code"], entry["stdout"], entry["stderr"])
        for threads in (["--threads", "1"], ["--threads", "2"]) if argv[0] == "count" else ([],):
            assert run_cli(capsys, *argv, *threads) == expected, argv + threads


def test_one_parser_serves_every_call_in_a_process(capsys):
    # The parser is built once per process; a call that fails to parse
    # leaves nothing behind for the next call.
    argvs = [
        ["count", "--n", "3", "--p", "5", "--N", "2"],
        ["count", "--n", "3", "--p", "5", "--N", "-1"],
        ["verify", "--suite", "zeta"],
    ]
    codes = []
    for argv in argvs:
        fresh = subprocess.run([sys.executable, "-m", "maxclass.cli", *argv],
                               capture_output=True, text=True)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes.append(code)
    assert codes == [0, 2, 0]
    assert cli.build_parser() is cli.build_parser()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "maxclass.cli", "zeta", "--n", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "(1 - t)^2 / ((1 - p^3 t)(1 - p t))" in proc.stdout
