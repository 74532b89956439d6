"""Resource-guard behavior."""
from __future__ import annotations

import itertools
import math

import pytest

from apolarium import apolar, cli, encompass
from apolarium.guards import (
    DEFAULT_MAX_DEGREE,
    DEFAULT_MAX_ENTRIES,
    Limits,
    LimitExceeded,
    check_degree,
    check_entries,
    check_terms,
    current,
    limits,
)
from apolarium.papersuite import run_suite
from apolarium.poly import parse
from oracles import packed_key


def test_checks_pass_below_limits():
    with limits(max_entries=10, max_terms=5):
        check_entries(10)
        check_terms(0)
    check_degree(DEFAULT_MAX_DEGREE)


def test_checks_raise_above_limits():
    with limits(max_entries=10, max_terms=5):
        with pytest.raises(LimitExceeded):
            check_entries(11)
        with pytest.raises(LimitExceeded):
            check_terms(6)
    with pytest.raises(LimitExceeded):
        check_degree(DEFAULT_MAX_DEGREE + 1)


def test_entry_limit_from_environment(monkeypatch):
    monkeypatch.setenv("APOLARIUM_MAX_ENTRIES", "42")
    assert Limits.from_env().max_entries == 42
    with pytest.raises(LimitExceeded):
        check_entries(43)
    monkeypatch.delenv("APOLARIUM_MAX_ENTRIES")
    check_entries(43)


def test_environment_is_read_at_call_time_outside_every_context(monkeypatch):
    monkeypatch.delenv("APOLARIUM_MAX_ENTRIES", raising=False)
    assert current() == Limits()
    monkeypatch.setenv("APOLARIUM_MAX_ENTRIES", "7")
    assert current() == Limits(max_entries=7)
    with limits(max_terms=3) as lim:
        # a context starts from the limits in force when it is entered
        assert lim == current() == Limits(max_terms=3, max_entries=7)
        monkeypatch.setenv("APOLARIUM_MAX_ENTRIES", "8")
        assert current().max_entries == 7
    assert current() == Limits(max_entries=8)


def test_limits_from_one_environment_string_are_reused(monkeypatch):
    monkeypatch.setenv("APOLARIUM_MAX_ENTRIES", "5")
    first = current()
    assert first == Limits(max_entries=5) and current() is first
    monkeypatch.setenv("APOLARIUM_MAX_ENTRIES", "6")
    assert current() == Limits(max_entries=6)
    with pytest.raises(LimitExceeded):
        check_entries(7)
    monkeypatch.delenv("APOLARIUM_MAX_ENTRIES")
    assert current() == Limits()
    check_entries(7)
    monkeypatch.setenv("APOLARIUM_MAX_ENTRIES", "5")
    assert current() == Limits(max_entries=5)
    monkeypatch.setenv("APOLARIUM_MAX_ENTRIES", "five")
    with pytest.raises(ValueError):
        current()
    monkeypatch.setenv("APOLARIUM_MAX_ENTRIES", "5")
    assert current() == Limits(max_entries=5)


def test_nested_contexts_restore_the_outer_limits(monkeypatch):
    monkeypatch.delenv("APOLARIUM_MAX_ENTRIES", raising=False)
    with limits(max_terms=10, max_degree=4):
        with limits(max_terms=2):
            assert current() == Limits(max_terms=2, max_degree=4)
            with pytest.raises(LimitExceeded):
                check_terms(3)
        assert current() == Limits(max_terms=10, max_degree=4)
        check_terms(3)
    assert current() == Limits()


def test_an_exception_inside_a_context_restores_the_limits(monkeypatch):
    monkeypatch.delenv("APOLARIUM_MAX_ENTRIES", raising=False)
    with limits(max_entries=100):
        with pytest.raises(LimitExceeded):
            with limits(max_entries=0):
                check_entries(1)
        assert current().max_entries == 100
    assert current().max_entries == DEFAULT_MAX_ENTRIES


def test_a_refused_cli_run_leaves_no_limits_behind(capsys, monkeypatch):
    monkeypatch.delenv("APOLARIUM_MAX_ENTRIES", raising=False)
    argv = ["tensor", "kron", "--tensor", "cw:3", "--power", "2"]
    assert cli.run(argv + ["--max-entries", "0"]) == 3
    assert current() == Limits()
    assert cli.run(argv) == 0
    capsys.readouterr()


def test_a_cli_flag_beats_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("APOLARIUM_MAX_ENTRIES", "1")
    argv = ["tensor", "kron", "--tensor", "cw:3", "--power", "2"]
    assert cli.run(argv) == 3
    assert cli.run(argv + ["--max-entries", "100000"]) == 0
    monkeypatch.setenv("APOLARIUM_MAX_ENTRIES", "100000")
    assert cli.run(argv + ["--max-entries", "1"]) == 3
    capsys.readouterr()


# -- the library refuses before it builds -----------------------------------------


FERMAT = "x1^3 + x2^3"  # partials bound 4 + 4 = 8


@pytest.mark.parametrize("text, lim, message", [
    ("(x1+x2+x3+x4+x5+x6)^30", {"max_degree": 10}, "degree 30 "),
    ("x1*x2", {"max_degree": 1}, "degree 2 "),
    # multisets of 4 of 3 terms: comb(6, 4) = 15 < comb(3 + 4, 3)
    ("(x1+x2+x3)^4", {"max_terms": 14}, "term count 15 "),
    ("(x1+x2)*(x1+x2+x3)", {"max_terms": 5}, "term count 6 "),
    ("(x1+x2)(x1+x2+x3)", {"max_terms": 5}, "term count 6 "),
])
def test_parsed_products_and_powers_are_refused_before_they_expand(
        monkeypatch, text, lim, message):
    from apolarium import poly
    calls = []
    times = poly._times

    def spy(a, b):
        calls.append((a, b))
        return times(a, b)
    monkeypatch.setattr(poly, "_times", spy)
    with limits(**lim):
        with pytest.raises(LimitExceeded, match=message):
            parse(text)
    assert calls == []


def test_a_parsed_power_is_charged_at_most_its_monomials():
    # comb(3 + 2 - 1, 2) = 6 multisets of terms, 5 monomials of degree <= 4
    with limits(max_terms=5):
        assert len(parse("(x1^2+x1+1)^2").terms) == 5
    with limits(max_terms=4):
        with pytest.raises(LimitExceeded, match="term count 5 "):
            parse("(x1^2+x1+1)^2")


@pytest.mark.parametrize("call", [
    apolar.apolar_dim, apolar.hilbert_function, apolar.greedy_monomial_basis,
    encompass.is_encompassing, encompass.encompassing_extension])
def test_partials_guard_refuses_before_any_elimination(no_library_work,
                                                       call):
    f = parse(FERMAT)
    with limits(max_terms=7), pytest.raises(
            LimitExceeded, match="^partials dimension bound 8 exceeds limit 7$"):
        call(f)
    no_library_work.undo()
    with limits(max_terms=8):
        call(f)


def test_one_order_of_partials_is_charged_its_own_cells(no_library_work):
    f = parse(FERMAT)  # x1, x2 of order 1 and x1^2, x2^2 of order 2
    for k in (1, 2):
        with limits(max_terms=1), pytest.raises(
                LimitExceeded,
                match="^partials dimension bound 2 exceeds limit 1$"):
            apolar.catalecticant_rank(f, k)
    no_library_work.undo()
    with limits(max_terms=2):
        assert apolar.is_concise(f)
        assert apolar.catalecticant_rank(f, 2) == 2


@pytest.mark.parametrize("e", [(), (0,), (3,), (2, 0, 1), (1, 1, 1, 1),
                               (4, 2, 3)])
def test_cell_counts_match_the_divisors(e):
    # the oracle, apart from both the enumerator and _cell_count: every
    # a <= e from itertools.product, with its degree and e!/(e-a)!
    top = max(e, default=0)
    perms = [[math.perm(x, t) for t in range(x + 1)] for x in range(top + 1)]
    divisors = [(a, sum(a), math.prod(map(math.perm, e, a)))
                for a in itertools.product(*(range(x + 1) for x in e))]
    assert apolar._cell_count(e, None) == len(divisors)
    for w in (top.bit_length(), top.bit_length() + 2):  # keys fit any width
        def oracle(lo, hi):
            return sorted((packed_key(a, w), s, p) for a, s, p in divisors
                          if lo <= s <= hi)
        for k in range(sum(e) + 2):
            cells = apolar._bounded(e, w, k, k, perms)
            assert apolar._cell_count(e, k) == len(cells)
            assert sorted(cells) == oracle(k, k)
            # the cells of orders <= k, in one pass: no cell twice, none missed
            lower = apolar._bounded(e, w, 0, k, perms)
            assert len(lower) == sum(
                apolar._cell_count(e, j) for j in range(k + 1))
            assert sorted(lower) == oracle(0, k)


def test_operator_space_guard_refuses_before_any_elimination(no_library_work):
    f = parse("x1*x2*x3")  # binom(3 + 5, 5) = 56 operators of degree <= 5
    F = parse("x0*x1*x2*x3")  # x1*x2*x3 at x0 = 1, bound 4: 35 operators
    with limits(max_terms=55), pytest.raises(
            LimitExceeded, match="^operator space size 56 exceeds limit 55$"):
        apolar.annihilator_upto(f, 5)
    with limits(max_degree=4), pytest.raises(
            LimitExceeded, match="^degree 5 exceeds limit 4$"):
        apolar.annihilator_upto(f, 5)
    with limits(max_terms=34), pytest.raises(
            LimitExceeded, match="^operator space size 35 exceeds limit 34$"):
        apolar.verify_tautological_apolarity(F, "x0")
    no_library_work.undo()
    with limits(max_terms=56, max_degree=5):
        assert len(apolar.annihilator_upto(f, 5)) == 56 - 8
    with limits(max_terms=35):
        assert apolar.verify_tautological_apolarity(F, "x0").all_pass


def test_annihilator_charges_the_partials_guard(no_library_work):
    # 3 operators of degree <= 1, but the rows are charged the whole ladder
    # of x1^3 + x2^3: 4 + 4 cells
    f = parse("x1^3 + x2^3")
    with limits(max_terms=7), pytest.raises(
            LimitExceeded, match="^partials dimension bound 8 exceeds limit 7$"):
        apolar.annihilator_upto(f, 1)
    no_library_work.undo()
    with limits(max_terms=8):
        assert apolar.annihilator_upto(f, 1) == []


def test_suite_entries_honour_the_partials_guard():
    only = ["apolar-dim-product-of-linears"]  # x1*...*x9, bound 2^9
    with limits(max_terms=511), pytest.raises(LimitExceeded):
        run_suite(only)
    with limits(max_terms=512):
        assert run_suite(only)["summary"]["passed"] == 1
