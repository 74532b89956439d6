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
from apolarium.papersuite import BIG_CUBIC, run_suite
from apolarium.poly import parse, twist
from oracles import (cells_stored, divisor_columns, packed_key,
                     spy_cells_built, spy_rows_read)


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


def spy_times(monkeypatch, refuse=False):
    """The first factor of each ``poly._times`` call while the spy is set,
    in order; with refuse, any call fails the test."""
    from apolarium import poly
    calls = []
    times = poly._times

    def spy(a, b):
        assert not refuse, "a product was expanded"
        calls.append(a)
        return times(a, b)
    monkeypatch.setattr(poly, "_times", spy)
    return calls


def test_a_computed_power_is_charged_before_it_is_built(monkeypatch):
    # F = (x0+...+x9)^3 has 220 terms; twist(F^5) would have
    # min(comb(224, 5), comb(25, 15)) = 3268760 terms, which are not built
    F = parse("(" + "+".join(f"x{i}" for i in range(10)) + ")^3")
    spy_times(monkeypatch, refuse=True)
    with pytest.raises(LimitExceeded,
                       match="^term count 3268760 exceeds limit 1000000$"):
        encompass.verify_main_theorem(F, "x0", 5)


def test_growth_refuses_a_power_before_it_builds_it(monkeypatch):
    # f^2 has comb(21, 2) = 210 terms: f^1 is built, and its square is not
    f = parse(" + ".join(f"x{i}" for i in range(1, 21)))
    calls = spy_times(monkeypatch)
    with limits(max_terms=100), pytest.raises(
            LimitExceeded, match="^term count 210 exceeds limit 100$"):
        encompass.growth_table(f, 2)
    assert calls == [{0: 1}]


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


def test_one_order_of_partials_is_charged_its_own_cells(monkeypatch):
    # the order-1 cells of x1^3 + x2^3 (the mirror of order 2): x1 in slab
    # x1^2, built and read, then x2 in slab x2^3, refused before it is
    # built
    f = parse(FERMAT)
    charges = spy_cells_built(monkeypatch)
    counts = spy_rows_read(monkeypatch)
    for k in (1, 2):
        charges.clear()
        counts.clear()
        with limits(max_terms=1), pytest.raises(
                LimitExceeded,
                match="^partials dimension bound 2 exceeds limit 1$"):
            apolar.catalecticant_rank(f, k)
        assert (sum(charges), counts) == (1, [1])
    with limits(max_terms=2):
        assert apolar.is_concise(f)
        assert apolar.catalecticant_rank(f, 2) == 2


def twisted_fourth():
    return twist(parse(BIG_CUBIC) ** 4, "x0")


@pytest.mark.parametrize("form, call, m", [
    (twisted_fourth, lambda F: apolar.catalecticant_rank(F, 4), 4),
    (twisted_fourth, apolar.is_concise, 1),
    (lambda: parse(BIG_CUBIC), apolar.is_concise, 1),
    (lambda: parse(FERMAT), lambda F: apolar.catalecticant_rank(F, 1), 1),
    (lambda: parse("(x1 + 2/3*x2)^4 + x3^4"),
     lambda F: apolar.catalecticant_rank(F, 2), 2),
], ids=["cat-rank", "concise", "concise small", "short rank",
        "short rank, fractions"])
def test_a_single_order_stream_is_charged_the_cells_it_stores(monkeypatch,
                                                              form, call, m):
    # the running total is the cells of the slabs built to yield the
    # columns the elimination reads, and the cap it needs
    F = form()
    charges = spy_cells_built(monkeypatch)
    counts = spy_rows_read(monkeypatch)
    answer = call(F)
    stored = cells_stored(divisor_columns(F, m, m), counts[0])
    assert sum(charges) == stored
    with limits(max_terms=stored):
        assert call(F) == answer
    with limits(max_terms=stored - 1), pytest.raises(
            LimitExceeded, match=f"^partials dimension bound {stored} "
                                 f"exceeds limit {stored - 1}$"):
        call(F)


def test_the_main_theorem_certificate_stores_a_quarter_of_its_cells(
        monkeypatch):
    # Cat_4 of twist(BIG_CUBIC^4, x0) has 528 columns and 1,611 cells; the
    # first 126 columns, the slabs of x0-exponent >= 4, hold 444 cells and
    # certify rank binom(9, 4) = 126, which the cap of 1,000 now admits
    charges = spy_cells_built(monkeypatch)
    counts = spy_rows_read(monkeypatch)
    with limits(max_terms=1000):
        assert apolar.catalecticant_rank(twisted_fourth(), 4) == 126
    assert (counts, sum(charges)) == ([126], 444)


@pytest.mark.parametrize("cap", [0, 1, 100, 300, 443])
def test_a_stream_refused_midway_stores_no_cell_past_the_cap(monkeypatch,
                                                             cap):
    # Cat_4 of twist(BIG_CUBIC^4, x0) builds 444 cells before it certifies
    # its rank; under a lower cap it builds the terms of the uncapped
    # stream up to the one that would pass the cap, which is refused with
    # the total it would reach before any of its cells is built, and no
    # column of its slab is read
    F = twisted_fourth()
    charges = spy_cells_built(monkeypatch)
    counts = spy_rows_read(monkeypatch)
    apolar.catalecticant_rank(F, 4)
    uncapped = charges[:]
    charges.clear()
    counts.clear()
    with limits(max_terms=cap), pytest.raises(LimitExceeded) as refusal:
        apolar.catalecticant_rank(F, 4)
    kept = sum(charges)
    reached = kept + uncapped[len(charges)]
    assert charges == uncapped[:len(charges)] and kept <= cap < reached
    assert str(refusal.value) == (
        f"partials dimension bound {reached} exceeds limit {cap}")
    columns = divisor_columns(F, 4, 4)
    assert counts[0] == 0 or cells_stored(columns, counts[0]) <= kept


@pytest.mark.parametrize("cap", [0, 461, 462, 923, 924])
def test_a_term_past_the_cap_is_refused_before_its_cells_are_built(
        monkeypatch, cap):
    # Cat_6 of x0*x1*...*x11 is one term of 924 cells, built in two calls
    # of 462, with x0 in b and then x0 in a; its rank 924 reads them all.
    # A call whose cells would pass the cap is refused before it is made.
    F = parse("*".join(f"x{i}" for i in range(12)))
    charges = spy_cells_built(monkeypatch)
    if cap == 924:
        assert apolar.catalecticant_rank(F, 6) == 924
    else:
        reached = 462 if cap < 462 else 924
        with limits(max_terms=cap), pytest.raises(
                LimitExceeded, match=f"^partials dimension bound {reached} "
                                     f"exceeds limit {cap}$"):
            apolar.catalecticant_rank(F, 6)
    assert charges == [462, 462][:(cap >= 462) + (cap >= 924)]


@pytest.mark.parametrize("e", [(), (0,), (3,), (2, 0, 1), (1, 1, 1, 1),
                               (4, 2, 3)])
def test_cell_counts_match_the_divisors(e):
    # the oracle, apart from both the enumerator and _cell_count: every
    # a <= e from itertools.product, with its degree and e!/(e-a)!
    top = max(e, default=0)
    perms = [[math.perm(x, t) for t in range(x + 1)] for x in range(top + 1)]
    divisors = [(a, sum(a), math.prod(map(math.perm, e, a)))
                for a in itertools.product(*(range(x + 1) for x in e))]
    assert apolar._cell_count(e) == len(divisors)
    for w in (top.bit_length(), top.bit_length() + 2):  # keys fit any width
        def oracle(lo, hi):
            return sorted((packed_key(a, w), s, p) for a, s, p in divisors
                          if lo <= s <= hi)
        for k in range(sum(e) + 2):
            cells = apolar._bounded(e, w, k, k, perms)
            assert sorted(cells) == oracle(k, k)
            assert apolar._cell_count(e, k, k) == len(cells)
            # the cells of orders <= k, in one pass: no cell twice, none missed
            lower = apolar._bounded(e, w, 0, k, perms)
            assert sorted(lower) == oracle(0, k)
            assert apolar._cell_count(e, 0, k) == len(lower)
            for lo in range(-1, k + 1):  # orders below 0 hold no cell
                assert apolar._cell_count(e, lo, k) == len(
                    apolar._bounded(e, w, lo, k, perms))


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
