"""Resource-guard behavior."""
from __future__ import annotations

import pytest

from apolarium import cli
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
