"""The built-in reference suite must be green and self-consistent."""
from __future__ import annotations

import pytest

from apolarium.guards import LimitExceeded, limits
from apolarium.papersuite import ENTRIES, OUT_OF_SCOPE, run_suite
from apolarium.poly import format_poly, parse


def test_suite_is_green():
    result = run_suite()
    failed = [e["id"] for e in result["entries"]
              if e["kind"] == "assert" and not e["ok"]]
    assert failed == []
    assert result["summary"]["failed"] == 0
    assert result["summary"]["passed"] >= 25
    assert result["summary"]["informational"] >= 3
    assert result["summary"]["out_of_scope"] == OUT_OF_SCOPE
    assert len(OUT_OF_SCOPE) == 5


def test_entry_ids_are_sorted_and_unique():
    ids = [e.id for e in ENTRIES]
    assert ids == sorted(ids)
    assert len(set(ids)) == len(ids)


def test_cli_provenance_points_at_real_entries():
    from apolarium.cli import COMMANDS
    ids = {e.id for e in ENTRIES}
    for command in COMMANDS:
        assert command.provenance, command.path
        for ref in command.provenance:
            assert ref == "*" or ref in ids, (command.path, ref)


GROWTH_IDS = ["encompassing-equivalences", "growth-chain-experiment",
              "growth-never-exceeds-binomial"]


def test_growth_entries_do_not_depend_on_what_else_runs():
    alone = {i: run_suite([i])["entries"] for i in GROWTH_IDS}
    full = {e["id"]: e for e in run_suite()["entries"]}
    for i in GROWTH_IDS:
        assert alone[i] == [full[i]]


def test_growth_rows_are_built_once_per_run(monkeypatch):
    from apolarium import encompass, papersuite
    built = []
    table = encompass.growth_table

    def spy(f, dmax):
        built.append(format_poly(f))
        return table(f, dmax)
    # the suite's growth rows import growth_table when they are first built
    monkeypatch.setattr(encompass, "growth_table", spy)
    corpus = [format_poly(parse(t)) for t in papersuite.ENCOMPASS_CORPUS]
    for _ in range(2):  # a second run builds its own rows again
        built.clear()
        run_suite(GROWTH_IDS)
        assert built == corpus


def test_growth_rows_honour_the_ceiling_guard():
    # the rows of x1^2, the first text of the corpus, are (3, 3) and
    # (5, 6): the ceiling 6 is past 5
    with limits(max_terms=5), pytest.raises(LimitExceeded,
                                            match="growth ceiling 6"):
        run_suite(["growth-never-exceeds-binomial"])


@pytest.mark.parametrize("entry, builds", [
    # the Hilbert function of the form f, whose sum is the dimension: the
    # orders up to deg f // 2
    ("apolar-dim-product-of-linears", [(0, 4)]),
    # the Hilbert function of f, then rows 1 and 2 of its growth table
    ("local-quadric-smoothing", [(0, 1), (0, 1), (0, 2)]),
    # per polynomial f of its corpus of 7, one line each: the greedy basis
    # of f in its extension, then the Hilbert functions of the extension g
    # and of f (orders up to deg f // 2 for a form); g is encompassing when
    # its truncations have rank sum(hf_g), with no second build of g
    ("extension-invariants", [
        (0, 2), (0, 2), (0, 1),  # x1^2
        (0, 2), (0, 2), (0, 2),  # x1^2 + x2
        (0, 2), (0, 2), (0, 1),  # x1*x2
        (0, 3), (0, 3), (0, 3),  # x1^3 + x2
        (0, 2), (0, 2), (0, 1),  # x1^2 + x2^2
        (0, 3), (0, 3), (0, 3),  # x1^2 + x2^3
        (0, 2), (0, 2), (0, 1),  # x1*x2
    ]),
])
def test_an_entry_ranks_each_partials_matrix_once(partials_builds, entry,
                                                  builds):
    run_suite([entry])
    assert partials_builds == builds


def test_suite_partials_builds(partials_builds):
    # each corpus polynomial of encompassing-equivalences is built once for
    # its report and once more as row 1 of its growth table; the growth
    # tables are shared within one run, so a second run builds them again;
    # each annihilator of the tautological-apolarity entries is one build;
    # each extension g of extension-invariants is built once
    counts = []
    for _ in range(2):
        before = len(partials_builds)
        run_suite()
        counts.append(len(partials_builds) - before)
    assert counts == [157, 157]
