"""The ``@file`` documents of the command line, mutated one node at a time.

Each of the five loaders reads the ``doc()`` of a small valid object with
one node changed.  A node of the wrong JSON type, or a required key
deleted, must exit 2 with ``error: malformed document PATH: ``; another
int or another rational must exit 0, echoing the document as this module
normalises it, or exit 2 with an ``error: `` line.  No run may exit 1,
the code of a violated claim, and no exception may escape ``cli.run``.
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from apolarium.cli import run
from apolarium.sweet import CW_LARGE, BlockDistribution, cw_blocking
from apolarium.tensor3 import PartiallySymmetricTensor, Tensor3

WRONG_TYPES = [None, True, 1.5, {}]
DELETE = object()


def _rational(x) -> bool:
    try:
        Fraction(x)
    except (ValueError, ZeroDivisionError):
        return False
    return True


def _canonical(x) -> str:
    return str(Fraction(x))


def _tensor(doc):
    out = {"dims": doc["dims"],
           "entries": sorted([i, j, k, _canonical(v)]
                             for i, j, k, v in doc["entries"]
                             if Fraction(v))}
    if doc.get("labels") is not None:
        out["labels"] = doc["labels"]
    return out


def _slices(doc):
    return {"m": len(doc["slices"]), "n": len(doc["slices"][0]),
            "slices": [[[_canonical(c) for c in row] for row in s]
                       for s in doc["slices"]]}


def _distribution(doc):
    return {"probs": [_canonical(p) for p in doc["probs"]],
            "support": doc["support"]}


# name: (argv without the file, a valid document, its required keys, the
# normalised document, and the document the report echoes)
LOADERS = {
    "tensor": (
        ["tensor", "kron", "--power", "1", "--tensor"],
        Tensor3((2, 1, 2), {(0, 0, 0): Fraction(1, 2), (1, 0, 1): -3},
                (["a", "b"], ["u"], ["p", "q"])).doc(),
        {"dims", "entries"}, _tensor,
        lambda report: report["inputs"]["tensor"]),
    "blocking": (
        ["sweet", "tight", "--tensor", "cw:3", "--blocking"],
        cw_blocking(3).doc(), {"labels"}, lambda doc: doc,
        lambda report: report["inputs"]["blocking"]),
    "distribution": (
        ["sweet", "marginals", "--tensor", "cw:3", "--blocking", "cw",
         "--dist"],
        BlockDistribution(CW_LARGE, [Fraction(1, 2), Fraction(1, 3),
                                     Fraction(1, 6)]).doc(),
        {"support", "probs"}, _distribution,
        lambda report: report["inputs"]["dist"]),
    "weights": (
        ["sweet", "degenerate", "--tensor", "group:3", "--blocking", "cw",
         "--weights"],
        {"weights": [[0, 1, 2], [0, 1, 2], [0, -1, -2]]}, {"weights"},
        lambda doc: doc,
        lambda report: {"weights": report["inputs"]["weights"]}),
    "slices": (
        ["tensor", "make", "atk", "--slices"],
        PartiallySymmetricTensor([[[1, Fraction(1, 2)],
                                   [Fraction(1, 2), 0]]]).doc(),
        {"slices"}, _slices,
        lambda report: report["inputs"]["slices"]),
}


def _nodes(doc, path=()):
    """(path, value) of every node of a JSON document, the root first."""
    yield path, doc
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        items = ()
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _replaced(doc, path, value):
    """A copy of doc with the node at path replaced by value, or deleted
    when value is DELETE."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@st.composite
def _mutations(draw, doc):
    """(path, new value or DELETE, how): one node of doc changed."""
    path, value = draw(st.sampled_from(list(_nodes(doc))))
    ways = ["wrong type"]
    if path and isinstance(path[-1], str):
        ways.append("delete")
    if type(value) is int:
        ways.append("int")
    if isinstance(value, str) and _rational(value):
        ways.append("rational")
    how = draw(st.sampled_from(ways))
    if how == "wrong type":
        new = draw(st.sampled_from(WRONG_TYPES))
    elif how == "delete":
        new = DELETE
    elif how == "int":
        new = draw(st.integers(-2, 4).filter(lambda x: x != value))
    else:
        new = str(draw(st.fractions(-2, 2, max_denominator=4).filter(
            lambda x: x != Fraction(value))))
    return path, new, how


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_each_loader_reads_its_valid_document(tmp_path, name):
    argv, doc, _, normalise, echoed = LOADERS[name]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(argv + [f"@{path}"])
    assert (code, err) == (0, "")
    assert echoed(json.loads(out)) == normalise(doc) == doc


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_mutated_document_is_refused_with_its_file_or_read_as_written(
        tmp_path, name, data):
    argv, doc, required, normalise, echoed = LOADERS[name]
    node, new, how = data.draw(_mutations(doc))
    mutated = _replaced(doc, node, new)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(mutated))
    code, out, err = _run(argv + [f"@{path}"])
    assert code in (0, 2), (out, err)
    malformed = (
        (how == "wrong type"
         and not (name == "tensor" and node == ("labels",) and new is None))
        or (how == "delete" and node[-1] in required))
    if malformed:
        assert code == 2 and out == ""
        assert err.startswith(f"error: malformed document {path}: "), err
    elif code == 0:
        assert echoed(json.loads(out)) == normalise(mutated)
    else:
        assert out == "" and err.startswith("error: ")
