"""Source hygiene of the package."""
from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "apolarium"


def _unused_imports(path: Path):
    """Module-level imported names that the module never reads; a line
    marked ``# noqa`` is a deliberate re-export."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa" in lines[node.end_lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert _unused_imports(path) == []


def _absolute_imports(node):
    """The top-level package of each absolute import in an import node."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module.split(".")[0]]
    return []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    # dataclasses pulls in inspect, ast, dis and tokenize, which every CLI
    # child would compile; the records are NamedTuples
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert not any("dataclasses" in _absolute_imports(node)
                   for node in ast.walk(tree))


def _import_time_imports(tree):
    """The import statements that run when the module is imported: those
    outside function bodies and ``if TYPE_CHECKING:`` blocks."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif (isinstance(node, ast.If)
              and ast.unparse(node.test) == "TYPE_CHECKING"):
            todo.extend(node.orelse)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def _eager_imports(path: Path):
    """The package modules, but guards, and the packages outside the
    standard library that importing the module at path imports."""
    eager = []
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in _import_time_imports(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = ([node.module] if node.module
                     else [alias.name for alias in node.names])
            eager += [name for name in names if name != "guards"]
        else:
            eager += [name for name in _absolute_imports(node)
                      if name not in sys.stdlib_module_names]
    return eager


# the command line, its runner modules and the reference suite: each runner
# and each suite entry imports the library modules it calls, so a command
# loads only what it runs
LAZY = ("cli.py", "cli_poly.py", "cli_tensor.py", "papersuite.py")


def test_the_cli_imports_only_the_standard_library_and_guards():
    assert {name: _eager_imports(SRC / name) for name in LAZY} == {
        name: [] for name in LAZY}


# Public API that nothing in the package reads, kept on purpose; a method is
# named with its class.  The four first wait for the tracer's rewrite, ROADMAP
# item 1, to leave src/ for tests/oracles.py: the benchmark's tracer and
# self-test name SparseEchelon and its insert, and its workloads build with
# Poly.zero.  The benchmark's sweet tasks also label their inputs with the
# JSON text of a tensor and a blocking.
TEST_ONLY_API = {
    # the incremental elimination over Q that the tests check the modular
    # answers against
    "SparseEchelon",
    "SparseEchelon.insert",
    "SparseEchelon.contains",
    # the zero polynomial, which the tests and the benchmark workloads
    # build with
    "Poly.zero",
    # json.dumps(doc(), sort_keys=True), which the benchmark workloads read
    "Tensor3.to_json",
    "Blocking.to_json",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names_read(node, own):
    """The names that the ``Name`` and ``Attribute`` nodes under node read,
    a name in own, or a definition's name inside that definition, aside."""
    read = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, DEFINITIONS):
            read |= _names_read(child, own | {child.name})
            continue
        name = (child.id if isinstance(child, ast.Name)
                else child.attr if isinstance(child, ast.Attribute)
                else None)
        if name is not None and name not in own:
            read.add(name)
        read |= _names_read(child, own)
    return read


def _unread_definitions():
    """(module, name) of each top-level function and class of the package,
    and as Class.method of each method of a top-level class (the dunders,
    which Python calls, aside), that no AST ``Name`` or ``Attribute`` in
    the package reads outside the definition itself."""
    defined, read = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read |= _names_read(tree, frozenset())
        for node in tree.body:
            if isinstance(node, DEFINITIONS):
                defined.add((path.name, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                defined |= {(path.name, f"{node.name}.{m.name}", m.name)
                            for m in node.body
                            if isinstance(m, DEFINITIONS[:2])
                            and not (m.name.startswith("__")
                                     and m.name.endswith("__"))}
    return sorted((module, name) for module, name, bare in defined
                  if bare not in read)


def test_every_definition_is_read():
    assert [(module, name) for module, name in _unread_definitions()
            if name not in TEST_ONLY_API] == []


def test_test_only_api_is_defined_and_unread():
    # an entry whose definition goes, or that gains a reader, leaves the set
    assert TEST_ONLY_API <= {name for _, name in _unread_definitions()}


def test_the_tests_take_the_scalars_from_scalars():
    # exact binds rat and Rat for its own rows only; a test that read them
    # from there would keep them bound after the last library reader goes
    taken = []
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom)
                    and node.module == "apolarium.exact"):
                taken += [(path.name, alias.name) for alias in node.names
                          if alias.name in ("rat", "Rat")]
    assert taken == []


def _public_definitions(path: Path):
    """The top-level functions, classes and assigned names of a module that
    do not start with an underscore, sorted."""
    names = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names.append(node.target.id)
    return sorted(name for name in names if not name.startswith("_"))


def test_exact_takes_and_returns_sparse_rows_only():
    # no dense routine: no dense rank, kernel, solve, echelon form or matrix
    # type comes in or back
    assert _public_definitions(SRC / "exact.py") == sorted([
        "MODULUS", "PRIMES", "SparseEchelon", "SparseRow", "SparseVec",
        "independent_rows", "solve_many", "sparse_kernel", "sparse_rank"])


def test_the_scalars_are_the_rationals_and_checked_ints():
    # the modules that take numbers and documents from outside input import
    # these without the elimination engine
    assert _public_definitions(SRC / "scalars.py") == ["Rat", "as_int",
                                                       "as_list", "rat"]


def _readers_of(name, kind=ast.Attribute):
    """(module, dotted name of the enclosing definition) of each read of
    ``name`` in the package: as an attribute, ``x.name``, or with kind
    ``ast.Name``, as a bare name."""
    field = "attr" if kind is ast.Attribute else "id"
    readers = set()

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, kind) and getattr(child, field) == name:
                readers.add((path.name, ".".join(scope)))
            visit(child, path, inner)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, ())
    return readers


def test_only_the_kronecker_walks_skip_the_entry_checks():
    # Tensor3._derived stores a dict without checking its entries; only the
    # walk over a factor that has just been validated may hand it one, so
    # anything built from outside input goes through Tensor3.__init__
    assert _readers_of("_derived") == {("tensor3.py", "_restricted_power")}


def test_only_poly_results_skip_the_term_checks():
    # Poly._trusted stores a term dict without checking it; only results
    # that poly.py computes from checked Polys, with cancelled terms
    # dropped, may hand it one, so every other Poly goes through __init__
    assert _readers_of("_trusted") == {("poly.py", name) for name in (
        "Poly.graded_part", "Poly.truncate", "Poly.__add__", "Poly.__neg__",
        "Poly.__mul__", "Poly.__pow__", "_unpacked", "apply", "twist",
        "dehomogenize", "homogenize")}


def test_one_builder_walks_the_divisors():
    # every partials matrix is read off the column stream: the walk over
    # the divisors of a term is called from it alone
    assert _readers_of("_bounded", ast.Name) == {
        ("apolar.py", "_divisor_columns")}
    assert _readers_of("_bounded") == set()


def test_one_walk_builds_kronecker_words():
    # the Kronecker power and the sweet projections spend their budgets in
    # one walk over entry words, with no second enumeration beside it
    assert _readers_of("_restricted_power", ast.Name) == {
        ("tensor3.py", "kronecker_power"), ("sweet.py", "_project")}
    assert _readers_of("_restricted_power") == set()


def test_sweet_knows_the_walk_only_through_its_builder():
    # the format of the walk (parts, slot lists, positions) stays behind
    # tensor3: sweet.py imports no private name of it but the builder, nor
    # the module itself
    tree = ast.parse((SRC / "sweet.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            names |= {alias.name if module[-1] == "tensor3" else "module"
                      for alias in node.names
                      if "tensor3" in module + [alias.name]}
        elif isinstance(node, ast.Import):
            names |= {"module" for alias in node.names
                      if "tensor3" in alias.name.split(".")}
    assert names == {"Tensor3", "_restricted_power"}


def test_one_memo_builds_the_kept_sequences():
    # each constrained axis's kept index sequences are read off one table
    # of tails per remaining budget, built by _tails for _kept_sequences
    # alone (and by itself, one budget shorter), with no walk over
    # prefixes beside it
    assert _readers_of("_tails", ast.Name) == {
        ("sweet.py", "_kept_sequences"), ("sweet.py", "_tails")}
    assert _readers_of("_tails") == set()
    sweet = ast.parse((SRC / "sweet.py").read_text(encoding="utf-8"))
    assert "_spend_budget" not in {node.name for node in sweet.body
                                   if isinstance(node, ast.FunctionDef)}
    assert _readers_of("_spend_budget", ast.Name) == set()


def test_one_partition_groups_by_label_triple():
    # a sweet piece's report groups its entries through support_blocks,
    # not by loops of its own, and no piece carries a list of label
    # sequences beside its kept ones
    assert ("sweet.py", "sweet_piece_report") in _readers_of(
        "support_blocks", ast.Name)
    assert _readers_of("label_seqs") == set()


def test_json_text_is_read_and_written_only_at_the_edges():
    # each report is dumped once from the dicts its runner built: an @file
    # is parsed in one place, --out text is written in one, and the library
    # types hand out documents, not text, but for the two strings the
    # benchmark reads
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not [node for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    and node.module == "json"], path.name
    assert {name: _readers_of(name)
            for name in ("load", "loads", "dump", "dumps")} == {
        "load": {("cli_tensor.py", "_load_file")},
        "loads": set(),
        "dump": set(),
        "dumps": {("cli.py", "_emit"), ("cli_tensor.py", "_maybe_write"),
                  ("tensor3.py", "Tensor3.to_json"),
                  ("sweet.py", "Blocking.to_json")},
    }


def test_one_rank_certificate_bounds_the_elimination():
    # every rank and greedy basis is certified by _greedy, and every kernel
    # by _kernel_mod_primes, on the one elimination mod a prime, each
    # giving it its column count; that elimination alone back-substitutes,
    # at the end of its rows or where the kernel takes over
    assert _readers_of("_echelon_mod_p", ast.Name) == {
        ("exact.py", "_greedy"), ("exact.py", "_kernel_mod_primes")}
    assert _readers_of("_echelon_mod_p") == set()
    assert _readers_of("_back_substitute", ast.Name) == {
        ("exact.py", "_echelon_mod_p")}
    assert _readers_of("_back_substitute") == set()


def test_structural_pivots_give_ranks_only():
    # a peeled pivot gives the rank, not which keys are greedy, so the
    # greedy rows, bases and Hilbert functions never see one
    assert _readers_of("_peel", ast.Name) == {("exact.py", "sparse_rank")}
    assert _readers_of("_peel") == set()


def _definitions_holding(text):
    """(module, dotted name of the enclosing definition) of each string
    constant of the package that contains text, f-string parts included."""
    holders = set()

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = scope + (child.name,)
            elif (isinstance(child, ast.Constant)
                  and isinstance(child.value, str) and text in child.value):
                holders.add((path.name, ".".join(scope)))
            visit(child, path, inner)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, ())
    return holders


def test_one_function_names_a_malformed_document():
    # the constructors check a document's values and _load_file alone turns
    # any refusal into one that names the file, so no reader raises a
    # chosen exception type to get the file named
    assert _definitions_holding("malformed document") == {
        ("cli_tensor.py", "_load_file")}
    sweet = ast.parse((SRC / "sweet.py").read_text(encoding="utf-8"))
    assert "_doc_label" not in {node.name for node in sweet.body
                                if isinstance(node, ast.FunctionDef)}
    assert _readers_of("_doc_label", ast.Name) == set()


def test_the_cli_sets_limits_and_charges_nothing():
    # poly.parse checks the forms that the commands read, and the library
    # the work that they ask for; the command line only sets the limits
    checks = ("check_terms", "check_degree", "check_entries")
    assert {reader for name in checks for kind in (ast.Attribute, ast.Name)
            for reader in _readers_of(name, kind)
            if reader[0] in ("cli.py", "cli_poly.py", "cli_tensor.py")
            } == set()


def test_products_and_powers_charge_their_own_terms():
    # one function predicts the terms of a product or power, and only the
    # product and the power ladder read it, so a typed product is charged
    # as a computed one
    assert _readers_of("_charge_terms", ast.Name) == {
        ("poly.py", "Poly.__mul__"), ("poly.py", "_power_ladder")}
    assert _readers_of("_charge_terms") == set()
    poly = ast.parse((SRC / "poly.py").read_text(encoding="utf-8"))
    (parser,) = [node for node in poly.body
                 if isinstance(node, ast.ClassDef) and node.name == "_Parser"]
    assert "charge" not in {node.name for node in parser.body
                            if isinstance(node, ast.FunctionDef)}
    assert _readers_of("charge") == set()


def test_one_ladder_raises_powers():
    # Poly.__pow__ and the main theorem's twisted power share one
    # square-and-multiply on packed int terms, and one charge before it
    assert _readers_of("_power_ladder", ast.Name) == {
        ("poly.py", "Poly.__pow__"), ("poly.py", "_scaled_twisted_power")}
    assert _readers_of("_power_ladder") == set()
    assert _readers_of("_times", ast.Name) == {
        ("poly.py", "Poly.__mul__"), ("poly.py", "_power_ladder")}


def test_the_tensor_runners_import_nothing_from_the_poly_runners():
    tree = ast.parse((SRC / "cli_tensor.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module or ""} | {alias.name
                                               for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert not {name for name in imported
                if "cli_poly" in name.split(".")}
