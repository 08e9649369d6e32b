"""Source hygiene of the package, read with the stdlib ``ast`` module: no
module imports a name it never uses, every module-level private function,
class or constant is referenced somewhere in the package besides its own
definition, every public module-level function is exported or referenced
likewise, size refusals go through ``limits.check``, which reads each limit
when it runs and names a lever the README cap table lists, certify builds a
graph only through ``_Measured`` and the CLI only in ``build``, only
``certify.run_sweep`` names multiprocessing, concurrent.futures or os.fork,
the measuring modules do not import the graph module, and every import is
the standard library, the package itself or a declared dependency.  The
test oracles in ``tests/bruteforce.py`` import the standard library alone,
and no module in ``tests/`` shares its name with one in ``perfbench/``."""

import ast
import pathlib
import re
import sys
from collections import Counter

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "ramseyforge"
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def _imported_names(tree):
    """Names bound by the module's import statements, with their line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _references(tree) -> Counter:
    """Every use of a name in a tree: loaded names, attributes, imported names."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


@pytest.mark.parametrize("module", [name for name in TREES if name != "__init__.py"])
def test_no_unused_imports(module):
    # __init__.py is exempt: its imports are the package's re-exports
    tree = TREES[module]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree) if name not in used]
    assert not unused, f"{module} imports names it never uses: {unused}"


def _defined_names(node):
    """Names a module-level statement defines: a function or class, or the
    plain-name targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [target.id for target in node.targets if isinstance(target, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def test_every_private_definition_is_referenced():
    refs = sum((_references(tree) for tree in TREES.values()), Counter())
    orphans = []
    for module, tree in TREES.items():
        for node in tree.body:
            for name in _defined_names(node):
                if name.startswith("__") or not name.startswith("_"):
                    continue
                # uses inside the definition itself (recursion, the assigned
                # name) do not count
                if refs[name] - _references(node)[name] <= 0:
                    orphans.append(f"{module}:{node.lineno} {name}")
    assert not orphans, f"private definitions nothing refers to: {orphans}"


# Public functions the package neither exports nor calls, kept on purpose.
UNREFERENCED_ON_PURPOSE = {
    # leaves with its entry in the benchmark's list of traced functions, which
    # only a change to the benchmark may edit
    ("algebra.py", "modular_sqrts"),
}


def test_every_public_function_is_exported_or_referenced():
    exported = {name for name, _ in _imported_names(TREES["__init__.py"])}
    refs = sum((_references(tree) for name, tree in TREES.items() if name != "__init__.py"), Counter())
    orphans = set()
    for module, tree in TREES.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or node.name.startswith("_"):
                continue
            # uses inside the definition itself (recursion) do not count
            if node.name not in exported and refs[node.name] - _references(node)[node.name] <= 0:
                orphans.add((module, node.name))
    # an entry that is exported, referenced or gone leaves the list as well
    assert orphans == UNREFERENCED_ON_PURPOSE, (
        f"public functions neither exported nor referenced: {sorted(orphans)}; "
        f"kept on purpose: {sorted(UNREFERENCED_ON_PURPOSE)}"
    )


@pytest.mark.parametrize("module", [name for name in TREES if name != "limits.py"])
def test_only_limits_raises_size_refusals(module):
    # every cap refuses through limits.check, so each message names its lever
    raises = [
        f"line {node.lineno}"
        for node in ast.walk(TREES[module])
        if isinstance(node, ast.Raise) and node.exc is not None
        and any(isinstance(n, ast.Name) and n.id in ("TooLarge", "SizeLimitExceeded") for n in ast.walk(node.exc))
    ]
    assert not raises, f"{module} raises a size refusal outside limits.check: {raises}"


@pytest.mark.parametrize("module", list(TREES))
def test_no_default_reads_a_limit(module):
    # a default is evaluated once, at import, so setting the limit later would not move it
    reads = []
    for node in ast.walk(TREES[module]):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for default in node.args.defaults + [d for d in node.args.kw_defaults if d is not None]:
                if any(
                    isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "limits"
                    for n in ast.walk(default)
                ):
                    reads.append(f"line {node.lineno} {getattr(node, 'name', 'lambda')}")
    assert not reads, f"{module} reads a limit in a default value: {reads}"


def _cap_table_levers() -> set:
    """Lever names from the first column of the README cap table."""
    readme = (PACKAGE.parent.parent / "README.md").read_text()
    rows = [line for line in readme.splitlines() if line.startswith("| `")]
    assert rows, "the README has no cap table"
    return {row.split("`")[1].removeprefix("limits.") for row in rows}


def test_every_checked_lever_has_a_readme_row():
    # a cap added to limits.check without a row would refuse with a lever the
    # README never names
    levers, unnamed = set(), []
    for module, tree in TREES.items():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "check"
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "limits"
            ):
                first = node.args[0] if node.args else None
                if isinstance(first, ast.Constant) and isinstance(first.value, str):
                    levers.add(first.value)
                else:
                    unnamed.append(f"{module}:{node.lineno}")
    assert not unnamed, f"limits.check calls whose lever is not a string literal: {unnamed}"
    assert levers, "no limits.check call found"
    missing = sorted(levers - _cap_table_levers())
    assert not missing, f"levers checked in the package with no README cap table row: {missing}"


def test_neighbor_entry_limit_guards_builds_only():
    # MAX_NEIGHBOR_ENTRIES bounds the (n, d) neighbour matrix a Cayley
    # builder allocates; the measures read CSR lists and columns, which are
    # the graph's own size, so no other module may name the lever
    naming = {
        module for module, tree in TREES.items() if module != "limits.py" and any(
            (isinstance(node, ast.Constant) and node.value == "MAX_NEIGHBOR_ENTRIES")
            or (isinstance(node, ast.Attribute) and node.attr == "MAX_NEIGHBOR_ENTRIES")
            for node in ast.walk(tree)
        )
    }
    assert naming == {"graphs.py"}, f"modules naming MAX_NEIGHBOR_ENTRIES: {sorted(naming)}"


_BUILDERS = {"build_family", "build_euclidean", "build_non_euclidean", "build_code_graph_bch",
             "build_code_graph_alon", "_cayley_graph"}


def _names_a_builder(node) -> bool:
    return (isinstance(node, ast.Name) and node.id in _BUILDERS) or (
        isinstance(node, ast.Attribute) and node.attr in _BUILDERS
    )


def _names_a_process_api(node) -> bool:
    """An import of multiprocessing or concurrent.futures, a use of either,
    or os.fork."""
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] in ("multiprocessing", "concurrent") for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return module.split(".")[0] in ("multiprocessing", "concurrent") or (
            module == "os" and any(alias.name == "fork" for alias in node.names)
        )
    if isinstance(node, ast.Name):
        return node.id in ("multiprocessing", "concurrent")
    return isinstance(node, ast.Attribute) and node.attr == "fork" and (
        isinstance(node.value, ast.Name) and node.value.id == "os"
    )


def _named_outside(module: str, owner: str, names) -> list:
    """The lines of ``module`` with a node for which ``names`` holds outside
    its one top-level definition ``owner``; fails if no node inside it does."""
    tree = TREES[module]
    owners = [node for node in tree.body if getattr(node, "name", None) == owner]
    assert len(owners) == 1
    inside = {id(node) for node in ast.walk(owners[0])}
    assert any(names(node) for node in ast.walk(owners[0])), f"nothing in {owner} of {module} matches {names.__name__}"
    return [f"line {node.lineno}" for node in ast.walk(tree) if names(node) and id(node) not in inside]


def test_certify_builds_graphs_only_inside_measured():
    # a certificate builds a family graph only when an exact oracle asks
    # _Measured for one; a builder named anywhere else in certify would be
    # an eager build that the distance-class quotients made unnecessary.
    # _Measured builds through graphs._cayley_graph, from its own S
    outside = _named_outside("certify.py", "_Measured", _names_a_builder)
    assert not outside, f"certify names a graph builder outside _Measured: {outside}"


def test_cli_builds_graphs_only_in_the_build_command():
    # stats reads the certificate record and spectrum the connection set;
    # only the build command exports a graph, so only it builds one
    outside = _named_outside("cli.py", "_cmd_build", _names_a_builder)
    assert not outside, f"cli names a graph builder outside _cmd_build: {outside}"


def test_only_run_sweep_starts_processes():
    # the sweep forks its workers lazily, inside run_sweep: importing the
    # pool costs every command about 10 ms, and a forked process elsewhere
    # would copy whatever threads and state its caller holds
    found = [f"certify.py {line}" for line in _named_outside("certify.py", "run_sweep", _names_a_process_api)]
    for module, tree in TREES.items():
        if module != "certify.py":
            found += [f"{module} line {node.lineno}" for node in ast.walk(tree) if _names_a_process_api(node)]
    assert not found, f"process APIs named outside certify.run_sweep: {found}"


def _imports_graphs(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[-1] == "graphs" or any(a.name == "graphs" for a in node.names)
    return isinstance(node, ast.Import) and any(a.name.split(".")[-1] == "graphs" for a in node.names)


@pytest.mark.parametrize("module", ["exactmetrics.py", "spectral.py"])
def test_measures_import_nothing_from_graphs(module):
    # exact and spectral measures take arrays and built graphs, never family
    # specs, so graphs sits above them and the quotient walk reads only arrays
    found = [f"line {node.lineno}" for node in ast.walk(TREES[module]) if _imports_graphs(node)]
    assert not found, f"{module} imports from graphs: {found}"


def test_every_import_is_stdlib_the_package_or_a_declared_dependency():
    # an undeclared import (scipy is often installed but is not declared)
    # would fail only where it is missing
    tomllib = pytest.importorskip("tomllib")
    with open(PACKAGE.parent.parent / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    allowed = set(sys.stdlib_module_names) | {"ramseyforge"}
    allowed |= {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_") for dep in declared}
    found = []
    for module, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{module}:{node.lineno} {name}" for name in names if name.split(".")[0] not in allowed]
    assert not found, f"imports outside the stdlib, the package and [project] dependencies: {found}"


def test_bruteforce_oracles_import_only_the_standard_library():
    # an oracle that imported the package could share the code of the route
    # it is compared against, and agree with it on the same mistake
    found = []
    for node in ast.walk(ast.parse((TESTS / "bruteforce.py").read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = ["." * node.level + (node.module or "")]  # a relative import starts with "."
        else:
            continue
        found += [
            f"line {node.lineno} {name}" for name in names if name.split(".")[0] not in sys.stdlib_module_names
        ]
    assert not found, f"bruteforce.py imports outside the standard library: {found}"


def test_no_test_module_shares_a_name_with_a_benchmark_module():
    # pytest puts tests/ and perfbench/ on sys.path in one session, so a
    # shared name imports whichever module loaded first in both places
    names = {path.name for path in TESTS.glob("*.py")}
    shared = sorted(names & {path.name for path in (TESTS.parent / "perfbench").glob("*.py")})
    assert not shared, f"modules in both tests/ and perfbench/: {shared}"
