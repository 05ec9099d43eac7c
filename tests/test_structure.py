"""The package's structure, read from its source with ast alone.

CERTIFIERS is the one statement of which route certifies which; the walk
over the package's reference graph keeps every certifier apart from the
routes it checks, keeps every comparator meeting both of its routes, and
keeps numpy out of the exact functions.  The same walk reaches every
definition from the entry points that the code entering the package
states: pyproject.toml, bench/workloads.py and bench/tracing.py, read as
text.  Nothing here imports numpy, the package or bench.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "nilcone"
TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}

# Each production route and the independent routes that certify it.
CERTIFIERS = {
    "solver.kernel_basis": ("solver._kernel_by_elimination",),
    "solver.casimir_orbit": ("solver._orbit_by_iteration",),
    "characters.invariant_dim": ("characters.sym_power", "characters.decompose_into_irreducibles",
                                 "characters._brute_adjoint_pieces"),
}
# Each comparator and the two routes it runs side by side.
COMPARATORS = {
    "solver.change_of_basis": ("solver.kernel_basis", "solver._orbit_by_iteration"),
    "solver.classify_square_finite_supported": ("solver.kernel_basis",
                                                "solver._kernel_by_elimination"),
    "characters.graded_dims_report": ("characters.invariant_dim",
                                      "characters._brute_adjoint_pieces"),
}
# The exact functions: every definition of these modules, and the
# TestFunction construction, algebra and flows of the oracle.  The numcheck
# command hands its arguments to the oracle's float batteries at
# FLOAT_BOUNDARY, where the walk for numpy stops.
EXACT_MODULES = ("__init__", "sl2", "transversal", "solver", "characters", "cli")
EXACT_ORACLE = tuple(f"oracle.TestFunction.{name}" for name in (
    "__init__", "__hash__", "__eq__", "gaussian", "diff", "mul_poly", "casimir", "__add__",
    "__rmul__")) + ("oracle.lie_derivative", "oracle._lie_flows")
FLOAT_BOUNDARY = "cli._numcheck"
NUMPY = "oracle.np"


def _definitions():
    """Each definition as (qualified name, node): module-level functions,
    classes' methods and module-level assignments, the last standing for the
    expression assigned."""
    for module, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                yield f"{module}.{node.name}", node
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield f"{module}.{node.name}.{item.name}", item
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        yield f"{module}.{target.id}", node.value


DEFINITIONS = dict(_definitions())
METHODS = {}    # method name -> every method of that name
for _qualname in DEFINITIONS:
    if _qualname.count(".") == 2:
        METHODS.setdefault(_qualname.rsplit(".", 1)[1], []).append(_qualname)


def _namespace(module):
    """What a bare name means in module: a definition, a class (its
    __init__), a name imported with `from .x import`, or a module imported
    with `from . import`, the last as ("module", name)."""
    names = {}
    for node in TREES[module].body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                source = node.module or ("__init__" if alias.name not in TREES else None)
                names[alias.asname or alias.name] = (
                    ("module", alias.name) if source is None else ("import", source, alias.name))
        elif isinstance(node, ast.ClassDef):
            names[node.name] = ("def", f"{module}.{node.name}.__init__")
    names.update((q.split(".", 1)[1], ("def", q)) for q in DEFINITIONS
                 if q.startswith(module + ".") and q.count(".") == 1)
    return names


NAMESPACES = {module: _namespace(module) for module in TREES}


def _resolve(module, name):
    meaning = NAMESPACES[module].get(name)
    if meaning is None or meaning[0] == "module":
        return None
    if meaning[0] == "import":
        return _resolve(meaning[1], meaning[2])
    return meaning[1] if meaning[1] in DEFINITIONS else None


def _edges(qualname):
    """The definitions qualname reads.  A bare name resolves only through
    its module's namespace, and a parameter or locally bound name is
    skipped; mod.name resolves in mod when `from . import mod` brought it;
    any other .attr reaches every method of that name.  An operator such as
    a + b is no reference."""
    module, node = qualname.split(".", 1)[0], DEFINITIONS[qualname]
    nodes = list(ast.walk(node))
    bound = {n.arg for n in nodes if isinstance(n, ast.arg)}
    bound |= {n.id for n in nodes if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load)}
    bound |= {alias.asname or alias.name for n in nodes
              if isinstance(n, (ast.Import, ast.ImportFrom)) for alias in n.names}
    out = set()
    for n in nodes:
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id not in bound:
            out.add(_resolve(module, n.id))
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            owner = n.value.id if isinstance(n.value, ast.Name) else None
            meaning = NAMESPACES[module].get(owner) if owner not in bound else None
            if meaning and meaning[0] == "module":
                out.add(_resolve(meaning[1], n.attr))
            else:
                out.update(METHODS.get(n.attr, ()))
    out.discard(None)
    return out


EDGES = {qualname: _edges(qualname) for qualname in DEFINITIONS}


def _reach(start, stop=None):
    """Every definition start reaches by one reference or more, passing
    through no stop."""
    seen, todo = set(), [start]
    while todo:
        for target in EDGES[todo.pop()] - seen:
            seen.add(target)
            if target != stop:
                todo.append(target)
    return seen


def test_every_named_definition_exists():
    named = {FLOAT_BOUNDARY, NUMPY, *CERTIFIERS, *EXACT_ORACLE}
    named |= {name for names in (*CERTIFIERS.values(), *COMPARATORS.values()) for name in names}
    named |= COMPARATORS.keys()
    assert named <= DEFINITIONS.keys(), sorted(named - DEFINITIONS.keys())


def test_the_walk_resolves_names_by_scope():
    # Value._set's local `value` is no reference to TestFunction.value, but
    # TestFunction.value does reach numpy, so the numpy rule sees it there
    assert "oracle.TestFunction.value" not in _reach("__init__.Value._set")
    assert NUMPY in _reach("oracle.TestFunction.value")
    # cli reaches the engine through `from . import solver`, and the oracle's
    # batteries only through the numcheck command
    assert "solver.kernel_basis" in _reach("cli.main")
    assert FLOAT_BOUNDARY in _reach("cli.main")


@pytest.mark.parametrize("route", sorted(CERTIFIERS))
def test_a_route_reaches_none_of_its_certifiers(route):
    assert not _reach(route) & set(CERTIFIERS[route])


@pytest.mark.parametrize("route", sorted(CERTIFIERS))
def test_a_certifier_reaches_no_route_it_checks(route):
    # a route checks what it is built on: casimir_orbit walks the
    # kernel_basis chains, so its certifier may reach neither
    checked = {route} | (_reach(route) & CERTIFIERS.keys())
    for certifier in CERTIFIERS[route]:
        assert not _reach(certifier) & checked, certifier


@pytest.mark.parametrize("comparator", sorted(COMPARATORS))
def test_a_comparator_reaches_both_of_its_routes(comparator):
    assert set(COMPARATORS[comparator]) <= _reach(comparator)


def test_no_exact_function_reaches_numpy():
    exact = [qualname for qualname in DEFINITIONS
             if qualname.split(".", 1)[0] in EXACT_MODULES and qualname != FLOAT_BOUNDARY]
    assert not [qualname for qualname in exact + list(EXACT_ORACLE)
                if NUMPY in _reach(qualname, stop=FLOAT_BOUNDARY)]


def _entry_points():
    """The definitions entered from outside the package, read from the code
    that enters it: the console scripts of pyproject.toml, every definition
    whose name bench/workloads.py reads as an attribute, and each
    Class.method that bench/tracing.py METHODS wraps by name.  A definition
    named __x__ is called by the interpreter, or read by tools as
    __version__ is, so it is an entry point too, except __init__, which its
    class name reaches."""
    pyproject = (ROOT / "pyproject.toml").read_text()
    scripts = re.search(r"^\[project\.scripts\]$(.*?)(?=^\[|\Z)", pyproject, re.M | re.S)[1]
    entries = {f"{module}.{name}"
               for module, name in re.findall(r'"nilcone\.(\w+):(\w+)"', scripts)}
    tracing = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    traced = next(ast.literal_eval(node.value) for node in tracing.body
                  if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "METHODS" for t in node.targets))
    entries |= {f"{layer}.{cls}.{method}" for layer, classes in traced.items()
                for cls, methods in classes.items() for method in methods}
    workloads = ast.parse((ROOT / "bench" / "workloads.py").read_text())
    read = {n.attr for n in ast.walk(workloads)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    for qualname in DEFINITIONS:
        name = qualname.rsplit(".", 1)[1]
        if name in read or (re.fullmatch(r"__\w+__", name) and name != "__init__"):
            entries.add(qualname)
    return entries


ENTRY_POINTS = _entry_points()


def test_entry_points_are_read_from_the_code_that_enters_the_package():
    assert {"cli.main", "solver.change_of_basis", "solver.CasimirPolynomial.apply",
            "characters.Character.stretch", "oracle.TestFunction.mul_poly"} <= ENTRY_POINTS
    assert not [qualname for qualname in ENTRY_POINTS if qualname.endswith(".__init__")]
    # tracing's COUNTERS says how a traced call is counted, not what enters
    dead = {"d_dy", "radial_mn", "mul_y", "apply_endo", "zero"}
    assert not {qualname.rsplit(".", 1)[1] for qualname in ENTRY_POINTS} & dead


def test_every_definition_is_reached_from_an_entry_point():
    # private helpers and module constants too: a definition nothing
    # reaches is dead, or lives only for the tests and belongs in them
    reached = ENTRY_POINTS & DEFINITIONS.keys()
    for entry in list(reached):
        reached |= _reach(entry)
    assert not DEFINITIONS.keys() - reached, sorted(DEFINITIONS.keys() - reached)
