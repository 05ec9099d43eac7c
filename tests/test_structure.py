"""The package's structure, read from its source with ast alone.

CERTIFIERS is the one statement of which route certifies which; the walk
over the package's reference graph keeps every certifier apart from the
routes it checks, keeps every comparator meeting both of its routes, and
keeps numpy out of the exact functions.  Every public definition must have
a caller.  Nothing here imports numpy or the package.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "nilcone"
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


# Public definitions with no reference in src/nilcone outside their own
# definition, each with the reason it stays.
_NO_CALLER = {
    "cli.main": "CLI entry: the nilcone console script of pyproject.toml",
    "characters.Character.stretch": "wrapped by name in bench/tracing.py METHODS",
    "oracle.TestFunction.mul_poly": "wrapped by name in bench/tracing.py METHODS",
    "oracle.TestFunction.value": "wrapped by name in bench/tracing.py METHODS",
    "solver.change_of_basis": "called by the local_fresh workload of bench/workloads.py",
    "transversal.radial_mn": "test reference operator: acceptance criterion 7",
}


def _references(node) -> Counter:
    """What node reads by name: ("name", x) per bare name x, ("attr", x) per
    attribute access .x."""
    return Counter(("attr", n.attr) if isinstance(n, ast.Attribute) else ("name", n.id)
                   for n in ast.walk(node) if isinstance(n, (ast.Attribute, ast.Name)))


def test_every_public_definition_has_a_caller():
    # a module-level function is referenced by name or as an attribute, a
    # method as an attribute; a reference inside the definition itself does
    # not count, so dead code fails here instead of waiting for a review
    everywhere = sum(map(_references, TREES.values()), Counter())
    defined, orphans = set(), set()
    for module, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                members = [(node.name, node, ("name", "attr"))]
            elif isinstance(node, ast.ClassDef):
                members = [(f"{node.name}.{item.name}", item, ("attr",)) for item in node.body
                           if isinstance(item, ast.FunctionDef)]
            else:
                continue
            for qualname, item, kinds in members:
                if any(part.startswith("_") for part in qualname.split(".")):
                    continue
                defined.add(f"{module}.{qualname}")
                inside = _references(item)
                if all(everywhere[kind, item.name] == inside[kind, item.name] for kind in kinds):
                    orphans.add(f"{module}.{qualname}")
    assert orphans <= _NO_CALLER.keys(), sorted(orphans - _NO_CALLER.keys())
    assert _NO_CALLER.keys() <= defined, sorted(_NO_CALLER.keys() - defined)
