"""Dead-API guard: every public name in src is used by src.

A public function, class, constant, method or property that only the tests
reach is API that nothing needs.  Module-level names and the methods and
properties of module-level classes are checked.  References are counted from
the syntax tree (names, attributes and imports, never strings), and a
reference inside the name's own definition does not count; for a method, that
is the method and its class.
"""

import ast
from pathlib import Path

import disciter

SRC = Path(disciter.__file__).parent

# Public names that src does not use, each kept for a stated reason.
ALLOWED = {
    "bergman_bounds": "the plain oracle that test_matches_plain_bounds_at_small_n "
                      "compares norm_bound_series against",
    "curve_qg_check": "checks the abstract's qg-iff-non-tangential claim on "
                      "trajectories; the semigroup-fication work applies it to phi_t",
    "ModelMap.chart": "read only by bench/tracing.py's is_blackbox; goes with "
                      "benchmark contract v2",
    "OrbitRecord.log_julia_quotient": "the tests read it; the custom-map check "
                                      "on the ROADMAP plans to",
}


def _defined(stmt):
    """Public names bound by a module-level statement."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return [n for n in names if not n.startswith("_")]


def _referenced(stmt):
    """Identifiers a statement reads, through names, attributes or imports."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def _units(stmt):
    """(public qualified names, own names, references) of each definition
    unit of a module-level statement: a class gives one unit for its body
    outside its methods and one per method."""
    names = _defined(stmt)
    if not isinstance(stmt, ast.ClassDef):
        yield names, set(names), _referenced(stmt)
        return
    methods = [node for node in stmt.body if isinstance(node, ast.FunctionDef)]
    rest = [node for node in ast.iter_child_nodes(stmt) if node not in methods]
    yield names, set(names), set().union(*map(_referenced, rest))
    for method in methods:
        public = [] if method.name.startswith("_") else [f"{stmt.name}.{method.name}"]
        yield public, {stmt.name, method.name}, _referenced(method)


def _scan():
    """(module, qualified name) of every public definition, and the own names
    and references of each definition unit."""
    definitions, references = [], []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            for names, own, refs in _units(stmt):
                definitions += [(path.stem, name) for name in names]
                references.append((own, refs))
    return definitions, references


def _used(name, references):
    """Whether a unit other than the name's own definition reads it."""
    return any(name in refs and name not in own for own, refs in references)


def test_every_public_name_is_used_by_src():
    definitions, references = _scan()
    unused = sorted(f"{module}.{name}" for module, name in definitions
                    if name not in ALLOWED and not _used(name.rpartition(".")[2], references))
    assert not unused, f"public names only tests reach: {unused}"
    stale = set(ALLOWED) - {name for _, name in definitions}
    assert not stale, f"allowlisted names src no longer defines: {sorted(stale)}"
