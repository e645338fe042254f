"""Dead-API guard: every public module-level name in src is used by src.

A public function, class or constant that only the tests reach is API that
nothing needs.  References are counted from the syntax tree (names,
attributes and imports, never strings), and a reference inside the name's
own definition does not count.
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
    "DISC": "the disc descriptor, the reference domain of the descriptor tests",
    "RIGHT_HALF_PLANE": "the right half-plane descriptor, used by the distance "
                        "lemma and descriptor tests",
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


def _scan():
    """(module, name) of every public definition, and each statement's references."""
    definitions, references = [], []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            names = _defined(stmt)
            definitions += [(path.stem, name) for name in names]
            references.append((set(names), _referenced(stmt)))
    return definitions, references


def test_every_public_name_is_used_by_src():
    definitions, references = _scan()
    unused = sorted(f"{module}.{name}" for module, name in definitions
                    if name not in ALLOWED
                    and not any(name in refs and name not in own for own, refs in references))
    assert not unused, f"public names only tests reach: {unused}"
    stale = set(ALLOWED) - {name for _, name in definitions}
    assert not stale, f"allowlisted names src no longer defines: {sorted(stale)}"
