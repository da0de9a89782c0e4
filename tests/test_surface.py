"""Every public name in the package has a use outside tests, the package
root re-exports only names imported through it outside tests, every name a
package module imports is used in that module, no public function takes
a solution beside its contact sets or its multiplier split, the report
writers import no solver module, and importing the package leaves scipy's
quadrature, optimization and special-function packages unloaded.

Walks the syntax trees of src/, demos/ and perfbench/. Each public
top-level function and class of src/biobstacle, and each public method and
property of those classes, must be used somewhere outside its own
definition. A top-level name counts as used wherever it appears as a
name or as an attribute (``problems.random_instance``). A member counts as
used only as an attribute, and not where the attribute belongs to numpy or
scipy: neither a lookup on one of their modules (``np.zeros``) nor a name
that arrays and sparse matrices also carry (``matrix.diagonal()``), since
the receiver's type cannot be read off the tree. Dataclass fields are
results and are exempt. Imports are not uses.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "biobstacle"
SEARCHED = ("src", "demos", "perfbench")
ARRAY_ATTRIBUTES = frozenset(dir(np.ndarray)) | frozenset(dir(sp.csr_matrix))


def _trees() -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text())
            for folder in SEARCHED for path in sorted((ROOT / folder).rglob("*.py"))}


def _library_aliases(trees) -> set[str]:
    """Names that numpy and scipy modules are bound to anywhere."""
    aliases = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                aliases |= {a.asname or a.name.split(".")[0] for a in node.names
                            if a.name.split(".")[0] in ("numpy", "scipy")}
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.split(".")[0] in ("numpy", "scipy"):
                aliases |= {a.asname or a.name for a in node.names}
    return aliases


def _root_name(node: ast.expr) -> str | None:
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _uses(trees):
    """(word uses, member uses) as lists of (name, path, line)."""
    library = _library_aliases(trees)
    words, members = [], []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                words.append((node.id, path, node.lineno))
            elif isinstance(node, ast.Attribute):
                words.append((node.attr, path, node.lineno))
                if (_root_name(node.value) not in library
                        and node.attr not in ARRAY_ATTRIBUTES):
                    members.append((node.attr, path, node.lineno))
    return words, members


def _public_definitions(trees):
    """(qualified name, is member, path, first line, last line)."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            yield node.name, False, path, node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) \
                            and not member.name.startswith("_"):
                        yield (f"{node.name}.{member.name}", True, path,
                               member.lineno, member.end_lineno)


def test_every_public_name_is_used_outside_tests():
    trees = _trees()
    words, members = _uses(trees)
    unused = []
    for name, is_member, path, first, last in _public_definitions(trees):
        short = name.rsplit(".", 1)[-1]
        pool = members if is_member else words
        if not any(used == short and not (where == path and first <= line <= last)
                   for used, where, line in pool):
            unused.append(name)
    assert unused == [], f"public names that only tests reach: {unused}"


def test_every_root_export_is_imported_through_the_root():
    """Each name that __init__.py binds by ``from .module import name`` is
    imported through the root somewhere in src/, demos/ or perfbench/, as
    ``from biobstacle import name`` or ``biobstacle.name``. Types, builders
    and constants are imported from their modules."""
    trees = _trees()
    exported = {a.asname or a.name for node in trees[PACKAGE / "__init__.py"].body
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
                for a in node.names}
    through_root = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module == "biobstacle":
                through_root |= {a.name for a in node.names}
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id == "biobstacle":
                through_root.add(node.attr)
    unused = sorted(exported - through_root)
    assert unused == [], f"root re-exports that nothing imports through the root: {unused}"


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import of a module -> line of the import;
    ``from __future__`` imports bind nothing."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name.split(".")[0], node.lineno)
                         for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update((a.asname or a.name, node.lineno) for a in node.names)
    return names


def test_no_module_imports_a_name_it_does_not_use():
    """Deleting a function must not leave its imports behind. The package's
    __init__.py imports in order to re-export and is skipped."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in _imported_names(tree).items() if name not in used]
    assert unused == [], f"imports that the module never uses: {unused}"


def test_no_public_function_takes_a_solution_beside_its_sets():
    """A solution carries its contact sets (``BopSolution.sets``) and its
    multiplier split (``split_multiplier``), so no public function takes a
    ``SetPartition`` or a ``MultiplierSplit`` beside a ``BopSolution`` that
    either could be read off, and nothing has to check that the two belong
    together."""
    both = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            params = (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)
            annotated = {ast.unparse(p.annotation).strip("'\"")
                         for p in params if p.annotation is not None}
            if "BopSolution" in annotated and annotated & {"SetPartition", "MultiplierSplit"}:
                both.append(f"{path.name}:{node.lineno} {node.name}")
    assert both == [], f"functions that take a solution and its sets or split: {both}"


def test_reporting_imports_no_solver_module():
    """The byte layer writes arrays and records it is handed; the runners
    read them off solutions, so reporting needs no solver type."""
    solver = {"obstacle", "multipliers", "derivatives", "tracking"}
    imported = set()
    for node in ast.walk(ast.parse((PACKAGE / "reporting.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").rsplit(".", 1)[-1])
            imported |= {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            imported |= {a.name.rsplit(".", 1)[-1] for a in node.names}
    assert imported & solver == set()


def test_importing_the_package_leaves_scipy_quadrature_unloaded():
    """Only the ring series integrates; its scipy imports wait for first use,
    so a solve never loads their 205 modules and about 20 MB."""
    lazy = ("scipy.integrate", "scipy.optimize", "scipy.special")
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    loaded = subprocess.run(
        [sys.executable, "-c",
         f"import sys, biobstacle; print(*(m for m in {lazy!r} if m in sys.modules))"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert loaded == []
