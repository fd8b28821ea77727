"""The package carries no function or class that only tests reach.

Every top-level def and class in ``src/qqual`` must be named somewhere in
the package (as a name, an attribute or an import), unless it is one of
the few kept for tests on purpose, each with its reason below.  Method
names are not checked: they collide too often with unrelated attributes
to be told apart statically.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qqual"

KEPT_FOR_TESTS = {
    "apply_gate": "the only way tests apply one gate kernel to a state other than |0...0>",
    "expectation": "reads Pauli-Z on those hand-built states (X and Y after a basis rotation)",
    "parameter_shift_grad": "the oracle that the adjoint gradient qsim.vjp is checked against",
    "serialize_sets": "the inverse of dvcs.ingest, and the writer of the ingest tests' files",
}


def unreferenced_top_level_names():
    defined = []
    referenced = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path.name, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return sorted((module, name) for module, name in defined if name not in referenced)


def test_every_top_level_name_is_used_by_the_package():
    unused = unreferenced_top_level_names()
    assert [f"{module}:{name}" for module, name in unused
            if name not in KEPT_FOR_TESTS] == []


def test_kept_names_are_still_test_only():
    # a kept name that the package now uses, or that is gone, leaves the list
    unused = {name for _, name in unreferenced_top_level_names()}
    assert sorted(set(KEPT_FOR_TESTS) - unused) == []
