"""Every public function, method and class in `linepack` has a caller in `src/`.

A public name (no leading underscore) defined at module level, or as a
method of a module-level class, must be read somewhere in
`src/linepack` outside its own definition, as a bare name or as an
attribute.  The exceptions are listed in `ALLOWED`, each with the test
that calls it and the claim it serves; a name only a test calls is
otherwise dead weight.

Private helpers are held to the same rule, with no exceptions: every
private module-level function, and every private method of a
module-level class, other than a dunder, must be read in `src/linepack`
outside its own body, so that a helper a merge leaves behind for the
tests alone is caught.

A method counts as called only where its name is read as an attribute
(`obj.name`); a module-level function counts as a bare name too.  The
checks match names, not bindings, so each is a lower bound on the dead
code, not a proof that none is left: a method whose name is also an
attribute of something else (a numpy `.conjugate`) counts as called.
"""

import ast
from pathlib import Path

import linepack

SRC = Path(linepack.__file__).parent

# name -> the tests that call it, and the claim it is an oracle for
ALLOWED = {
    "FieldContext.artin_schreier": "test_gf2n: the map a -> a^2 + a, inverted by the section "
                                   "the representation is built from",
    "FieldContext.hyperplane": "test_gf2n, test_bgroup: the hyperplanes attached to u != 0, "
                               "the ranges of the commutator map",
    "FieldContext.self_dual_normal_basis": "test_gf2n: the self-dual normal basis the second "
                                           "symplectic-basis construction starts from",
    "FieldContext.symplectic_from_normal_basis": "test_gf2n: a second, independent symplectic "
                                                 "basis of the trace-zero subspace",
    "FieldContext.symplectic_pairing": "test_gf2n, test_heis, criterion 6: the form the "
                                       "Heisenberg generators' basis is symplectic for",
    "GroupContext.center": "test_bgroup: the center, against brute force at n = 3",
    "GroupContext.commutator": "test_bgroup: the commutator subgroup, against brute force",
    "GroupContext.conjugacy_classes": "test_bgroup, test_chartab: `class_of_element` regrouped "
                                      "as tuples, the brute-force class oracle",
    "GroupContext.conjugate": "test_bgroup: brute-force conjugacy classes, the oracle for the "
                              "class formula",
    "GroupContext.quotient_epimorphism": "test_bgroup: the quotient attached to gamma is a "
                                         "homomorphic image",
    "GroupContext.quotient_law": "test_bgroup: the group law that homomorphism is checked against",
    "RepContext.rep_twisted": "test_heis, test_chartab: per-element oracle for the nonlinear "
                              "character values the table gathers in bulk",
    "CharacterTable.d_set_sum": "test_chartab, criterion 3: the flat D-sums that make the "
                                "character-sum Gram an ETF",
    "SchemeDescriptor.verify_axioms": "test_scheme, criterion 4: the scheme axioms (A1)-(A5)",
    "SchemeDescriptor.krein": "test_scheme, criterion 4: the Krein condition q_ijk >= 0 and "
                              "the trace oracle",
    "SchemeDescriptor.verify_idempotents": "test_scheme, criterion 4: the primitive idempotents "
                                           "are orthogonal, complete and of the recorded ranks",
    "closed_form_entry": "test_etf: scalar oracle for the vectorized closed-form Gram route",
    "group_scheme": "test_scheme, criterion 4: the group scheme whose axioms, idempotents and "
                    "Krein parameters the paper's construction rests on",
}


def _definitions(tree):
    """(qualified name, node) of each public module-level def and class method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _uses(trees):
    """(name, file, line, read as an attribute) of every name read in `trees`."""
    return [(node.id, path, node.lineno, False) if isinstance(node, ast.Name)
            else (node.attr, path, node.lineno, True)
            for path, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]


def _uncalled(defs, uses):
    """The qualified names of `defs` read nowhere outside their own body: a
    method (`Class.name`) only as an attribute, a function either way."""
    return {name for name, path, first, last in defs
            if not any(u == name.rsplit(".", 1)[-1] and (attr or "." not in name)
                       and not (p == path and first <= line <= last)
                       for u, p, line, attr in uses)}


def _trees():
    return {path: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SRC.glob("*.py"))}


def test_every_public_name_has_a_caller_in_src():
    trees = _trees()
    defs = [(name, path, node.lineno, node.end_lineno)
            for path, tree in trees.items() for name, node in _definitions(tree)]
    uncalled = _uncalled(defs, _uses(trees))
    assert uncalled - ALLOWED.keys() == set(), "public names no code in src/ calls"
    assert ALLOWED.keys() - uncalled == set(), "allowlisted names that now have a caller"


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _private_definitions(tree):
    """(qualified name, node) of each private non-dunder module-level def and
    class method; a dunder, such as a module's PEP 562 `__getattr__`, is
    called by Python itself."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_") \
                and not _is_dunder(node.name):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name.startswith("_") \
                        and not _is_dunder(item.name):
                    yield f"{node.name}.{item.name}", item


def test_every_private_helper_has_a_caller_in_src():
    trees = _trees()
    defs = [(name, path, node.lineno, node.end_lineno)
            for path, tree in trees.items() for name, node in _private_definitions(tree)]
    assert defs, "no private helpers found"
    assert _uncalled(defs, _uses(trees)) == set(), "private helpers no code in src/ calls"


def _exported(tree):
    """The names a module's `__all__` lists, or None when it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return None


def test_each_module_exports_exactly_its_public_functions_and_classes():
    # `__all__` lists every public module-level function and class, once, and
    # besides them only public module-level constants; the package re-exports
    # from its modules, and the command-line module is an entry point
    for path, tree in _trees().items():
        if path.stem in ("__init__", "cli"):
            continue
        exported = _exported(tree)
        assert exported is not None, f"{path.name} has no __all__"
        assert len(exported) == len(set(exported)), f"{path.name} lists a name twice"
        public = {node.name for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_")}
        constants = {t.id for node in tree.body if isinstance(node, ast.Assign)
                     for t in node.targets
                     if isinstance(t, ast.Name) and not t.id.startswith("_")}
        assert set(exported) - constants == public, path.name
