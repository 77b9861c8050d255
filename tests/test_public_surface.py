"""Every public definition in src/dstc is used by the package, bench or demos.

A function that only tests call is either an oracle, which belongs in a
test module, or dead code. The scan is by name: a public top-level
function or class, or a public method, counts as used when its name is
referenced anywhere in ``src/dstc``, ``bench`` or ``demos`` outside its
own definition. A reference is a ``Name``, an ``Attribute``, an import
alias or a string constant equal to the name (``bench/tracing.py`` names
what it rebinds by string). ``__init__.py`` is not scanned: re-exporting
a name does not use it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = [ROOT / "src" / "dstc", ROOT / "bench", ROOT / "demos"]


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _definitions(tree: ast.Module):
    """(qualified name, node) of public top-level functions and classes and
    of the public methods of top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _is_public(node.name):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _is_public(item.name):
                    yield f"{node.name}.{item.name}", item


class _References(ast.NodeVisitor):
    """Referenced identifiers, each with the (file, line) keys of the
    definitions enclosing it."""

    def __init__(self, path):
        self.path = path
        self.found: list[tuple[str, tuple]] = []
        self._stack: list[tuple] = []

    def _add(self, name):
        self.found.append((name, tuple(self._stack)))

    def _enter(self, node):
        self._stack.append((self.path, node.lineno))
        self.generic_visit(node)
        self._stack.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

    def visit_Name(self, node):
        self._add(node.id)

    def visit_Attribute(self, node):
        self._add(node.attr)
        self.generic_visit(node)

    def visit_alias(self, node):
        self._add(node.name.rsplit(".", 1)[-1])

    def visit_Constant(self, node):
        if isinstance(node.value, str) and node.value.isidentifier():
            self._add(node.value)


def _scan():
    """Public definitions of src/dstc as (qualified name, bare name, key),
    and every reference in the scanned trees as (name, enclosing keys)."""
    defs, refs = [], []
    for tree_dir in TREES:
        for path in sorted(tree_dir.rglob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            if tree_dir == TREES[0]:
                defs.extend((f"{path.stem}.{q}", node.name, (path, node.lineno))
                            for q, node in _definitions(tree))
            visitor = _References(path)
            visitor.visit(tree)
            refs.extend(visitor.found)
    return defs, refs


def test_every_public_definition_is_referenced():
    defs, refs = _scan()
    unused = [qual for qual, name, key in defs
              if not any(ref == name and key not in stack for ref, stack in refs)]
    assert unused == [], f"defined in src/dstc but used only by tests: {unused}"


def test_scan_sees_the_package():
    # guards against a scan that passes because it found nothing
    defs, refs = _scan()
    names = {qual for qual, _, _ in defs}
    assert {"receivers.Codebook", "receivers.Codebook.assemble",
            "gnaf_sim.run_monte_carlo"} <= names
    assert any(ref == "check_clro" and not stack for ref, stack in refs)
