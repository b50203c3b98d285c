"""Every exported name backs a check: each name in `vpq.__all__` is used by
the library's own code or by the README's "Library use" example, so no
public name is surface that only tests reach."""

import ast
import re
from pathlib import Path

import vpq

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(vpq.__file__).resolve().parent


def _loaded_names(tree):
    """Names read by `ast.Name` and `ast.Attribute` nodes, each outside the
    body of a def or class of that name (a name used only inside its own
    definition is not used).  Docstrings, comments, imports and assignment
    targets hold no such read."""
    names = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            name = node.attr
        else:
            name = None
        if name is not None and name not in enclosing:
            names.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return names


def _library_use_blocks():
    """The fenced python blocks of the README's "Library use" section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```", section, re.M | re.S)


def test_every_exported_name_is_used_outside_the_tests():
    used = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            used |= _loaded_names(ast.parse(path.read_text(encoding="utf-8")))
    blocks = _library_use_blocks()
    assert blocks
    for block in blocks:
        used |= _loaded_names(ast.parse(block))
    assert sorted(set(vpq.__all__) - used) == []
