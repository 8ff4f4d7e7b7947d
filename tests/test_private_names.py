"""Every private name that the package's docstrings and comments cite exists.

A ``_name`` in the prose of ``src/schmidt_lens`` must be one the package
defines: at the top level of a module, or as a class or instance attribute
(``self._stack = ...``). A name left behind by a rename or a deletion fails
here, with the file and the line or definition that cites it.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "schmidt_lens"
# a private name: not part of a longer word, and not a dunder
PRIVATE = re.compile(r"(?<!\w)_[A-Za-z]\w*")


def _sources() -> dict[str, str]:
    return {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}


def _module_and_class_names(node: ast.AST, names: set[str]) -> None:
    """Names bound at module or class level, outside any function body."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(child.name)
            if isinstance(child, ast.ClassDef):
                _module_and_class_names(child, names)
        elif isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store):
            names.add(child.id)
        elif not isinstance(child, ast.Lambda):
            _module_and_class_names(child, names)


def defined_names() -> set[str]:
    names = set()
    for text in _sources().values():
        tree = ast.parse(text)
        _module_and_class_names(tree, names)
        # attributes assigned anywhere: self._stack, ch._tp_defect, ...
        names.update(node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store))
    return names


def cited_names() -> list[tuple[str, str, str]]:
    """(file, where, name) for every private name in a docstring or comment."""
    cited = []
    for filename, text in _sources().items():
        tree = ast.parse(text)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                doc = ast.get_docstring(node, clean=False) or ""
                where = getattr(node, "name", "module docstring")
                cited += [(filename, where, name) for name in PRIVATE.findall(doc)]
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.COMMENT:
                cited += [(filename, f"line {tok.start[0]}", name)
                          for name in PRIVATE.findall(tok.string)]
    return cited


def test_the_scan_reads_docstrings_and_comments():
    cited = {(where.startswith("line "), name) for _, where, name in cited_names()}
    assert (False, "_stack") in cited  # QuantumChannel's docstring
    assert (True, "_reduced_min_eigs") in cited  # the comment above analysis.PRUNE_TOL
    assert {"_stack", "_tp_defect", "_KRAUS_FAMILIES", "_unit_images"} <= defined_names()


def test_every_private_name_in_the_prose_is_defined():
    defined = defined_names()
    stale = [f"{filename} ({where}): {name}" for filename, where, name in cited_names()
             if name not in defined]
    assert stale == []
