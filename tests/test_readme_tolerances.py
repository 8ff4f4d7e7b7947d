"""The README tolerance table names the constants the code uses, at their values.

A row is ``| name | module | value | kind | what it decides |``. The name is
a backticked module constant, or ``literal in `fn``` for a number written
inline in the function ``fn`` of that module. Only the functions whose
callers pass different values take a ``tol`` argument.
"""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import schmidt_lens

README = Path(__file__).resolve().parent.parent / "README.md"


def table_rows() -> list[tuple[str, str, str]]:
    """(name cell, module, value cell) of every row of the tolerance table."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Tolerances\n", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        if not line.startswith("| ") or line.startswith(("| name |", "| ---")):
            continue
        cells = [c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]]
        rows.append((cells[0], cells[1].strip("`"), cells[2]))
    return rows


ROWS = table_rows()


def as_float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def module_tolerances(module) -> set[str]:
    """Names ending in ``_TOL`` assigned at the top level of ``module``'s source."""
    tree = ast.parse(inspect.getsource(module))
    names = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        names.update(t.id for t in targets if isinstance(t, ast.Name) and t.id.endswith("_TOL"))
    return names


@pytest.mark.parametrize("name, module_name, value", ROWS,
                         ids=[re.sub(r"\W+", "_", row[0]).strip("_") for row in ROWS])
def test_each_row_names_a_constant_of_its_module(name, module_name, value):
    module = importlib.import_module(f"schmidt_lens.{module_name}")
    literal = re.fullmatch(r"literal in `(\w+)`", name)
    if literal:
        # the number is written inline in the named function
        fn = getattr(module, literal.group(1))
        numbers = {node.value for node in ast.walk(ast.parse(inspect.getsource(fn)))
                   if isinstance(node, ast.Constant) and isinstance(node.value, float)}
        assert as_float(value) in numbers
        return
    constant = re.fullmatch(r"`(\w+)`", name).group(1)
    assert constant in module_tolerances(module)
    if as_float(value) is not None:
        assert getattr(module, constant) == as_float(value)


def test_every_tolerance_constant_has_a_row():
    listed = {(name.strip("`"), module) for name, module, _ in ROWS}
    for info in pkgutil.iter_modules(schmidt_lens.__path__):
        module = importlib.import_module(f"schmidt_lens.{info.name}")
        for constant in module_tolerances(module):
            assert (constant, info.name) in listed, f"{info.name}.{constant} has no README row"


# The bisections take their bracket width from the caller (threshold --tol,
# the suites' 1e-10), psd_minima its margin (PSD_TOL, EVIDENCE_TOL).
TAKES_TOL = {"bisect_crossing", "snbc_witness_threshold", "psd_minima"}


def test_only_functions_given_different_tolerances_take_a_tol():
    takers = set()
    for info in pkgutil.iter_modules(schmidt_lens.__path__):
        module = importlib.import_module(f"schmidt_lens.{info.name}")
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if fn.__module__ == module.__name__ and "tol" in inspect.signature(fn).parameters:
                takers.add(name)
    assert takers == TAKES_TOL
