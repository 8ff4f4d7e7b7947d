"""Every module attribute that README.md cites exists.

A backticked span of the README that names ``analysis.X``, ``channels.X``,
``schmidt.X``, ``states.X``, ``linalg.X``, ``suites.X`` or ``cli.X`` must
name an attribute of that module of ``schmidt_lens``. A reference left
behind by a rename or a deletion fails here, with the span that cites it.
"""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = ("analysis", "channels", "schmidt", "states", "linalg", "suites", "cli")
# module.attribute, not the tail of a longer dotted name (schmidt_lens.analysis.X)
REFERENCE = re.compile(rf"(?<![\w.])({'|'.join(MODULES)})\.([A-Za-z_]\w*)")


def cited_references() -> list[tuple[str, str, str]]:
    """(module, attribute, span) for every reference in a backticked span
    outside the fenced code blocks."""
    text = re.sub(r"^```.*?^```", "", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    return [(module, attr, span) for span in re.findall(r"`([^`]+)`", text)
            for module, attr in REFERENCE.findall(span)]


def test_the_scan_finds_the_references():
    cited = {(module, attr) for module, attr, _ in cited_references()}
    assert {("analysis", "TIE_TOL"), ("cli", "main"), ("analysis", "_kernel_parts"),
            ("linalg", "psd_minima")} <= cited
    assert {module for module, _ in cited} >= {"analysis", "channels", "suites", "linalg"}


def test_every_reference_names_an_attribute_of_its_module():
    stale = [f"`{span}`: {module}.{attr}" for module, attr, span in cited_references()
             if not hasattr(importlib.import_module(f"schmidt_lens.{module}"), attr)]
    assert stale == []
