"""The names the benchmark's tracer patches stay in place.

``perfbench/tracing.py`` wraps package functions by name; a rename or a
deletion breaks the benchmark, not the package tests. This runs one line
of each command under the tracer and checks that the spans it depends on
were recorded.
"""

import importlib
from pathlib import Path

import pytest

from schmidt_lens import cli
from schmidt_lens.channels import channel_to_json, random_channel

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

LINES = [
    ["snac", "--p-grid", "2", "--q-grid", "2"],
    ["sweep", "--grid", "3"],
    ["threshold", "--family", "dephasing", "--d", "3", "--r", "2"],
    ["verify", "--suite", "relations"],
    ["verify", "--suite", "channel_axioms"],
]
SPANS = {"analysis.sweep", "schmidt.witness", "analysis.simplex_lattice",
         "analysis.eb_ppt_threshold", "channels.ChoiMatrix", "states.DensityMatrix"}


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_traced_commands_record_the_benchmark_spans(tracing, capsys, tmp_path):
    # the family builds only its orbit rows; a channel that is not
    # permutation-covariant builds the full simplex lattice
    channel_file = tmp_path / "random.json"
    channel_file.write_text(channel_to_json(random_channel(2, 2, seed=0)))
    lines = LINES + [["snac", "--d", "2", "--p-grid", "2", "--q-grid", "2",
                      "--channel-file", str(channel_file)]]
    with tracing.Tracer().installed() as tracer:
        codes = [cli.main(args) for args in lines]
    capsys.readouterr()
    assert codes == [0] * len(lines)
    assert SPANS <= {span[0] for span in tracer.spans}
