"""``sweep`` CSV reports stay bit-exact against stored golden files.

The files were written by ``schmidt-lens sweep ... --output-path`` for both
named families and for a custom sweep of the identity channel read from a
channel file, at d=3, r=2 and an 11-point grid.
"""

from pathlib import Path

import pytest

from schmidt_lens import cli
from schmidt_lens.channels import channel_to_json, identity_channel

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", ["depolarizing", "dephasing", "custom_identity"])
def test_sweep_csv_matches_golden(name, tmp_path):
    if name == "custom_identity":
        channel_file = tmp_path / "identity.json"
        channel_file.write_text(channel_to_json(identity_channel(3)))
        source = ["--channel-file", str(channel_file)]
    else:
        source = ["--family", name]
    out = tmp_path / "sweep.csv"
    code = cli.main(["sweep", *source, "--d", "3", "--r", "2", "--grid", "11",
                     "--output-path", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / f"sweep_{name}_d3_r2_grid11.csv").read_bytes()
