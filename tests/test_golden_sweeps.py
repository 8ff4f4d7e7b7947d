"""``sweep`` CSV and ``threshold`` JSON reports stay bit-exact against
stored golden files.

The files were written by ``schmidt-lens sweep ... --output-path`` for both
named families and for a custom sweep of the identity channel read from a
channel file, at d=3, r=2 and an 11-point grid; for both named families at
d=9, r=2 and a 101-point grid; and by ``schmidt-lens threshold ...
--output-path`` for both named families at d in {9, 13} and r in
{1, d // 2, d - 1}.
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


@pytest.mark.parametrize("family", ["depolarizing", "dephasing"])
def test_d9_sweep_csv_matches_golden(family, tmp_path):
    out = tmp_path / "sweep.csv"
    code = cli.main(["sweep", "--family", family, "--d", "9", "--r", "2", "--grid", "101",
                     "--output-path", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / f"sweep_{family}_d9_r2_grid101.csv").read_bytes()


@pytest.mark.parametrize("family", ["depolarizing", "dephasing"])
@pytest.mark.parametrize("d, r", [(d, r) for d in (9, 13) for r in (1, d // 2, d - 1)])
def test_threshold_json_matches_golden(family, d, r, tmp_path):
    out = tmp_path / "threshold.json"
    code = cli.main(["threshold", "--family", family, "--d", str(d), "--r", str(r),
                     "--output-path", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / f"threshold_{family}_d{d}_r{r}.json").read_bytes()
