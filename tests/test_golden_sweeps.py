"""``sweep`` CSV and ``threshold`` JSON reports stay bit-exact against
stored golden files.

The files were written by ``schmidt-lens sweep ... --output-path`` for both
named families and for a custom sweep of the identity channel read from a
channel file, at d=3, r=2 and an 11-point grid; for both named families at
d=9, r=2 and a 101-point grid; and by ``schmidt-lens threshold ...
--output-path`` for both named families at d in {9, 13} and r in
{1, d // 2, d - 1}. The ``snac`` reports were written by ``schmidt-lens snac
... --output-path`` before its lattice minimum evaluated one row per
permutation orbit: the two family studies of the benchmark's snac workload
and the d=9 family study (JSON), and channel-file studies of a covariant and
a non-covariant channel at d=4. Three more family studies were written
before the family's p grid was minimized in stacked kernels: d=13 (20 p),
d=2 (JSON, k=1) and d=5 (300 p, q-grid 15), whose p grid spans several
p-chunks and several eigensolves.
"""

from pathlib import Path

import pytest

from schmidt_lens import analysis, cli
from schmidt_lens.channels import (
    channel_to_json,
    depolarizing,
    identity_channel,
    random_channel,
)

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


@pytest.mark.parametrize("name, args", [
    ("snac_depolarizing_d3_k0.5_p21_q30.csv",
     ["--d", "3", "--k", "0.5", "--p-grid", "21", "--q-grid", "30"]),
    ("snac_depolarizing_d4_k0.5_p5_q8.csv",
     ["--d", "4", "--k", "0.5", "--p-grid", "5", "--q-grid", "8"]),
    ("snac_depolarizing_d9_p11_q8.json",
     ["--d", "9", "--p-grid", "11", "--q-grid", "8", "--output", "json"]),
    ("snac_depolarizing_d13_k0.5_p20_q4.csv",
     ["--d", "13", "--k", "0.5", "--p-grid", "20", "--q-grid", "4"]),
    ("snac_depolarizing_d2_k1.0_p101_q50.json",
     ["--d", "2", "--k", "1.0", "--p-grid", "101", "--q-grid", "50", "--output", "json"]),
    ("snac_depolarizing_d5_k0.5_p300_q15.csv",
     ["--d", "5", "--k", "0.5", "--p-grid", "300", "--q-grid", "15"]),
])
def test_snac_family_report_matches_golden(name, args, tmp_path):
    out = tmp_path / name
    assert cli.main(["snac", *args, "--output-path", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_the_d5_golden_study_crosses_chunk_boundaries(monkeypatch):
    # p-chunks of unit images, and the p of each stacked reduced-kernel call
    chunks, solves = [], []
    parts, reduced = analysis._pattern_parts, analysis._reduced_min_eigs
    monkeypatch.setattr(analysis, "_pattern_parts", lambda phi: chunks.append(1) or parts(phi))
    monkeypatch.setattr(analysis, "_reduced_min_eigs", lambda pops, squares, q, k: (
        solves.append(pops.shape[0]) or reduced(pops, squares, q, k)))
    analysis.snac_sweep(5, 0.5, p_grid=300, q_grid=15)
    assert len(chunks) > 1 and len(solves) > 1 and sum(solves) == 300


@pytest.mark.parametrize("name, build", [
    ("depolarizing_4_0.6", lambda: depolarizing(4, 0.6)),  # permutation-covariant
    ("random_4_4_7", lambda: random_channel(4, 4, 7)),  # not covariant
])
def test_snac_channel_file_csv_matches_golden(name, build, tmp_path):
    channel_file = tmp_path / f"{name}.json"
    channel_file.write_text(channel_to_json(build()))
    out = tmp_path / "snac.csv"
    code = cli.main(["snac", "--d", "4", "--p-grid", "11", "--q-grid", "20",
                     "--channel-file", str(channel_file), "--output-path", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / f"snac_file_{name}_p11_q20.csv").read_bytes()
