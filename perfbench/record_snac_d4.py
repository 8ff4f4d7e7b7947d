"""Record the reference values for the d=4 study of the snac-lattice workload.

Writes the two-local certificate of the ququart depolarizing channel at
every (p, lattice point) of that study to ``data/snac_d4.json``. The d=4
snac check compares the CLI's minimum and its q_star against this table,
since d=4 has no closed-form oracle. Run from the repository root:

    python3 perfbench/record_snac_d4.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from schmidt_lens import analysis, channels  # noqa: E402

from checks import RECORDED_SNAC, lattice_points  # noqa: E402
from workloads import SNAC_K, SNAC_STUDIES  # noqa: E402


def main() -> None:
    d, p_grid, q_grid = next(s for s in SNAC_STUDIES if s[0] == 4)
    points = lattice_points(q_grid, d)
    values = [
        [analysis.snac_min_eig(channels.depolarizing(d, float(p)),
                               np.array(pt) / q_grid, SNAC_K) for pt in points]
        for p in np.linspace(0.0, 1.0, p_grid)
    ]
    doc = {"d": d, "k": SNAC_K, "p_grid": p_grid, "q_grid": q_grid,
           "points": points, "values": values}
    RECORDED_SNAC.write_text(json.dumps(doc) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
