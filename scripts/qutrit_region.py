#!/usr/bin/env python3
"""Generate the admissible-region dataset for a single qutrit.

Writes two CSV files: the cell-by-cell admissibility grid over
(|P|, Q) in [0, sqrt(3)] x [-3, 3], and the analytic boundary curves.
The shaded region any plotter draws from the grid shows where a qutrit
density matrix is positive semidefinite; the upper-right corner
(|P| = sqrt(3), Q = 3) is the unique pure point.
"""

import argparse
from pathlib import Path

from quditkit.qutrit import boundaries_to_csv, region_csv_rows, region_scan


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--resolution", type=int, default=512)
    ap.add_argument("--tolerance", type=float, default=1e-9)
    ap.add_argument("--out-dir", type=Path, default=Path("out"))
    args = ap.parse_args()

    grid = region_scan(args.resolution, args.tolerance)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    region_path = args.out_dir / "qutrit_region.csv"
    boundary_path = args.out_dir / "qutrit_region_boundaries.csv"
    with region_path.open("w") as fh:
        fh.writelines(region_csv_rows(grid))
    boundary_path.write_text(boundaries_to_csv(grid))

    total = grid.admissible.size
    inside = int(grid.admissible.sum())
    print(f"grid {args.resolution}x{args.resolution}: {inside}/{total} admissible cells")
    print(f"pure corner admissible: {bool(grid.admissible[-1, -1])}")
    print(f"wrote {region_path} and {boundary_path}")


if __name__ == "__main__":
    main()
