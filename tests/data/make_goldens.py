"""Regenerate the frozen reference datasets in this directory.

Run from the repository root:

    python3 tests/data/make_goldens.py

The files are written through the exact CLI path users run, so the
regression tests can compare both bit-for-bit and numerically.
"""

import pathlib
import sys

from modscatter.cli import main

HERE = pathlib.Path(__file__).parent

def build():
    for preset in ("fig3a", "fig3b"):
        out = HERE / f"{preset}_golden.csv"
        code = main(["spectrum", "--preset", preset, "--out", str(out)])
        if code != 0:
            raise SystemExit(f"{preset} generation failed with exit {code}")
        print(f"wrote {out}")
    metrics = HERE / "trap_release_golden.csv"
    series = HERE / "trap_release_series_golden.csv"
    # a short trap-and-release run, with the p_cav series every 100 steps
    code = main(["trap", "--release", "--cells", "1500", "--bandwidth", "0.1",
                 "--out", str(metrics), "--series-out", str(series),
                 "--series-stride", "100"])
    if code != 0:
        raise SystemExit(f"trap release generation failed with exit {code}")
    print(f"wrote {metrics}\nwrote {series}")


if __name__ == "__main__":
    sys.exit(build())
