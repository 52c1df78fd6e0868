"""Make the ledger's flat modules importable: the benchmark runs as a
script from its own directory, not as an installed package."""

import pathlib
import sys

LEDGER = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(LEDGER), str(LEDGER.parents[1] / "src")]
