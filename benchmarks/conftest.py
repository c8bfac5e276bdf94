"""Benchmark suite configuration.

``pytest benchmarks/ --benchmark-only`` runs every figure reproduction
once (rounds=1) — these are simulations whose *output tables* are the
deliverable; the benchmark timings record how long each reproduction
takes to regenerate.
"""

import sys
from pathlib import Path

# Make the sibling `_common` module and the repository's test oracles
# (`tests.oracles`) importable regardless of rootdir.
sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(1, str(Path(__file__).parents[1]))
