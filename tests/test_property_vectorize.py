"""The decode path reproduces the frozen scalar decode reference.

``scalar_decode_reference.json`` holds the report metrics of the
scalar decode path (one engine event per iteration, per-request KV
growth and token delivery) on every registry cell below × seeds
{0, 1}, recorded before that path was deleted.  The one remaining
decode path — fused windows delivered through the struct-of-arrays
batch plane — must reproduce each entry: metrics to rel 1e-9, and for
single-node cells the executor iteration counts and the timeline
exactly.  The oracle checks its per-iteration runs against this file
(``tests/oracle.py``); these names check the default run.
"""

import pytest

from tests.oracle import Cell, assert_matches_scalar_reference, outcome

pytestmark = pytest.mark.slow  # full tier-1 lane only (see scripts/ci.sh)

REGISTRY_CELLS = [
    ("table1-h200-a", 0.10),
    ("table1-rtx4090-a", 0.25),
    ("table1-h200-c", 0.25),
    ("tab02-tokenflow", 0.25),
    ("tab02-tokenflow-no-offload", 0.25),
    ("tab02-tokenflow-no-writethrough", 0.25),
    ("tab02-tokenflow-no-overlap", 0.25),
    ("bursty-sessions", 0.25),
]


@pytest.mark.parametrize("name,scale", REGISTRY_CELLS)
@pytest.mark.parametrize("seed", [0, 1])
def test_registry_cell_parity(name, scale, seed):
    assert_matches_scalar_reference(outcome(Cell(name, scale, seed)).state,
                                    f"{name}@{scale}/seed{seed}")
