import json
import pathlib

import pytest

from lieb2b import holonomy
from lieb2b.bethe import Parity
from lieb2b.exceptional import ExceptionalPoint

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(autouse=True)
def fresh_entry_frame():
    """Each test starts with no remembered entry frame, so the walks a
    test counts do not depend on the tests run before it."""
    holonomy._entry_frame.cache_clear()


@pytest.fixture(scope="session")
def golden_eps():
    """Frozen branch-point coordinates from an independent root search.

    Produced by a multi-start MINPACK hybrid solve of the joint system
    (Bethe condition, collision condition) and stored with full double
    precision; residuals of every row are below 2e-12.
    """
    rows = json.loads((DATA / "ep_golden.json").read_text())
    out = {}
    for row in rows:
        n = int(row["n"])
        parity = Parity.of_level(n)
        out[n] = ExceptionalPoint(
            n, parity.bound_level,
            complex(row["g_re"], row["g_im"]),
            complex(row["k_re"], row["k_im"]),
            parity)
    return out
