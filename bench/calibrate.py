"""A fixed reference task that measures how fast the host parses CSV right now.

The host this benchmark runs on is shared, and its speed drifts by tens of
percent over minutes.  On ``paths-wealth``, whose passes are mostly CSV
parsing, ``run.py`` times this task right before and after every pass and
reports each pass's wall time in reference seconds: the pass time times
``REFERENCE_S`` over the median of the samples around it (see
``run.scaled_walls``).  The task uses only the standard library and numpy,
never the package under test, so a change to the package cannot change it.
"""

from __future__ import annotations

import csv
import io
import time

import numpy as np

# Median seconds of one sample on the machine the bounds were set on (two
# vCPUs of a shared x86-64 host).  It only fixes the scale of the reported
# seconds; both sides of a comparison use the same constant.
REFERENCE_S = 0.145

_ROWS, _COLS = 201, 2000


class Reference:
    """The reference task; builds its input once, then times one sample per call."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        table = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, (_ROWS, _COLS)), axis=0))
        self.text = "\n".join(",".join(f"{v:.6f}" for v in row) for row in table) + "\n"

    def sample(self) -> float:
        """Seconds to parse the CSV text into a numpy array, the way a plain loader does."""
        start = time.perf_counter()
        parsed = np.asarray([[float(c) for c in row] for row in csv.reader(io.StringIO(self.text))])
        elapsed = time.perf_counter() - start
        if parsed.shape != (_ROWS, _COLS):
            raise RuntimeError("reference task gave a wrong result")
        return elapsed
