"""Reference CSV formatter: one ``%`` per value, the bytes ``cli._format_block`` must write.

``format_block`` is the per-value comprehension the CLI wrote its CSV with
before the block formatter: "" for NaN, ``"%.17g" % v`` for every other value,
negative zero folded by ``+ 0.0``, rows joined by "," and ended by "\\n".
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def format_block(cols: Sequence[np.ndarray]) -> bytes:
    fields = [["" if v != v else "%.17g" % v for v in (col + 0.0).tolist()] for col in cols]
    return "".join(",".join(row) + "\n" for row in zip(*fields)).encode()
