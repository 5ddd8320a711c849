"""Reference CSV formatter: one ``%`` per value, the bytes ``cli._format_block`` must write.

``format_block`` is the per-value comprehension of the CSV schema: "" for
NaN, "0" for zero and negative zero, ``"%.16e" % v`` for every other value,
rows joined by "," and ended by "\\n".
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def format_block(cols: Sequence[np.ndarray]) -> bytes:
    fields = [["" if v != v else "0" if v == 0 else "%.16e" % v for v in col.tolist()]
              for col in cols]
    return "".join(",".join(row) + "\n" for row in zip(*fields)).encode()
