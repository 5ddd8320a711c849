"""CSV and sidecar files: the text of every value, and what the bytes depend on.

``write_series_csv`` writes one series with the fixed schema ``CSV_COLUMNS``:
every nonzero value as ``"%.16e" % v``, zero as "0" and NaN as an empty
field, byte for byte on every platform.  What the CSV bytes leave out, wall
times and ``environment_fingerprint()`` among them, goes to a ``.meta.json``
sidecar beside each file.
"""

from __future__ import annotations

import json
import math
import platform
from collections.abc import Sequence
from dataclasses import fields
from pathlib import Path

import numpy as np

from .phases import PhaseTimeSeries, unwrap_with_gaps

__all__ = ["CSV_COLUMNS", "write_series_csv", "environment_fingerprint"]

# each CSV column is the series field of the same name
CSV_COLUMNS = tuple(f.name for f in fields(PhaseTimeSeries))

_CSV_ROWS = 256  # rows formatted per write

_FORMAT = "%.16e"  # every nonzero CSV value is this format's text; zero is "0", NaN empty


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x as hi + lo of 26 bits each (Veltkamp), whose products are exact."""
    c = x * 134217729.0  # 2**27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _two_product(a, a_hi, a_lo, b, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    """fl(a b) and its error a b - fl(a b), exactly (Dekker), from the
    ``_split`` halves of a and b."""
    p = a * b
    return p, a_lo * b_lo - (((p - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)


# 10**k = hi + lo, two exact doubles, each beside its _split halves, shape
# (3, 46): lo is 0 up to 10**22 and, as 5**k has at most 105 bits, exact up
# to 10**45
_POW10_HI, _POW10_LO = (np.stack((x, *_split(x))) for x in (
    np.array([float(10**k) for k in range(46)]),
    np.array([float(10**k - int(float(10**k))) for k in range(46)]),
))
_CELL = 25  # the longest text, "-2.2250738585072014e-308", and its separator
# the ASCII digits of 0 .. 99 as one uint16 each, and of 0 .. 9999 as one uint32
_PAIRS = np.frombuffer("".join("%02d" % i for i in range(100)).encode(), np.uint16)
_QUADS = np.stack(np.broadcast_arrays(_PAIRS[:, None], _PAIRS), axis=-1).view(np.uint32).ravel()
# "e-29" .. "e+16" as one uint32 each, by decimal exponent e = -29 .. 16 (entry e + 29)
_EXPONENTS = np.frombuffer("".join("e%+03d" % e for e in range(-29, 17)).encode(), np.uint32)


def _at_least(k: int) -> float:
    """The least double >= 10**k, by exact integer comparison."""
    x = float("1e%d" % k)  # the nearest double
    num, den = x.as_integer_ratio()
    return x if num * 10 ** max(-k, 0) >= den * 10 ** max(k, 0) else math.nextafter(x, math.inf)


# entry i is the least double >= 10**(i - 29), so that a double in
# _TENS[i] <= a < _TENS[i + 1] lies in the decade 10**(i - 29) exactly
_TENS = np.array([_at_least(k) for k in range(-29, 18)])


def _scientific(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The indices of the values of ``v`` whose ``_FORMAT`` text is settled
    here, and that text in 24 bytes: the sign or NUL at byte 0, NUL at
    byte 1, then the digits, point and exponent at bytes 2 .. 23.

    A value is a candidate when 10**-29 <= |v| < 1e17 (the double 1e-29
    lies below 10**-29; its text's exponent is -30).  Its decimal exponent
    e comes from ``_TENS`` by comparison, exactly, so t = |v| 10**(16 - e)
    lies in [1e16, 1e17).  With 10**(16 - e) = hi + lo, two exact doubles,
    Dekker's error-free product gives |v| hi exactly as p + r with
    p = fl(|v| hi).  Up to 10**22 lo is 0 and t = p + r.  Below 1e-6 the
    error-free product of |v| and lo joins r through a TwoSum (Ogita, Rump
    & Oishi), which leaves t - p within the sum's and the product's
    rounding errors of r.  As t >= 1e16 > 2**53, p is an even integer, so
    D = p + rint(r) is the 17-digit mantissa rounded half to even.  A value
    is left out if D carries to 1e17, or if r lies within twice those
    errors of a half; on an exact tie they are 0.
    """
    a = np.abs(v)
    candidates = np.flatnonzero((a >= _TENS[0]) & (a < _TENS[-1]))  # NaN and inf compare False
    a = a[candidates]
    e = np.searchsorted(_TENS, a, side="right") - 30
    k = 16 - e
    a_hi, a_lo = _split(a)
    p, r = _two_product(a, a_hi, a_lo, *_POW10_HI.take(k, axis=1))
    band = np.flatnonzero(k > 22)  # where lo is not 0
    settled = True
    if band.size:
        q, q_err = _two_product(a[band], a_hi[band], a_lo[band], *_POW10_LO.take(k[band], axis=1))
        err = r[band]
        r[band] = s = err + q  # TwoSum: s + s_err = err + q
        back = s - err
        s_err = (err - (s - back)) + (q - back)
        settled = np.abs(0.5 - np.abs(s - np.rint(s))) >= 2.0 * (np.abs(s_err) + np.abs(q_err))
    mantissa = p.astype(np.int64) + np.rint(r).astype(np.int64)
    sure = (mantissa >= 10**16) & (mantissa < 10**17)  # the lower bound holds by _TENS
    sure[band] &= settled
    fast = candidates[sure]
    mantissa = mantissa[sure].astype(np.uint64)
    m = fast.size

    # the leading digit and the point at bytes 2 .. 3, the other 16 digits
    # as four ASCII quads at bytes 4 .. 19, and the exponent at bytes 20 .. 23
    text = np.zeros((m, 24), np.uint8)
    text[:, 0] = (v[fast] < 0) * ord("-")
    lead = mantissa // 10**16
    text[:, 2] = lead + ord("0")
    text[:, 3] = ord(".")
    mantissa -= lead * 10**16
    halves = np.empty((m, 2), np.uint64)
    halves[:, 0] = mantissa // 10**8
    halves[:, 1] = mantissa - halves[:, 0] * 10**8
    words = text.view(np.uint32)
    quads = words[:, 1:5].reshape(m, 2, 2)
    upper = halves // 10000
    quads[:, :, 0] = _QUADS[upper]
    quads[:, :, 1] = _QUADS[halves - upper * 10000]
    words[:, 5] = _EXPONENTS[e[sure] + 29]
    return fast, text


def _format_block(cols: Sequence[np.ndarray]) -> bytes:
    """CSV rows of equal-length columns: each nonzero value as
    ``_FORMAT % v``, zero (negative zero too) as "0" and NaN as "", byte for
    byte on every platform.

    Values of 10**-29 <= |v| < 1e17 are formatted in whole-array passes
    (``_scientific``).  ``%`` itself formats only (a) the values out of
    that range, (b) those whose 17 digits carry to 18 (±1e-14 among the
    doubles near a power of ten) and (c) those below 1e-6 whose remainder
    lies within the TwoSum's error of a half.
    """
    rows, width = len(cols[0]), len(cols)
    v = np.array(cols, dtype=np.float64).T.ravel()  # row-major
    fast, text = _scientific(v)
    # one cell per value: its text NUL-padded, then "," or "\n"
    cells = np.zeros((v.size, _CELL), np.uint8)
    cells[:, 0] = (v == 0) * ord("0")
    ends = cells.reshape(rows, width, _CELL)[:, :, -1]
    ends[:] = ord(",")
    ends[:, -1] = ord("\n")
    cells[fast, :24] = text
    rest = ~np.isnan(v) & (v != 0)
    rest[fast] = False
    rest = np.flatnonzero(rest)
    if rest.size:  # no _FORMAT text is longer than 24 bytes
        texts = np.array([_FORMAT % x for x in v[rest].tolist()], "S24")
        cells[rest, :24] = texts.view(np.uint8).reshape(-1, 24)
    cells = cells.ravel()
    return cells[cells != 0].tobytes()


def _write_csv(path: Path, header: Sequence[str], cols: Sequence[np.ndarray]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        # a block of rows at a time, so that the working set stays small
        for lo in range(0, len(cols[0]), _CSV_ROWS):
            fh.write(_format_block([col[lo : lo + _CSV_ROWS] for col in cols]))


def write_series_csv(
    path: Path, series: PhaseTimeSeries, emit_unwrapped: bool = False
) -> None:
    """Write one series with the fixed schema, 17 significant digits."""
    header = list(CSV_COLUMNS)
    cols = [getattr(series, c) for c in CSV_COLUMNS]
    if emit_unwrapped:
        header += ["phi_pancharatnam_unwrapped", "phi_geometric_unwrapped"]
        cols += [
            unwrap_with_gaps(series.phi_pancharatnam),
            unwrap_with_gaps(series.phi_geometric),
        ]
    _write_csv(path, header, cols)


def _write_meta(path: Path, payload: dict) -> None:
    meta_path = Path(str(path) + ".meta.json")
    meta_path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def environment_fingerprint() -> dict:
    """What CSV bytes depend on besides the code and its inputs.

    Python and numpy versions, machine, libc and the SIMD targets numpy
    dispatches to at run time (these follow ``NPY_DISABLE_CPU_FEATURES`` as
    well as the CPU).  The CSV formatter adds no platform dependence: it
    writes ``"%.16e" % v`` exactly, by the same float64 passes, everywhere.
    """
    from numpy._core import _multiarray_umath as umath
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "libc": list(platform.libc_ver()),
        "simd": [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)],
    }
