"""Long-double reference for the printed Weyl magnitudes |S_k| and ratios
|S_k| / #W, k = 1..10, summed term by term over every witness.

    PYTHONPATH=src python tests/weyl_reference.py 200005 2074757

prints one line per (n, k): n, k, the magnitude and the ratio rounded to
the 12 significant digits that `weyl` and `scan` print, and the distance
of each from the nearest rounding boundary of those 12 digits, against
which the reference's own error (a few 1e-15 at n near 2e6) is small.
The cells of weyl_*.txt, scan.txt and scan_sparse.txt were checked
against it.

The witnesses come from the pow route (`ResidueScan.codes`, which tests
every residue and reads no liar set), not from the code that prints the
cells.  Each term is e(m/n), m = k*w mod n, with the angle 2*pi*(m/n), its
cos and its sin in the x87 long double.  Two roundings that a plain
long-double run shares between all of its terms are kept out:

* 2*pi is the pair hi + lo of a 36-digit literal.  hi alone is off by a
  relative 1.6e-20, which moves a sum over N residues by about that
  times N (3.3e-14 over the units of 2074757).  lo enters to first
  order: e(q) = e^{i hi q} (1 + i lo q).
* the long-double terms are summed exactly: each is the sum of two
  float64s, and `math.fsum` adds those.  numpy's long-double `.sum()` of
  the same terms was off by up to 6e-14 at 2074757.
"""

import math
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from mrwitness.witness import classify_all  # noqa: E402

assert np.finfo(np.longdouble).nmant >= 63, "needs the 80-bit long double"
TWO_PI_DIGITS = "6.28318530717958647692528676655900577"
TWO_PI_HI = np.longdouble(TWO_PI_DIGITS)
TWO_PI_LO = np.longdouble(str(Decimal(TWO_PI_DIGITS)
                              - Decimal(np.format_float_positional(TWO_PI_HI, unique=False, precision=40))))


def exact_sum(x: np.ndarray) -> Decimal:
    """The sum of the long doubles x, exact but for one final rounding."""
    hi = x.astype(np.float64)
    lo = (x - hi.astype(np.longdouble)).astype(np.float64)
    return Decimal(math.fsum(np.concatenate([hi, lo])))


def rounded12(x: Decimal) -> tuple[str, float]:
    """x to 12 significant digits as `%.12g` prints them, and the distance
    of x from the nearest rounding boundary, relative to x."""
    digits = Decimal(f"{x:.11e}")
    step = Decimal(1).scaleb(digits.adjusted() - 11)
    margin = abs(step / 2 - abs(x - digits)) / x
    return f"{float(digits):.12g}", float(margin)


def main(ns) -> None:
    for n in ns:
        ws = np.flatnonzero(classify_all(n).codes == 0)
        for k in range(1, 11):
            q = ((k * ws) % n).astype(np.longdouble) / np.longdouble(n)
            theta = TWO_PI_HI * q
            eps = TWO_PI_LO * q
            cos, sin = np.cos(theta), np.sin(theta)
            re, im = exact_sum(cos - eps * sin), exact_sum(sin + eps * cos)
            mag = (re * re + im * im).sqrt()
            (m, m_margin), (r, r_margin) = rounded12(mag), rounded12(mag / len(ws))
            print(n, k, m, r, f"{m_margin:.1e}", f"{r_margin:.1e}", flush=True)


if __name__ == "__main__":
    main(map(int, sys.argv[1:]))
