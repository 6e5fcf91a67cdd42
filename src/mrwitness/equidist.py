"""Distribution statistics of normalized witnesses w/n in the unit interval.

Covers binned histograms, interval-count deviations, the exact star
discrepancy of the normalized witness set, and batteries of normalized
frequency sums |S_k| / #W -- the quantities whose joint decay expresses
equidistribution.

Every statistic is read from the residues that are not witnesses, not
from the witnesses themselves.  The Weyl sums S_k are the unit sum c_n(k),
an exact integer, less the sum over the strong liars (`_weyl_sums`): at
2074757 that is 6 terms per k in place of 2,071,674.  The `weyl-routes`
suite checks them against the term-by-term witness sum.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .arith import is_prime
from .concurrency import ordered_map
from .errors import DomainError
from .expsums import MAX_FREQUENCY, _phase_sums, ramanujan_closed
from .witness import ResidueScan, classify_all

_INT64_MAX = 2**62
MAX_BINS = 10**6  # histogram bins; each is an int64 edge and a Python count


@dataclass(frozen=True)
class HistogramReport:
    """Witness counts per bin of [0, 1); bin of w is floor(bins * w / n)."""

    n: int
    bin_count: int
    counts: tuple[int, ...]
    total_witnesses: int
    mean: float
    max_abs_deviation: float
    max_relative_deviation: float
    chi_square_like: float


def _witness_scan(n: int) -> ResidueScan:
    """classify_all(n), refused when the witness set W(n) is empty."""
    scan = classify_all(n)
    if scan.counts.witness == 0:
        raise DomainError(f"{n} has no witnesses")
    return scan


def _binned(scan: ResidueScan, bins: int) -> tuple[np.ndarray, float, float]:
    """(witnesses per bin, their mean, max |count - mean|), bin of w =
    floor(bins * w / n), counted from the non-witnesses.

    Bin b holds the residues ceil(b * n / bins) <= w < ceil((b + 1) * n / bins)
    (integer arithmetic: no float boundary wobble); the non-witnesses in it
    are subtracted.  Needs n * bins < 2**62 and bins <= MAX_BINS, checked
    before the bin arrays are built.
    """
    n = scan.n
    if bins < 1:
        raise DomainError(f"need at least one bin, got {bins}")
    if n * bins >= _INT64_MAX:
        raise DomainError("n * bin_count too large for exact integer binning")
    if bins > MAX_BINS:
        raise DomainError(f"bins is limited to {MAX_BINS}, got {bins}")
    edges = -(-np.arange(bins + 1, dtype=np.int64) * n // bins)  # ceil(b * n / bins)
    counts = np.diff(edges) - np.bincount(scan.nonwitnesses * bins // n, minlength=bins)
    mean = scan.counts.witness / bins
    return counts, mean, float(np.abs(counts - mean).max())


def _check_k_max(k_max: int) -> None:
    """Before the scan: `_phase_sums` holds one complex sum per k per block."""
    if k_max < 1:
        raise DomainError(f"need k_max >= 1, got {k_max}")
    if k_max > MAX_FREQUENCY:
        raise DomainError(f"k_max is limited to {MAX_FREQUENCY}, got {k_max}")


def _weyl_sums(scan: ResidueScan, k_max: int) -> list[complex]:
    """S_k over the witnesses of scan, for k = 1..k_max, as the unit sum
    less the strong-liar sum: c_n(k) - sum of e(k*w/n) over the liars.

    c_n(k) is the exact integer `ramanujan_closed`; the liars are
    `scan.liars` concatenated in their CRT order (d-th roots, then each
    stage), which fixes the summation order, in one `_phase_sums` call.
    An odd composite n other than 9 has at most phi(n) / 4 liars (Rabin
    1980; Monier 1980), and 9 has 2 of its 6 units, so this is always the
    shorter sum; no witness is visited.
    """
    ks = range(1, k_max + 1)
    liar_sums = _phase_sums(np.concatenate(scan.liars), ks, scan.n)
    return [ramanujan_closed(scan.fac, k) - z for k, z in zip(ks, liar_sums)]


def histogram(n: int, bin_count: int) -> HistogramReport:
    """Witness counts per bin of [0, 1), with their deviations from the mean.

    Bin sizes are closed-form; only the non-witnesses (liars and residues
    sharing a factor with n, about n - phi(n) + #liars) are visited.
    """
    scan = _witness_scan(n)
    counts, mean, dev = _binned(scan, bin_count)
    return HistogramReport(
        n=n,
        bin_count=bin_count,
        counts=tuple(int(c) for c in counts),
        total_witnesses=scan.counts.witness,
        mean=mean,
        max_abs_deviation=dev,
        max_relative_deviation=dev / mean,
        chi_square_like=float(((counts - mean) ** 2 / mean).sum()),
    )


def interval_fraction(n: int, a: float, b: float) -> tuple[float, float]:
    """(fraction of witnesses with a <= w/n <= b, |fraction - (b - a)|).

    The interval is closed; boundary hits count in.  A residue w is inside
    when w >= a * n and w <= b * n in float64, that is for integer w in
    [ceil(a * n), floor(b * n)]; the witnesses inside are that range's size
    minus the non-witnesses passing the same two float comparisons.
    """
    if not 0.0 <= a < b <= 1.0:
        raise DomainError(f"need 0 <= a < b <= 1, got [{a}, {b}]")
    scan = _witness_scan(n)
    total = scan.counts.witness
    lo, hi = a * n, b * n
    span = max(0, min(n - 1, math.floor(hi)) - max(0, math.ceil(lo)) + 1)
    nw = scan.nonwitnesses
    inside = span - int(np.count_nonzero((nw >= lo) & (nw <= hi)))
    fraction = inside / total
    return fraction, abs(fraction - (b - a))


def star_discrepancy_points(points: np.ndarray) -> float:
    """Exact D* of a finite point set in [0, 1]:
    max over sorted x_i of max(i/N - x_i, x_i - (i-1)/N)."""
    x = np.sort(np.asarray(points, dtype=np.float64))
    if len(x) == 0:
        raise DomainError("discrepancy of an empty point set")
    N = len(x)
    i = np.arange(1, N + 1)
    return float(np.maximum(i / N - x, x - (i - 1) / N).max())


def _witness_discrepancy(scan: ResidueScan) -> tuple[float, int]:
    """(D* of {w / n : w a witness}, the least witness), both read off the
    runs of consecutive witnesses; see star_discrepancy."""
    n, N = scan.n, scan.counts.witness
    fences = np.concatenate(([-1], scan.nonwitnesses, [n]))
    gap = np.flatnonzero(np.diff(fences) > 1)  # a run lies between fences gap, gap + 1
    first = fences[gap] + 1
    last = fences[gap + 1] - 1
    # witness w of that run has rank i = w + 1 - gap: `gap` non-witnesses lie
    # below it.  The numerators over N * n are below 2**62 for n < 2**31.
    worst = max(int(((last + 1 - gap) * n - last * N).max()), int((first * N - (first - gap) * n).max()))
    return worst / (N * n), int(first[0])


def star_discrepancy(n: int) -> float:
    """D* of the normalized witness set of n: the maximum over the witnesses
    w_1 < ... < w_N of i/N - w_i/n and w_i/n - (i-1)/N, the exact rational
    rounded once to a float.

    Only the two ends of each run of consecutive witnesses are evaluated.
    Along a run w and i both step by 1, so i/N - w/n rises and
    w/n - (i-1)/N falls by (n - N) / (n N) per step: the first peaks at
    the run's last witness, the second at its first.  Both are taken as
    integer numerators over N * n, exact in int64, and their maximum is
    divided once by Python's correctly rounded int / int.
    """
    return _witness_discrepancy(_witness_scan(n))[0]


@dataclass(frozen=True)
class WeylRow:
    k: int
    magnitude: float
    ratio: float


def weyl_battery(n: int, k_max: int) -> list[WeylRow]:
    """|S_k| and |S_k| / #W over the witness set, for k = 1..k_max, from
    the strong liars (`_weyl_sums`)."""
    _check_k_max(k_max)
    scan = _witness_scan(n)
    count = scan.counts.witness
    return [WeylRow(k, mag, mag / count) for k, mag in enumerate(map(abs, _weyl_sums(scan, k_max)), 1)]


@dataclass(frozen=True)
class ScanRow:
    n: int
    witness_count: int
    witness_fraction: float
    star_discrepancy: float
    weyl_ratios: tuple[float, ...]
    least_witness: int
    runtime_ms: float
    flatness: float | None = None
    error: str | None = None


def scan_row(n: int, k_max: int, bins: int | None = None) -> ScanRow:
    """All per-n trend statistics; `bins` adds the histogram flatness
    max|count - mean| / mean without a second classification pass."""
    t0 = time.perf_counter()
    _check_k_max(k_max)
    full = _witness_scan(n)
    count = full.counts.witness
    dstar, least = _witness_discrepancy(full)
    ratios = tuple(abs(s) / count for s in _weyl_sums(full, k_max))
    flatness = None
    if bins is not None:
        _, mean, dev = _binned(full, bins)
        flatness = dev / mean
    ms = (time.perf_counter() - t0) * 1000.0
    return ScanRow(
        n=n,
        witness_count=count,
        witness_fraction=count / n,
        star_discrepancy=dstar,
        weyl_ratios=ratios,
        least_witness=least,
        runtime_ms=ms,
        flatness=flatness,
    )


def scan(n_values, k_max: int = 10, bins: int | None = None) -> list[ScanRow]:
    """One ScanRow per requested n, in input order, the rows run through
    `concurrency.ordered_map`.

    Per-n domain errors become rows with the `error` field set; the scan
    continues.  Any other error propagates, the first in input order: on
    the pool once every row has run, inline as soon as it is raised.
    """

    def run(n: int) -> ScanRow:
        try:
            return scan_row(n, k_max, bins)
        except DomainError as exc:
            return ScanRow(n, 0, 0.0, 0.0, (), 0, 0.0, error=str(exc))

    return ordered_map(run, n_values)


def least_odd_composite_at_least(x: int) -> int:
    """The smallest odd composite >= x."""
    n = max(x, 9)
    if n % 2 == 0:
        n += 1
    while is_prime(n):
        n += 2
    return n
