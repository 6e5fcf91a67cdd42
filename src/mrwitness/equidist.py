"""Distribution statistics of normalized witnesses w/n in the unit interval.

Covers binned histograms, interval-count deviations, the exact star
discrepancy of the normalized witness set, and batteries of normalized
frequency sums |S_k| / #W -- the quantities whose joint decay expresses
equidistribution.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .arith import is_prime
from .errors import DomainError
from .expsums import _phase_sums
from .witness import ResidueScan, classify_all, least_witness

_INT64_MAX = 2**62


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


def _bin_counts(scan: ResidueScan, bins: int) -> np.ndarray:
    """Witnesses per bin, bin of w = floor(bins * w / n), from the non-witnesses.

    Bin b holds the residues ceil(b * n / bins) <= w < ceil((b + 1) * n / bins)
    (integer arithmetic: no float boundary wobble); the non-witnesses in it
    are subtracted.  Needs n * bins < 2**62.
    """
    n = scan.n
    edges = -(-np.arange(bins + 1, dtype=np.int64) * n // bins)  # ceil(b * n / bins)
    return np.diff(edges) - np.bincount(scan.nonwitnesses * bins // n, minlength=bins)


def histogram(n: int, bin_count: int) -> HistogramReport:
    """Witness counts per bin of [0, 1), with their deviations from the mean.

    Bin sizes are closed-form; only the non-witnesses (liars and residues
    sharing a factor with n, about n - phi(n) + #liars) are visited.
    """
    if bin_count < 1:
        raise DomainError(f"need at least one bin, got {bin_count}")
    if is_prime(n):
        raise DomainError(f"{n} is prime: witness set empty")
    if n * bin_count >= _INT64_MAX:
        raise DomainError("n * bin_count too large for exact integer binning")
    scan = classify_all(n)
    counts = _bin_counts(scan, bin_count)
    total = scan.counts.witness
    mean = total / bin_count
    dev = float(np.abs(counts - mean).max())
    chi2 = float(((counts - mean) ** 2 / mean).sum()) if mean > 0 else 0.0
    return HistogramReport(
        n=n,
        bin_count=bin_count,
        counts=tuple(int(c) for c in counts),
        total_witnesses=total,
        mean=mean,
        max_abs_deviation=dev,
        max_relative_deviation=dev / mean if mean > 0 else 0.0,
        chi_square_like=chi2,
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
    scan = classify_all(n)
    total = scan.counts.witness
    if total == 0:
        raise DomainError(f"{n} has no witnesses")
    lo, hi = a * n, b * n
    span = max(0, min(n - 1, math.floor(hi)) - max(0, math.ceil(lo)) + 1)
    nw = scan.nonwitnesses
    inside = span - int(np.count_nonzero((nw >= lo) & (nw <= hi)))
    fraction = inside / total
    return fraction, abs(fraction - (b - a))


def star_discrepancy_points(points: np.ndarray) -> float:
    """Exact D* of a finite point set in [0, 1]:
    max over sorted x_i of max(i/N - x_i, x_i - (i-1)/N)."""
    return _star_discrepancy_sorted(np.sort(np.asarray(points, dtype=np.float64)))


def _star_discrepancy_sorted(x: np.ndarray) -> float:
    """star_discrepancy_points of points already in ascending order."""
    if len(x) == 0:
        raise DomainError("discrepancy of an empty point set")
    N = len(x)
    i = np.arange(1, N + 1)
    return float(np.maximum(i / N - x, x - (i - 1) / N).max())


def _witness_discrepancy(scan: ResidueScan) -> float:
    """D* of {w / n : w a witness}, from the two ends of each run of
    consecutive witnesses; see star_discrepancy."""
    n, N = scan.n, scan.counts.witness
    if N == 0:
        raise DomainError(f"{n} has no witnesses")
    fences = np.concatenate(([-1], scan.nonwitnesses, [n]))
    gap = np.flatnonzero(np.diff(fences) > 1)  # a run lies between fences gap, gap + 1
    first = fences[gap] + 1
    last = fences[gap + 1] - 1
    # witness w of that run has rank i = w + 1 - gap: `gap` non-witnesses lie below it
    return float(max(((last + 1 - gap) / N - last / n).max(), (first / n - (first - gap) / N).max()))


def star_discrepancy(n: int) -> float:
    """D* of the normalized witness set of n: the maximum over the witnesses
    w_1 < ... < w_N of i/N - w_i/n and w_i/n - (i-1)/N, equal as a float to
    star_discrepancy_points(witnesses / n).

    Only the two ends of each run of consecutive witnesses are evaluated.
    Along a run w and i both step by 1, so i/N - w/n rises and
    w/n - (i-1)/N falls by (n - N) / (n N) per step: the first peaks at
    the run's last witness, the second at its first.  This holds for the
    floats too.  N excludes every residue sharing a factor with composite
    n, so n - N >= n - phi(n) >= sqrt(n) and each step is at least
    n**-1.5 > 2**-46.5 for n < 2**31, far above the rounding of either
    term (a few units of 2**-53), so the computed values are strictly
    monotone within a run and the two maxima are the same floats.
    """
    return _witness_discrepancy(classify_all(n))


@dataclass(frozen=True)
class WeylRow:
    k: int
    magnitude: float
    ratio: float


def weyl_battery(n: int, k_max: int) -> list[WeylRow]:
    """|S_k| and |S_k| / #W over the witness set, for k = 1..k_max."""
    if k_max < 1:
        raise DomainError(f"need k_max >= 1, got {k_max}")
    scan = classify_all(n)
    ws = scan.witnesses
    count = len(ws)
    if count == 0:
        raise DomainError(f"{n} has no witnesses")
    rows = []
    for k, z in enumerate(_phase_sums(ws, k_max, n), 1):
        mag = abs(z)
        rows.append(WeylRow(k, mag, mag / count))
    return rows


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
    full = classify_all(n)
    dstar = _witness_discrepancy(full)
    ws = full.witnesses
    count = len(ws)
    ratios = tuple(abs(z) / count for z in _phase_sums(ws, k_max, n))
    lw, _ = least_witness(n)
    flatness = None
    if bins is not None:
        if bins < 1:
            raise DomainError(f"need at least one bin, got {bins}")
        counts = _bin_counts(full, bins)
        mean = count / bins
        flatness = float(np.abs(counts - mean).max() / mean) if mean > 0 else 0.0
    ms = (time.perf_counter() - t0) * 1000.0
    return ScanRow(
        n=n,
        witness_count=count,
        witness_fraction=count / n,
        star_discrepancy=dstar,
        weyl_ratios=ratios,
        least_witness=lw,
        runtime_ms=ms,
        flatness=flatness,
    )


def scan(n_values, k_max: int = 10, bins: int | None = None,
         max_workers: int | None = None) -> list[ScanRow]:
    """One ScanRow per requested n, in input order.

    Per-n domain errors become rows with the `error` field set; the scan
    continues.  Any other error propagates, the first in input order,
    whether or not distinct n are processed concurrently.
    """
    from .concurrency import thread_count

    n_values = list(n_values)
    workers = thread_count(max_workers)
    rows: list[ScanRow | None] = [None] * len(n_values)

    def run(i: int, n: int) -> None:
        try:
            rows[i] = scan_row(n, k_max, bins)
        except DomainError as exc:
            rows[i] = ScanRow(n, 0, 0.0, 0.0, (), 0, 0.0, error=str(exc))

    if workers > 1 and len(n_values) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(run, i, n) for i, n in enumerate(n_values)]
        for future in futures:
            future.result()  # re-raise what a row raised, as the serial path does
    else:
        for i, n in enumerate(n_values):
            run(i, n)
    return rows  # type: ignore[return-value]


def least_odd_composite_at_least(x: int) -> int:
    """The smallest odd composite >= x."""
    n = max(x, 9)
    if n % 2 == 0:
        n += 1
    while is_prime(n):
        n += 2
    return n
