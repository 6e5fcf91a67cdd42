"""Distribution statistics of normalized witnesses w/n in the unit interval.

Covers binned histograms, interval-count deviations, the exact star
discrepancy of the normalized witness set, and batteries of normalized
frequency sums |S_k| / #W -- the quantities whose joint decay expresses
equidistribution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .arith import is_prime
from .errors import DomainError
from .expsums import _phase_sum
from .witness import classify_all, least_witness

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


def histogram(n: int, bin_count: int) -> HistogramReport:
    if bin_count < 1:
        raise DomainError(f"need at least one bin, got {bin_count}")
    if is_prime(n):
        raise DomainError(f"{n} is prime: witness set empty")
    if n * bin_count >= _INT64_MAX:
        raise DomainError("n * bin_count too large for exact integer binning")
    scan = classify_all(n)
    ws = scan.witnesses
    # integer bin rule: no float boundary wobble
    counts = np.bincount(ws * bin_count // n, minlength=bin_count)
    total = int(len(ws))
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

    The interval is closed; boundary hits count in.
    """
    if not 0.0 <= a < b <= 1.0:
        raise DomainError(f"need 0 <= a < b <= 1, got [{a}, {b}]")
    scan = classify_all(n)
    ws = scan.witnesses
    if len(ws) == 0:
        raise DomainError(f"{n} has no witnesses")
    inside = int(np.count_nonzero((ws >= a * n) & (ws <= b * n)))
    fraction = inside / len(ws)
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


def star_discrepancy(n: int) -> float:
    """D* of the normalized witness set of n."""
    scan = classify_all(n)
    if scan.counts.witness == 0:
        raise DomainError(f"{n} has no witnesses")
    return star_discrepancy_points(scan.witnesses / n)


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
    for k in range(1, k_max + 1):
        mag = abs(_phase_sum(ws, k, n))
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
    ws = full.witnesses
    count = len(ws)
    if count == 0:
        raise DomainError(f"{n} has no witnesses")
    dstar = star_discrepancy_points(ws / n)
    ratios = tuple(abs(_phase_sum(ws, k, n)) / count for k in range(1, k_max + 1))
    lw, _ = least_witness(n)
    flatness = None
    if bins is not None:
        if bins < 1:
            raise DomainError(f"need at least one bin, got {bins}")
        counts = np.bincount(ws * bins // n, minlength=bins)
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
