"""The full-residue kernels against scalar references, value for value."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrwitness import expsums
from mrwitness._scan import _POW_BLOCK, pow_all_numpy
from mrwitness.arith import is_prime
from mrwitness.witness import classify_all


def _odd_part(m: int) -> int:
    return m >> ((m & -m).bit_length() - 1) if m else 0


@st.composite
def _modulus_and_exponent(draw):
    n = draw(st.integers(min_value=1, max_value=70_000))  # 1 to 5 blocks
    e = draw(st.one_of(st.sampled_from([0, 1, 2, _odd_part(n - 1)]),
                       st.integers(min_value=0, max_value=2**31 - 1)))
    return n, e


class TestPowAll:
    @given(_modulus_and_exponent())
    @settings(max_examples=60, deadline=None)
    @example((1, 0))
    @example((1, 5))
    @example((_POW_BLOCK - 1, _POW_BLOCK - 1))
    @example((_POW_BLOCK, 3))
    @example((_POW_BLOCK + 1, _POW_BLOCK))
    @example((3 * _POW_BLOCK + 7, 2**31 - 1))
    def test_matches_builtin_pow(self, case):
        n, e = case
        got = pow_all_numpy(n, e)
        assert got.dtype == np.int64 and got.shape == (n,)
        assert got.tolist() == [pow(w, e, n) for w in range(n)]


class TestPhaseSums:
    def test_battery_equals_single_k_bitwise(self):
        # k_max = 2n covers k = n and k = 2n (index 0 everywhere) below 256;
        # above that, 16 frequencies keep the pass to about a second.
        for n in range(9, 2001, 2):
            if is_prime(n):
                continue
            ws = classify_all(n).witnesses
            k_max = 2 * n if n < 256 else 16
            battery = expsums._phase_sums(ws, k_max, n)
            single = [expsums._phase_sum(ws, k, n) for k in range(1, k_max + 1)]
            assert battery == single, n

    def test_empty_residues(self):
        assert expsums._phase_sums(np.array([], np.int64), 3, 15) == [0j, 0j, 0j]
