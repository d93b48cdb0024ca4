"""Tests for Goodman-Kruskal gamma (resolution)."""

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import normal
from repro.stats.gamma import _content_seed, _pair_counts, goodman_kruskal_gamma

from tests.oracles.stats import concordant_discordant, permutation_p_value


class TestGamma:
    def test_perfect_positive_association(self):
        x = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
        y = [0, 0, 0, 0, 0, 1, 1, 1, 1, 1]
        result = goodman_kruskal_gamma(x, y)
        assert result.gamma == pytest.approx(1.0)
        assert result.discordant == 0

    def test_perfect_negative_association(self):
        x = [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1]
        y = [0, 0, 0, 0, 0, 1, 1, 1, 1, 1]
        result = goodman_kruskal_gamma(x, y)
        assert result.gamma == pytest.approx(-1.0)

    def test_all_ties_returns_zero(self):
        result = goodman_kruskal_gamma([0.5, 0.5, 0.5], [1, 1, 1])
        assert result.gamma == 0.0
        assert result.p_value == 1.0

    def test_independent_data_not_significant(self):
        rng = np.random.default_rng(0)
        x = rng.random(40)
        y = rng.integers(0, 2, size=40)
        result = goodman_kruskal_gamma(x, y)
        assert abs(result.gamma) < 0.5

    def test_large_sample_significance(self):
        x = list(np.linspace(0, 1, 60))
        y = [0] * 30 + [1] * 30
        result = goodman_kruskal_gamma(x, y)
        assert result.is_significant

    def test_small_sample_uses_permutation(self):
        result = goodman_kruskal_gamma([0.1, 0.9], [0, 1], random_state=0)
        assert -1.0 <= result.gamma <= 1.0
        assert 0.0 < result.p_value <= 1.0

    def test_paper_example_not_significant(self, example_history, example_reference):
        """Section II-B: resolution 1.0 but p-value above 0.05 for 4 pairs."""
        latest = example_history.latest_decisions()
        pairs = list(latest)
        confidences = [latest[p].confidence for p in pairs]
        correctness = [1.0 if example_reference.is_correct(*p) else 0.0 for p in pairs]
        result = goodman_kruskal_gamma(confidences, correctness, random_state=0)
        assert result.gamma == pytest.approx(1.0)
        assert not result.is_significant

    def test_unseeded_small_sample_p_value_reproducible(self):
        """random_state=None derives a content seed: repeated evaluations agree.

        Regression: the permutation fallback used to seed from OS entropy,
        so borderline matchers' expert labels flipped between runs.
        """
        x = [0.2, 0.5, 0.9, 0.4, 0.7]
        y = [0, 0, 1, 0, 1]
        results = {goodman_kruskal_gamma(x, y).p_value for _ in range(5)}
        assert len(results) == 1

    def test_content_seed_differs_between_inputs(self):
        x = [0.2, 0.5, 0.9, 0.4, 0.7]
        first = goodman_kruskal_gamma(x, [0, 0, 1, 0, 1])
        second = goodman_kruskal_gamma(x, [1, 0, 1, 0, 0])
        # Different data gets its own permutation stream (and statistic).
        assert (first.gamma, first.p_value) != (second.gamma, second.p_value)

    def test_explicit_seed_still_honoured(self):
        x = [0.2, 0.5, 0.9, 0.4, 0.7]
        y = [0, 0, 1, 0, 1]
        seeded = goodman_kruskal_gamma(x, y, random_state=123)
        again = goodman_kruskal_gamma(x, y, random_state=123)
        assert seeded.p_value == again.p_value

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            goodman_kruskal_gamma([1, 2], [1])

    def test_requires_1d(self):
        with pytest.raises(ValueError):
            goodman_kruskal_gamma(np.zeros((2, 2)), np.zeros((2, 2)))


class TestGammaProperties:
    @given(
        st.lists(st.floats(0, 1), min_size=2, max_size=30),
        st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_bounds(self, x, seed):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 2, size=len(x))
        result = goodman_kruskal_gamma(x, y, random_state=0)
        assert -1.0 <= result.gamma <= 1.0
        assert 0.0 <= result.p_value <= 1.0

    @given(st.lists(st.floats(0, 1), min_size=4, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_antisymmetry_under_label_flip(self, x):
        y = [i % 2 for i in range(len(x))]
        flipped = [1 - v for v in y]
        forward = goodman_kruskal_gamma(x, y, random_state=0).gamma
        backward = goodman_kruskal_gamma(x, flipped, random_state=0).gamma
        assert forward == pytest.approx(-backward)


def _same_bits(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


#: Cephes switches branch at |x| = 1/sqrt(2) (erf or erfc), 1 (erfc's
#: rational form) and 8 (its second form) after ndtr scales by 1/sqrt(2),
#: and exp(-x^2/2) leaves the double range between 37.5 and 38.5.
_BOUNDARIES = [1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0)]
_TAIL_GRID = sorted(
    {0.0, 5e-324, 1e-300, 0.5, 1.96, 8.0, 37.5, 38.5, 40.0, 1e300, math.inf}
    | {v for b in _BOUNDARIES for v in (b, math.nextafter(b, 0.0), math.nextafter(b, 99.0))}
    | set(np.linspace(37.5, 38.5, 41).tolist())
)


class TestNormalTail:
    """repro's Cephes port equals ``scipy.special.ndtr`` and ``norm.sf`` bitwise."""

    @pytest.mark.parametrize("x", _TAIL_GRID)
    def test_grid(self, x):
        for value in (x, -x):
            assert _same_bits(normal.ndtr(value), scipy.special.ndtr(value))
            assert _same_bits(normal.ndtr(-value), scipy.stats.norm.sf(value))

    @pytest.mark.parametrize("x", [-0.0, math.nan, -math.inf, -1e300])
    def test_signed_zero_nan_and_infinities(self, x):
        assert _same_bits(normal.ndtr(x), scipy.special.ndtr(x))
        assert _same_bits(normal.ndtr(-x), scipy.stats.norm.sf(x))
        assert _same_bits(normal.erf(x), scipy.special.erf(x))
        assert _same_bits(normal.erfc(x), scipy.special.erfc(x))

    @given(st.floats(-40.0, 40.0, allow_nan=False, allow_infinity=False))
    @settings(max_examples=300, deadline=None)
    def test_property(self, x):
        assert _same_bits(normal.ndtr(x), scipy.special.ndtr(x))
        assert _same_bits(normal.ndtr(-x), scipy.stats.norm.sf(x))
        assert _same_bits(normal.erf(x), scipy.special.erf(x))
        assert _same_bits(normal.erfc(x), scipy.special.erfc(x))

    @pytest.mark.parametrize("seed", range(6))
    def test_gamma_p_value_matches_norm_sf(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 80))
        x = rng.random(n)
        y = (rng.random(n) < x).astype(float)
        result = goodman_kruskal_gamma(x, y)
        total = result.concordant + result.discordant
        gamma = (result.concordant - result.discordant) / total
        z = gamma * np.sqrt(total / (n * (1 - gamma**2)))
        expected = float(2.0 * scipy.stats.norm.sf(abs(z)))
        assert _same_bits(result.p_value, expected)


#: Few distinct values, so draws repeat and tie; extremes and non-finite
#: values keep products that overflow, underflow or are NaN in play.
_PAIR_VALUES = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0, -1.0]),
    st.floats(allow_nan=True, allow_infinity=True),
)


class TestPairCounts:
    """One broadcast classifies every pair exactly as the row-by-row loop."""

    @given(st.data(), st.integers(0, 12), st.integers(1, 5))
    @settings(max_examples=150, deadline=None)
    def test_matches_row_loop(self, data, n, rows):
        x = np.array(data.draw(st.lists(_PAIR_VALUES, min_size=n, max_size=n)), dtype=float)
        ys = np.array(
            [data.draw(st.lists(_PAIR_VALUES, min_size=n, max_size=n)) for _ in range(rows)],
            dtype=float,
        ).reshape(rows, n)
        with np.errstate(all="ignore"):
            concordant, discordant = _pair_counts(x, ys)
            expected = [concordant_discordant(x, y) for y in ys]
        assert expected == list(zip(concordant.tolist(), discordant.tolist()))

    @given(
        st.lists(st.sampled_from([0.1, 0.4, 0.4, 0.7, 0.9, 1.0]), min_size=2, max_size=9),
        st.data(),
        st.one_of(st.none(), st.integers(0, 2**32)),
    )
    @settings(max_examples=60, deadline=None)
    def test_permutation_p_value_matches_loop(self, x, data, seed):
        y = data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=len(x), max_size=len(x)))
        x_array, y_array = np.array(x), np.array(y)
        result = goodman_kruskal_gamma(x, y, n_permutations=50, random_state=seed)
        if result.concordant + result.discordant == 0:
            return
        state = _content_seed(x_array, y_array) if seed is None else seed
        expected = permutation_p_value(x_array, y_array, result.gamma, 50, state)
        assert _same_bits(result.p_value, expected)
