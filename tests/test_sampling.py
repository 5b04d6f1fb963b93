import math
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from pathmc.errors import InvalidParameter
from pathmc.sampling import (
    CumulativeTable,
    RngStream,
    StreamingMoments,
    sample_count,
    sample_poisson,
)


def test_rng_stream_replay_is_bit_identical():
    a = RngStream(123, 4)
    b = RngStream(123, 4)
    assert [a.random() for _ in range(100)] == [b.random() for _ in range(100)]


def test_rng_stream_ids_decorrelate():
    a = RngStream(123, 0)
    b = RngStream(123, 1)
    c = RngStream(124, 0)
    xs = [a.random() for _ in range(50)]
    assert xs != [b.random() for _ in range(50)]
    assert xs != [c.random() for _ in range(50)]
    assert RngStream(7).stream_id == 0


def test_sample_count_reference_values():
    assert sample_count(0.05, 0.01, 1.0) == 9587
    assert sample_count(1.0, 4.0 / math.e, 1.0) == 4
    assert sample_count(0.1, 0.05, 0.0) == 1
    # scale invariance: doubling b quadruples the count up to rounding
    k1 = sample_count(0.01, 0.05, 1.0)
    k2 = sample_count(0.01, 0.05, 2.0)
    assert abs(k2 - 4 * k1) <= 4


def test_sample_count_monotonicity():
    assert sample_count(0.01, 0.05, 1.0) > sample_count(0.02, 0.05, 1.0)
    assert sample_count(0.05, 0.001, 1.0) > sample_count(0.05, 0.01, 1.0)
    assert sample_count(0.05, 0.01, 3.0) > sample_count(0.05, 0.01, 1.0)


def test_sample_count_validation():
    with pytest.raises(InvalidParameter):
        sample_count(0.0, 0.05, 1.0)
    with pytest.raises(InvalidParameter):
        sample_count(-0.1, 0.05, 1.0)
    with pytest.raises(InvalidParameter):
        sample_count(0.1, 0.0, 1.0)
    with pytest.raises(InvalidParameter):
        sample_count(0.1, 4.0, 1.0)
    # finite inputs whose path count overflows a float
    with pytest.raises(InvalidParameter):
        sample_count(0.05, 0.05, 1e200)
    with pytest.raises(InvalidParameter):
        sample_count(1e-200, 0.05, 1.0)
    with pytest.raises(InvalidParameter):
        sample_count(0.1, 0.05, math.inf)


def _linear_search(weights, rng):
    r = rng.random() * sum(weights)
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if r < acc:
            return i
    return len(weights) - 1


def test_cumulative_table_matches_linear_search():
    weights = [0.2, 1.3, 0.0, 0.7, 0.1]
    table = CumulativeTable(weights)
    a = RngStream(9, 1)
    b = RngStream(9, 1)
    for _ in range(5000):
        assert table.draw(a) == _linear_search(weights, b)


def test_cumulative_table_rejects_no_mass():
    with pytest.raises(InvalidParameter):
        CumulativeTable([0.0, 0.0])
    with pytest.raises(InvalidParameter):
        CumulativeTable([])


@pytest.mark.parametrize("rate", [0.5, 1.0, 2.0])
def test_sample_poisson_distribution(rate):
    rng = RngStream(1234, int(rate * 10))
    n = 200_000
    counts = Counter(sample_poisson(rate, rng) for _ in range(n))
    top = max(counts)
    empirical = np.array([counts.get(k, 0) / n for k in range(top + 1)])
    reference = stats.poisson.pmf(np.arange(top + 1), rate)
    tv = 0.5 * float(np.abs(empirical - reference).sum())
    assert tv <= 0.005


def test_sample_poisson_refuses_an_underflowing_rate():
    # exp(-760) is 0.0, so sequential coins would never stop; run in a
    # subprocess so a regression fails on the timeout instead of hanging
    code = (
        "from pathmc import RngStream\n"
        "from pathmc.errors import InvalidParameter\n"
        "from pathmc.sampling import sample_poisson\n"
        "rng = RngStream(0)\n"
        "assert abs(sample_poisson(700.0, rng) - 700) < 200\n"
        "try:\n"
        "    sample_poisson(760.0, rng)\n"
        "except InvalidParameter:\n"
        "    print('refused')\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60)
    assert out.stdout.strip() == "refused", out.stderr


def test_sample_poisson_degenerate_rate():
    rng = RngStream(5)
    assert all(sample_poisson(0.0, rng) == 0 for _ in range(20))
    with pytest.raises(InvalidParameter):
        sample_poisson(-1.0, rng)


def test_streaming_moments_match_numpy():
    rng = np.random.default_rng(31)
    values = rng.normal(size=400) + 1j * rng.normal(size=400)
    acc = StreamingMoments()
    for v in values:
        acc.add(complex(v))
    assert acc.mean == pytest.approx(values.mean(), rel=1e-12)
    assert acc.std == pytest.approx(values.std(ddof=1), rel=1e-12)


def test_streaming_moments_small_counts():
    acc = StreamingMoments()
    assert acc.std == 0.0
    acc.add(3.0)
    assert acc.mean == 3.0
    assert acc.std == 0.0


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-50, 50), min_size=0, max_size=40),
    st.lists(st.floats(-50, 50), min_size=0, max_size=40),
)
def test_streaming_moments_merge_is_consistent(left, right):
    combined = StreamingMoments()
    for v in left + right:
        combined.add(v)
    a = StreamingMoments()
    for v in left:
        a.add(v)
    b = StreamingMoments()
    for v in right:
        b.add(v)
    a.merge(b)
    assert a.count == combined.count
    assert a.mean == pytest.approx(combined.mean, rel=1e-9, abs=1e-9)
    assert a.std == pytest.approx(combined.std, rel=1e-9, abs=1e-9)
