"""The percentile rule: a tail is reported only where ten samples lie
beyond it, and the sample count goes with every summary."""

import random

import pytest

from perfbench import stats


@pytest.mark.parametrize("n", [11, 20, 37, 100, 101, 2000])
def test_tail_percentile_leaves_exactly_ten_beyond(n):
    values = random.Random(n).sample(range(10 * n), n)
    q = stats.tail_percentile(n)
    cut = stats.percentile(values, q)
    assert sum(v > cut for v in values) == stats.MIN_BEYOND


@pytest.mark.parametrize("n", [11, 20, 100, 2000])
def test_no_higher_percentile_keeps_ten_beyond(n):
    q = stats.tail_percentile(n)
    values = list(range(n))
    higher = stats.percentile(values, min(100.0, q + 100.0 / n))
    assert sum(v > higher for v in values) < stats.MIN_BEYOND


def test_too_few_samples_have_no_tail():
    assert stats.tail_percentile(10) is None
    assert stats.summarize([1.0] * 10)["tail"] is None


def test_p90_needs_a_hundred_samples():
    assert stats.supports(100, 90.0)
    assert not stats.supports(99, 90.0)


def test_summary_states_the_count():
    doc = stats.summarize([float(i) for i in range(1, 201)])
    assert doc["n"] == 200
    assert doc["p50"] == 100.5
    assert doc["p90"] == 180.0
    assert doc["p90_supported"] is True
    assert doc["tail_q"] == 95.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0)
