"""The pure-Python seeded stream and samplers give the installed numpy's bits.

``draws.seeded_doubles`` is ``np.random.default_rng(seed).random()``
(SeedSequence, PCG64 with XSL-RR output, next_double), ``poisson_draw`` is
numpy's scalar ``random_poisson`` and ``geometric_search`` its
``random_geometric_search``, which ``geometric_pair_sums`` takes below
``DRAWS_MIN`` draws.  Each is compared with numpy draw for draw,
and the stream's position after each sampler with numpy's, so a sampler
that took one uniform too many or too few shows.
"""

import math
from itertools import islice

import pytest

from relgauge import draws
from relgauge.errors import DomainError
from relgauge.draws import DRAWS_MIN, geometric_pair_sums, geometric_search, poisson_draw, seeded_doubles
from relgauge.draws import uniforms

np = pytest.importorskip("numpy")
hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

SEEDS = st.integers(0, 2**32) | st.integers(0, 2**64 + 2**32) | st.integers(2**127, 2**130) | st.sampled_from(
    [0, 1, 7, 2**32 - 1, 2**32, 2**40 + 7, 2**64 - 1, 2**64, 2**64 + 3, 2**128 - 1, 2**128, 1016164991]
)


@hypothesis.settings(max_examples=60, deadline=None, database=None)
@hypothesis.given(seed=SEEDS, n=st.integers(0, 40) | st.sampled_from([DRAWS_MIN - 1, DRAWS_MIN]))
def test_stream_is_default_rngs_on_both_sides_of_the_threshold(seed, n):
    expected = np.random.default_rng(seed).random(n)
    assert list(islice(seeded_doubles(seed), n)) == expected.tolist()
    got = uniforms(seed, n)
    assert type(got) is (list if n < DRAWS_MIN else np.ndarray)
    assert list(got) == expected.tolist()


@pytest.mark.parametrize("seed", [-1, -(2**70), 1.0, "7", np.int64(3)])
@pytest.mark.parametrize("n", [0, DRAWS_MIN])
def test_bad_seed_is_the_same_domain_error_on_both_paths(seed, n):
    with pytest.raises(DomainError, match=r"^seed must be a non-negative integer, got ") as listed:
        uniforms(seed, n)
    with pytest.raises(DomainError) as numpys:
        draws.seeded_rng(seed)
    assert str(listed.value) == str(numpys.value)
    with pytest.raises(DomainError):
        seeded_doubles(seed)
    with pytest.raises(DomainError):
        geometric_pair_sums(seed, 0.5, n)


POISSON_MEANS = [
    0.0, 1e-300, 1e-2, 0.1, 0.5, 1.0, 2.5, 5.0, 9.5, math.nextafter(10.0, 0.0), 10.0, math.nextafter(10.0, 11.0),
    10.5, 15.0, 30.0, 100.0, 1e3, 1e4, 1e9, 1e15, (2**63 - 1) - 10 * math.sqrt(2**63 - 1),
]


@pytest.mark.parametrize("seed", range(60))
def test_poisson_draws_are_numpys(seed):
    """Each mean three times, from one stream: below 10 the multiplication method, from 10 on PTRS."""
    doubles, rng = seeded_doubles(seed), np.random.default_rng(seed)
    for mean in POISSON_MEANS * 3:
        assert poisson_draw(doubles, mean) == int(rng.poisson(mean)), mean
    assert next(doubles) == rng.random()


@pytest.mark.parametrize("mean", [1e-2, 3.0, 10.0, 11.3, 1e4])
def test_long_poisson_runs_stay_in_step_with_numpy(mean):
    """20,000 draws at one mean: the rejection branches of PTRS are all taken."""
    doubles, rng = seeded_doubles(42), np.random.default_rng(42)
    assert [poisson_draw(doubles, mean) for _ in range(20_000)] == rng.poisson(mean, 20_000).tolist()
    assert next(doubles) == rng.random()


# 1 is numpy's smallest search case, its literal for 1/3 the largest, and
# 0.9478 like the success probability of the benchmark's faulttol call.
@pytest.mark.parametrize("p", [1.0, 0.333333333333333333333333, 0.9478, 0.5])
@pytest.mark.parametrize("seed", [0, 3, 2**64 + 3])
def test_geometric_search_is_numpys(seed, p):
    doubles, rng = seeded_doubles(seed), np.random.default_rng(seed)
    for size in (1000, 1000, 1):
        assert geometric_search(doubles, p, size) == rng.geometric(p, size=size).tolist()
    assert next(doubles) == rng.random()


@pytest.mark.parametrize(
    ("p", "n", "listed"),
    [
        (0.9478, 1000, True),
        (0.5, DRAWS_MIN // 2 - 1, True),
        (0.5, DRAWS_MIN // 2, False),
        (math.nextafter(1 / 3, 0.0), 10, False),
    ],
)
def test_geometric_pair_sums_leave_numpy_at_the_threshold_and_below_one_third(p, n, listed):
    sums = geometric_pair_sums(5, p, n)
    assert (type(sums) is list) == listed
    rng = np.random.default_rng(5)
    assert list(sums) == (rng.geometric(p, size=n) + rng.geometric(p, size=n)).tolist()
