import numpy as np
import pytest
from hypothesis import given, strategies as st

from sitepick.clustering import PlanarMetric, _distance_matrix, _kmeanspp_batch
from sitepick.rng import SplitMix64, derive_seed, mix64, next_u64_table

GOLDEN = 0x9E3779B97F4A7C15
# Seeds whose counter wraps past 2**64 within the first draws.
WRAPPING_SEEDS = [0, 2**64 - 1, 2**64 - GOLDEN]

# First outputs of the generator seeded with 0, matching the original
# published C reference implementation of SplitMix64.
SEED0_REFERENCE = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
]


def test_known_answer_sequence():
    gen = SplitMix64(0)
    assert [gen.next_u64() for _ in range(5)] == SEED0_REFERENCE


def test_same_seed_same_stream():
    a = SplitMix64(987654321)
    b = SplitMix64(987654321)
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]


def test_seed_is_masked_to_64_bits():
    assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()


def test_mix64_is_a_permutation_on_samples():
    outputs = {mix64(z) for z in range(4096)}
    assert len(outputs) == 4096


def test_derive_seed_is_order_sensitive():
    assert derive_seed(7, 2, 5) != derive_seed(7, 5, 2)
    assert derive_seed(7, 2) != derive_seed(7, 2, 0)


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(0, 1000), st.integers(0, 1000))
def test_derive_seed_in_64_bit_range(base, k, run):
    seed = derive_seed(base, k, run)
    assert 0 <= seed < 2**64


def test_random_unit_interval():
    gen = SplitMix64(3)
    values = [gen.random() for _ in range(10000)]
    assert all(0.0 <= v < 1.0 for v in values)
    mean = sum(values) / len(values)
    assert abs(mean - 0.5) < 0.02


def test_randrange_bounds_and_coverage():
    gen = SplitMix64(5)
    counts = [0] * 7
    for _ in range(70000):
        counts[gen.randrange(7)] += 1
    assert min(counts) > 8500 and max(counts) < 11500


def test_randrange_rejects_nonpositive():
    gen = SplitMix64(0)
    with pytest.raises(ValueError):
        gen.randrange(0)
    with pytest.raises(ValueError):
        gen.randrange(-3)


def test_gauss_moments():
    gen = SplitMix64(99)
    draws = [gen.gauss() for _ in range(50000)]
    mean = sum(draws) / len(draws)
    var = sum((x - mean) ** 2 for x in draws) / len(draws)
    assert abs(mean) < 0.02
    assert abs(var - 1.0) < 0.03


# With six generators, tables of 6 and 12 draws are mixed as Python ints and
# the larger ones as arrays.
@pytest.mark.parametrize("count", [1, 2, 7, 40])
def test_draw_table_is_each_generators_next_outputs(count):
    seeds = WRAPPING_SEEDS + [GOLDEN, 987654321, 2**63]
    table = next_u64_table([SplitMix64(seed) for seed in seeds], count)
    assert table.dtype == np.uint64 and table.shape == (len(seeds), count)
    for seed, row in zip(seeds, table.tolist()):
        gen = SplitMix64(seed)
        assert row == [gen.next_u64() for _ in range(count)]


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5), st.integers(1, 30))
def test_draw_table_advances_each_generator_past_its_row(seeds, count):
    drawn = [SplitMix64(seed) for seed in seeds]
    stepped = [SplitMix64(seed) for seed in seeds]
    next_u64_table(drawn, count)
    for gen in stepped:
        for _ in range(count):
            gen.next_u64()
    assert [gen.next_u64() for gen in drawn] == [gen.next_u64() for gen in stepped]


@pytest.mark.parametrize("k", [1, 2, 5])
def test_seeding_advances_every_generator_by_k_draws(k):
    # Four places among five points: k = 5 falls back at its last step.
    coords = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 0.0], [1.0, 0.5], [0.3, 0.0]])
    matrix = _distance_matrix(coords, PlanarMetric())
    seeds = WRAPPING_SEEDS + [5, 6]
    rngs = [SplitMix64(seed) for seed in seeds]
    _kmeanspp_batch(matrix, k, rngs)
    for seed, rng in zip(seeds, rngs):
        gen = SplitMix64(seed)
        for _ in range(k):
            gen.next_u64()
        assert rng.next_u64() == gen.next_u64()


def test_coincident_points_fall_back_to_the_same_uniform_draws():
    # Indices pinned from a seeding that calls each generator once a step:
    # random() while a run has distances, randrange once every remaining
    # point coincides with a chosen one.
    matrix = _distance_matrix(np.zeros((6, 2)), PlanarMetric())
    chosen = _kmeanspp_batch(matrix, 5, [SplitMix64(seed) for seed in WRAPPING_SEEDS + [1]])
    assert chosen.tolist() == [[5, 2, 0, 4, 1], [5, 4, 0, 2, 3], [0, 5, 2, 1, 4], [3, 4, 5, 1, 0]]
    # Two places: every run falls back from its third center on.
    coords = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    matrix = _distance_matrix(coords, PlanarMetric())
    chosen = _kmeanspp_batch(matrix, 5, [SplitMix64(seed) for seed in range(6)])
    assert chosen.tolist() == [
        [4, 1, 0, 3, 2], [2, 3, 4, 0, 1], [2, 3, 1, 4, 0],
        [0, 3, 2, 1, 4], [2, 3, 4, 0, 1], [1, 4, 0, 2, 3],
    ]
