"""The generator must follow the published splitmix64 algorithm exactly;
every downstream seed contract depends on it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airpolicy.rng import SplitMix64

M64 = (1 << 64) - 1


def reference_u64(state):
    """Independent restatement of the reference algorithm (mask arithmetic)."""
    state = (state + 0x9E3779B97F4A7C15) & M64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
    return state, z ^ (z >> 31)


def reference_stream(seed, n):
    out = []
    state = seed & M64
    for _ in range(n):
        state, z = reference_u64(state)
        out.append(z)
    return out


def test_u64_matches_reference_stream():
    for seed in (0, 1, 42, 0xDEADBEEF, M64):
        gen = SplitMix64(seed)
        assert [gen.u64() for _ in range(50)] == reference_stream(seed, 50)


def test_known_first_outputs_for_seed_zero():
    # First outputs of the reference implementation seeded with 0.
    gen = SplitMix64(0)
    assert gen.u64() == 0xE220A8397B1DCDAF
    assert gen.u64() == 0x6E789E6AA1B965F4
    assert gen.u64() == 0x06C45D188009454F


def test_uniform_is_53_bit_mantissa_of_u64():
    seed = 99
    raw = reference_stream(seed, 20)
    gen = SplitMix64(seed)
    for z in raw:
        assert gen.uniform() == (z >> 11) * 2.0 ** -53


def test_uniform_range():
    gen = SplitMix64(7)
    us = [gen.uniform() for _ in range(10000)]
    assert all(0.0 <= u < 1.0 for u in us)
    assert abs(np.mean(us) - 0.5) < 0.02


def test_spawn_child_seeded_from_next_output():
    parent = SplitMix64(5)
    expected_child_seed = reference_stream(5, 1)[0]
    child = parent.spawn()
    assert child.u64() == reference_stream(expected_child_seed, 1)[0]
    # Parent stream continues where the spawn left off.
    assert parent.u64() == reference_stream(5, 2)[1]


def test_spawn_streams_are_distinct():
    root = SplitMix64(3)
    a, b = root.spawn(), root.spawn()
    assert [a.u64() for _ in range(8)] != [b.u64() for _ in range(8)]


def test_randint_is_modulo_of_u64():
    seed = 17
    raw = reference_stream(seed, 30)
    gen = SplitMix64(seed)
    for z in raw:
        assert gen.randint(12) == z % 12


def test_normal_moments_and_determinism():
    gen = SplitMix64(11)
    xs = np.array(gen.normals(20000))
    assert abs(xs.mean()) < 0.03
    assert abs(xs.std() - 1.0) < 0.03
    gen2 = SplitMix64(11)
    assert np.array_equal(xs, np.array(gen2.normals(20000)))


@given(st.lists(st.integers(-1000, 1000), min_size=0, max_size=40),
       st.integers(0, 2**63))
def test_shuffle_is_a_permutation(items, seed):
    shuffled = list(items)
    SplitMix64(seed).shuffle(shuffled)
    assert sorted(shuffled) == sorted(items)


def test_shuffle_numpy_array_in_place():
    arr = np.arange(100)
    SplitMix64(4).shuffle(arr)
    assert sorted(arr.tolist()) == list(range(100))
    arr2 = np.arange(100)
    SplitMix64(4).shuffle(arr2)
    assert np.array_equal(arr, arr2)


@pytest.mark.parametrize("seed", [0, M64])
@pytest.mark.parametrize("k", [0, 1, 1000])
def test_u64_block_equals_scalar_draws(seed, k):
    block, scalar = SplitMix64(seed), SplitMix64(seed)
    got = block.u64_block(k)
    assert got.dtype == np.uint64 and got.shape == (k,)
    assert got.tolist() == [scalar.u64() for _ in range(k)]
    assert block.u64() == scalar.u64()


@pytest.mark.parametrize("seed", [0, M64])
@pytest.mark.parametrize("k", [0, 1, 1000])
def test_randints_equal_scalar_randint(seed, k):
    block, scalar = SplitMix64(seed), SplitMix64(seed)
    for bound in (1, 7, 580, M64):
        got = block.randints(bound, k)
        assert got.dtype == np.uint64
        assert got.tolist() == [scalar.randint(bound) for _ in range(k)]
    assert block.u64() == scalar.u64()


def test_randints_rejects_bounds_outside_64_bits():
    for bound in (0, -1, M64 + 1):
        with pytest.raises(ValueError):
            SplitMix64(0).randints(bound, 3)


def scalar_shuffle(gen, items):
    """Fisher-Yates one u64() at a time, the definition shuffle must match."""
    for i in range(len(items) - 1, 0, -1):
        j = gen.u64() % (i + 1)
        items[i], items[j] = items[j], items[i]


@pytest.mark.parametrize("n", [0, 1, 2, 580])
def test_shuffle_equals_scalar_fisher_yates(n):
    for seed in (0, 9, M64):
        want = list(range(n))
        ref = SplitMix64(seed)
        scalar_shuffle(ref, want)
        as_list = [f"r{i}" for i in range(n)]
        as_array = np.arange(n)
        gen_list, gen_array = SplitMix64(seed), SplitMix64(seed)
        gen_list.shuffle(as_list)
        gen_array.shuffle(as_array)
        assert as_list == [f"r{i}" for i in want]
        assert as_array.tolist() == want
        assert gen_list.u64() == gen_array.u64() == ref.u64()


def bits(xs):
    return [float(x).hex() for x in xs]


def spare_bits(gen):
    return None if gen._spare_normal is None else gen._spare_normal.hex()


@pytest.mark.parametrize("ns", [(0,), (1,), (7,), (8,), (183, 183), (3, 0, 1)],
                         ids=["0", "1", "odd", "even", "even-twice", "odd-0-1"])
@pytest.mark.parametrize("pending", [False, True], ids=["fresh", "spare-pending"])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, M64))
def test_normals_equal_scalar_normal_calls(ns, pending, seed):
    """normals(n) draws its uniforms as one block: values, state and spare
    must be those of n normal() calls, whatever spare is pending before."""
    block, scalar = SplitMix64(seed), SplitMix64(seed)
    if pending:
        assert block.normal() == scalar.normal()
        assert block._spare_normal is not None
    for n in ns:
        got = block.normals(n)
        assert isinstance(got, list) and len(got) == n
        assert bits(got) == bits(scalar.normal() for _ in range(n))
        assert block._state == scalar._state
        assert spare_bits(block) == spare_bits(scalar)
