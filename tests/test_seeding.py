"""derive_seed and rng_from against the list-entropy seeding they reproduce."""
import itertools
import zlib

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fltbench.seeding import derive_rng, derive_seed, rng_from

MASK64 = (1 << 64) - 1
# Where numpy splits an int into one or two uint32 words, and the ends of the
# 64-bit range.
EDGES = [0, 2**32 - 1, 2**32, 2**64 - 1]


def _reference_seed(master_seed, *keys):
    """derive_seed as a Python int list handed to SeedSequence."""
    entropy = [int(master_seed) & MASK64]
    for key in keys:
        if isinstance(key, str):
            entropy.append(zlib.crc32(key.encode("utf-8")))
        else:
            entropy.append(int(key) & MASK64)
    state = np.random.SeedSequence(entropy).generate_state(2, np.uint32)
    return (int(state[0]) << 31) | (int(state[1]) & 0x7FFFFFFF)


def _reference_rng(seed):
    """rng_from as default_rng of a Python int."""
    return np.random.default_rng(int(seed) & MASK64)


def _check(master_seed, keys):
    seed = derive_seed(master_seed, *keys)
    assert seed == _reference_seed(master_seed, *keys)
    expected = _reference_rng(seed).bit_generator.state
    assert rng_from(seed).bit_generator.state == expected
    assert derive_rng(master_seed, *keys).bit_generator.state == expected


masters = st.sampled_from(EDGES) | st.integers(0, MASK64)
keys = st.lists(
    st.sampled_from(EDGES) | st.integers(-(2**64), 2**64 - 1) | st.text(max_size=12),
    max_size=4,
)


@settings(max_examples=300, deadline=None)
@given(masters, keys)
@example(0, [])
@example(2**64 - 1, ["local-train", -1, 2**32])
def test_derive_seed_and_rng_from_match_list_entropy(master_seed, key_path):
    _check(master_seed, key_path)


def test_every_pair_of_edge_values_matches():
    for master_seed, key in itertools.product(EDGES, EDGES + [-1, -(2**32), "partition"]):
        _check(master_seed, [key])
        _check(master_seed, ["client-holdout", key, 7])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(EDGES) | st.integers(-(2**64), 2**64 - 1))
def test_rng_from_matches_default_rng(seed):
    assert rng_from(seed).bit_generator.state == _reference_rng(seed).bit_generator.state
    np.testing.assert_array_equal(rng_from(seed).permutation(50),
                                  _reference_rng(seed).permutation(50))
