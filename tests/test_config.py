import hashlib
import itertools

import numpy as np
import pytest

from gsfit.config import _digest_type, derived_seed, rng


def test_a_stream_repeats_its_draws():
    assert np.array_equal(rng(5, 301, 1, 2).random(64), rng(5, 301, 1, 2).random(64))
    # a numpy integer names the same stream as the Python integer
    assert np.array_equal(rng(np.int64(5), np.uint8(1)).random(8), rng(5, 1).random(8))


def test_distinct_keys_give_distinct_first_draws():
    # a prefix against its extension, a key element against the seed, keys
    # whose digits run together, and the tags of detection's streams over
    # small seeds and variables
    keys = [(0, 101), (0, 101, 0, 0), (0, 1, 101), (1, 101), (1, 0, 1),
            (10, 1), (1, 10), (11, 0)]
    keys += [(seed, tag, v) for seed, tag, v in itertools.product(
        range(4), (101, 301, 401, 402, 501, 502, 601, 701, 702, 777, 801, 900), range(5))]
    assert len(set(keys)) == len(keys)
    firsts = {rng(*key).random() for key in keys}
    assert len(firsts) == len(keys)
    assert rng(101).random() != rng(101, 0).random()


@pytest.mark.parametrize("args", [(-1,), (0, -1), (3, 101, 2, -5)])
def test_a_negative_seed_or_key_raises(args):
    with pytest.raises(ValueError):
        rng(*args)


@pytest.mark.parametrize("args", [(1.0,), (0, 101.0), (0, "1")])
def test_a_non_integer_seed_or_key_raises(args):
    with pytest.raises(TypeError):
        rng(*args)


def test_one_stream_is_pinned():
    # a change of derivation moves every seeded output; this makes it a
    # deliberate one
    assert rng(0, 101).random(3).tolist() == [
        0.9309704048062953, 0.8670749788527652, 0.3911496546143074]


def test_a_stream_is_seeded_by_the_little_endian_words_of_its_digest():
    words = np.frombuffer(hashlib.blake2b(b"(7, 777, 2)", digest_size=32).digest(), "<u8")
    digest = _digest_type()((7, 777, 2))
    assert np.array_equal(digest.generate_state(4, np.uint64), words)
    halves = digest.generate_state(8, np.uint32).astype(np.uint64)
    assert np.array_equal(halves[0::2] | halves[1::2] << np.uint64(32), words)
    assert np.array_equal(rng(7, 777, 2).random(4),
                          np.random.Generator(np.random.PCG64(digest)).random(4))


@pytest.mark.parametrize("base, key", [(0, (1,)), (1, (2,)), (7, (3, 4)), (123, (0, 9))])
def test_derived_seed_stays_on_seed_sequence(base, key):
    want = int(np.random.SeedSequence(base, spawn_key=key).generate_state(1)[0])
    assert derived_seed(base, *key) == want
