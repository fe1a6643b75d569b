"""The vectorized string-seeded RNG kernel must be bit-exact vs `random.Random`.

`StringSeededDraws` replicates CPython's version-2 string seeding (sha512
key expansion + `init_by_array`) and the `_randbelow` rejection loop in
numpy, so the vectorized Luby kernel draws the very same stream as the
scalar engines.  These tests pin that equivalence over adversarial ids,
seeds, limits, and round indices — through both the vectorized path
(`scalar_cutoff=0`) and the scalar fallback.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.local_model.rng_kernel import SCALAR_CUTOFF, StringSeededDraws, scalar_randbelow


def expected(seed: int, uid: int, round_index: int, limit: int) -> int:
    return random.Random(f"{seed}:{uid}:{round_index}")._randbelow(limit)


class TestScalarReference:
    def test_matches_random_module(self):
        for seed, uid, rnd, limit in [
            (0, 1, 1, 7),
            (7, -3, 12, 2),
            (-12345, 10**18, 99, 1 << 20),
            (3, 123456789, 2, 3),
        ]:
            assert scalar_randbelow(seed, uid, rnd, limit) == expected(
                seed, uid, rnd, limit
            )


class TestVectorizedDraws:
    @pytest.mark.parametrize("scalar_cutoff", [0, SCALAR_CUTOFF])
    def test_exhaustive_small_space(self, scalar_cutoff):
        uids = np.arange(-5, 40, dtype=np.int64)
        draws = StringSeededDraws(9, uids, scalar_cutoff=scalar_cutoff)
        rows = np.arange(len(uids), dtype=np.int64)
        for round_index in (1, 2, 17):
            limits = (rows % 13) + 1
            got = draws.draw(rows, limits, round_index)
            want = [
                expected(9, int(uids[r]), round_index, int(limits[r]))
                for r in rows
            ]
            assert got.tolist() == want

    def test_limit_one_shortcut(self):
        uids = np.array([5, 6, 7], dtype=np.int64)
        draws = StringSeededDraws(0, uids, scalar_cutoff=0)
        got = draws.draw(
            np.arange(3, dtype=np.int64), np.ones(3, dtype=np.int64), 4
        )
        assert got.tolist() == [0, 0, 0]

    def test_subset_of_rows(self):
        # `rows` indexes into the uid table; drawing a sparse subset must
        # address the right ids.
        uids = np.arange(100, dtype=np.int64) * 17 - 30
        draws = StringSeededDraws(4, uids, scalar_cutoff=0)
        rows = np.array([3, 97, 41, 0], dtype=np.int64)
        limits = np.array([5, 300, 2, 1000], dtype=np.int64)
        got = draws.draw(rows, limits, 8)
        want = [expected(4, int(uids[r]), 8, int(l)) for r, l in zip(rows, limits)]
        assert got.tolist() == want

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=-(10**6), max_value=10**6),
        uids=st.lists(
            st.integers(min_value=-(10**9), max_value=10**12),
            min_size=1,
            max_size=40,
            unique=True,
        ),
        round_index=st.integers(min_value=1, max_value=200),
        data=st.data(),
    )
    def test_property_bit_exact(self, seed, uids, round_index, data):
        limits = data.draw(
            st.lists(
                st.integers(min_value=1, max_value=1 << 22),
                min_size=len(uids),
                max_size=len(uids),
            )
        )
        uid_arr = np.array(uids, dtype=np.int64)
        limit_arr = np.array(limits, dtype=np.int64)
        rows = np.arange(len(uids), dtype=np.int64)
        for cutoff in (0, SCALAR_CUTOFF):
            draws = StringSeededDraws(seed, uid_arr, scalar_cutoff=cutoff)
            got = draws.draw(rows, limit_arr, round_index)
            want = [
                expected(seed, u, round_index, l) for u, l in zip(uids, limits)
            ]
            assert got.tolist() == want

    def test_huge_limits_fall_back_to_scalar(self):
        # Limits at or beyond 2^32 exceed the one-word fast path; the kernel
        # must still return the exact scalar stream.
        uids = np.array([11, 22, 33], dtype=np.int64)
        draws = StringSeededDraws(1, uids, scalar_cutoff=0)
        limits = np.array([(1 << 32) + 5, 1 << 40, 6], dtype=np.int64)
        rows = np.arange(3, dtype=np.int64)
        got = draws.draw(rows, limits, 3)
        want = [expected(1, int(u), 3, int(l)) for u, l in zip(uids, limits)]
        assert got.tolist() == want

    def test_matches_random_choice_semantics(self):
        # rng.choice(seq) == seq[_randbelow(len(seq))]: the contract the
        # Luby kernel relies on.
        rng = random.Random("5:42:3")
        available = [2, 5, 9, 11]
        pick = rng.choice(available)
        draws = StringSeededDraws(5, np.array([42], dtype=np.int64), scalar_cutoff=0)
        idx = draws.draw(
            np.zeros(1, dtype=np.int64), np.array([4], dtype=np.int64), 3
        )[0]
        assert available[idx] == pick
