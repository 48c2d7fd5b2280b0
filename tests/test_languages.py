from __future__ import annotations

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signalgame.errors import CapExceededError
from signalgame.languages import LanguageTable, get_table, language_count

from reference import (
    Language,
    Profile,
    avg_fitness,
    trace_raising_neighbor,
    cross_trace,
    delta_scaled,
    disk,
    enumerate_languages,
    fitness_scaled,
    hamming_q,
    is_aligned,
    is_optimal,
    permute,
    potential_scaled,
)

SHAPES = [(2, 2), (2, 3), (3, 2), (3, 3)]


def lang(m, n, speak, hear):
    return Language(m, n, tuple(speak), tuple(hear))


@st.composite
def language_pairs(draw):
    m, n = draw(st.sampled_from(SHAPES))
    count = language_count(m, n)
    a = Language.from_id(m, n, draw(st.integers(0, count - 1)))
    b = Language.from_id(m, n, draw(st.integers(0, count - 1)))
    c = Language.from_id(m, n, draw(st.integers(0, count - 1)))
    return a, b, c


@st.composite
def profiles_with_deviation(draw):
    m, n = draw(st.sampled_from(SHAPES))
    count = language_count(m, n)
    N = draw(st.integers(2, 5))
    ids = [draw(st.integers(0, count - 1)) for _ in range(N)]
    agent = draw(st.integers(0, N - 1))
    new_id = draw(st.integers(0, count - 1))
    profile = Profile.from_ids(m, n, ids)
    deviated = Profile.from_ids(m, n, ids[:agent] + [new_id] + ids[agent + 1:])
    return profile, deviated, agent


class TestCrossTrace:
    def test_identity(self):
        ident = lang(3, 3, (0, 1, 2), (0, 1, 2))
        assert cross_trace(ident, ident) == 3

    def test_aligned_pair(self):
        # P maps objects 0,1,2 to symbols 1,2,0; Q maps symbols back accordingly
        a = lang(3, 3, (1, 2, 0), (2, 2, 2))
        b = lang(3, 3, (0, 0, 0), (2, 0, 1))
        assert cross_trace(a, b) == 3

    def test_direct_sum(self):
        a = lang(2, 2, (0, 0), (0, 0))
        b = lang(2, 2, (1, 1), (0, 1))
        assert cross_trace(a, b) == 1

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            cross_trace(lang(2, 2, (0, 0), (0, 0)), lang(2, 3, (0, 0), (0, 0, 0)))

    @given(language_pairs())
    def test_bounds_and_alignment(self, langs):
        a, b, _ = langs
        value = cross_trace(a, b)
        assert 0 <= value <= min(a.m, a.n)
        assert is_aligned(a) == (cross_trace(a, a) == min(a.m, a.n))


class TestFitnessAndPotential:
    def test_homogeneous_aligned(self):
        al = lang(2, 2, (0, 1), (0, 1))
        profile = Profile((al,) * 3)
        assert fitness_scaled(profile, 0) == 8
        # potential shares the (N-1) fitness scale: (N-1) * Phi with Phi = 6
        assert potential_scaled(profile) == 12
        assert avg_fitness(profile) == 4

    def test_mixed_profile(self):
        al = lang(2, 2, (0, 1), (0, 1))
        sw = lang(2, 2, (1, 0), (1, 0))
        profile = Profile((al, al, sw))
        assert [fitness_scaled(profile, i) for i in range(3)] == [4, 4, 0]
        assert avg_fitness(profile) == Fraction(4, 3)

    def test_two_agents_symmetric(self):
        a = lang(2, 2, (0, 1), (1, 0))
        b = lang(2, 2, (1, 1), (0, 1))
        profile = Profile((a, b))
        expected = cross_trace(a, b) + cross_trace(b, a)
        assert fitness_scaled(profile, 0) == expected
        assert fitness_scaled(profile, 1) == expected

    def test_empty_communication(self):
        # crossed maps: speak sends i to symbol i, hear returns it to 1-i
        dead = lang(2, 2, (0, 1), (1, 0))
        profile = Profile((dead,) * 3)
        assert cross_trace(dead, dead) == 0
        assert potential_scaled(profile) == 0

    def test_homogeneous_unaligned_average(self):
        half = lang(2, 2, (0, 0), (0, 0))
        assert cross_trace(half, half) == 1
        assert avg_fitness(Profile((half,) * 4)) == 2

    def test_index_out_of_range(self):
        profile = Profile((lang(2, 2, (0, 1), (0, 1)),) * 2)
        with pytest.raises(IndexError):
            fitness_scaled(profile, 2)

    @given(profiles_with_deviation())
    @settings(max_examples=200)
    def test_potential_identity(self, case):
        profile, deviated, agent = case
        lhs = potential_scaled(deviated) - potential_scaled(profile)
        rhs = fitness_scaled(deviated, agent) - fitness_scaled(profile, agent)
        assert lhs == rhs


class TestHamming:
    def test_zero_iff_equal(self):
        a = lang(2, 2, (0, 1), (1, 0))
        assert hamming_q(a, a) == 0

    def test_single_speak_entry(self):
        a = lang(2, 2, (0, 1), (0, 1))
        b = lang(2, 2, (1, 1), (0, 1))
        assert hamming_q(a, b) == 2

    def test_matrix_form_agreement(self):
        # independent oracle: rebuild the binary matrices and count cell flips
        def matrix_diff(a, b):
            total = 0
            for i in range(a.m):
                for j in range(a.n):
                    total += abs((a.speak[i] == j) - (b.speak[i] == j))
                    total += abs((a.hear[j] == i) - (b.hear[j] == i))
            return total

        langs = enumerate_languages(2, 2)
        for a in langs:
            for b in langs:
                assert hamming_q(a, b) == matrix_diff(a, b)

    @given(language_pairs())
    def test_metric(self, langs):
        a, b, c = langs
        assert hamming_q(a, b) == hamming_q(b, a)
        assert (hamming_q(a, b) == 0) == (a == b)
        assert hamming_q(a, c) <= hamming_q(a, b) + hamming_q(b, c)
        assert hamming_q(a, b) % 2 == 0


class TestDisk:
    def test_radius_zero(self):
        a = lang(2, 2, (0, 1), (0, 1))
        assert disk(a, 0) == [a]

    def test_m2n2_sizes(self):
        a = lang(2, 2, (0, 1), (0, 1))
        assert len(disk(a, 1)) == 11
        assert len(disk(a, 2)) == 16
        assert len(disk(a, 3)) == 16

    def test_monotone_and_center(self):
        a = lang(3, 2, (0, 1, 0), (1, 2))
        smaller, larger = disk(a, 1), disk(a, 2)
        assert a in smaller
        assert set(l.id for l in smaller) <= set(l.id for l in larger)

    def test_canonical_order(self):
        a = lang(2, 2, (1, 0), (0, 1))
        ids = [l.id for l in disk(a, 1)]
        assert ids == sorted(ids)

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            disk(lang(2, 2, (0, 1), (0, 1)), -1)


class TestAlignment:
    def test_identity_language(self):
        assert is_aligned(lang(3, 3, (0, 1, 2), (0, 1, 2)))

    def test_aligned_count_3x3(self):
        assert sum(is_aligned(l) for l in enumerate_languages(3, 3)) == 6

    def test_pooling_not_aligned(self):
        assert not is_aligned(lang(2, 2, (0, 0), (0, 1)))

    def test_is_optimal(self):
        al = lang(2, 2, (0, 1), (0, 1))
        sw = lang(2, 2, (1, 0), (1, 0))
        pool = lang(2, 2, (0, 0), (0, 0))
        assert is_optimal(Profile((al, al, al)))
        assert not is_optimal(Profile((pool, pool, pool)))
        assert not is_optimal(Profile((al, al, sw)))


class TestPermute:
    def test_identity(self):
        a = lang(3, 2, (0, 1, 1), (1, 2))
        assert permute(a, (0, 1, 2)) == a

    def test_swap_on_aligned(self):
        a = lang(2, 2, (0, 1), (0, 1))
        swapped = permute(a, (1, 0))
        assert swapped.speak == (1, 0) and swapped.hear == (1, 0)

    def test_not_a_bijection(self):
        with pytest.raises(ValueError):
            permute(lang(2, 2, (0, 1), (0, 1)), (0, 0))

    @given(language_pairs(), st.data())
    def test_trace_invariance(self, langs, data):
        a, b, _ = langs
        sigma = tuple(data.draw(st.permutations(range(a.m))))
        assert cross_trace(permute(a, sigma), permute(b, sigma)) == cross_trace(a, b)
        assert cross_trace(a, a) == cross_trace(permute(a, sigma), permute(a, sigma))


class TestDeltaAndTraceRaising:
    def test_two_agents_vanish(self):
        a = lang(2, 2, (0, 0), (0, 0))
        b = lang(2, 2, (1, 0), (1, 1))
        assert delta_scaled(a, b, 2) == 0

    def test_same_language(self):
        a = lang(2, 2, (0, 1), (0, 1))
        assert delta_scaled(a, a, 5) == 0

    def test_hand_example(self):
        a = lang(2, 2, (0, 0), (0, 0))
        nb = trace_raising_neighbor(a)
        assert nb.speak == (0, 1) and nb.hear == (0, 1)
        assert cross_trace(nb, nb) == 2

    def test_rejects_aligned(self):
        with pytest.raises(ValueError):
            trace_raising_neighbor(lang(2, 2, (0, 1), (0, 1)))

    @pytest.mark.parametrize("m,n", SHAPES)
    def test_exhaustive_guarantees(self, m, n):
        for language in enumerate_languages(m, n):
            if is_aligned(language):
                continue
            nb = trace_raising_neighbor(language)
            assert cross_trace(nb, nb) == cross_trace(language, language) + 1
            assert hamming_q(language, nb) <= 4
            for N in (2, 3, 5, 10):
                assert delta_scaled(language, nb, N) <= 0


class TestIds:
    @pytest.mark.parametrize("m,n", SHAPES)
    def test_roundtrip_all(self, m, n):
        for lid in range(language_count(m, n)):
            language = Language.from_id(m, n, lid)
            assert language.id == lid

    def test_id_formula(self):
        a = lang(2, 3, (2, 1), (0, 1, 1))
        speak_index = 2 * 3**0 + 1 * 3**1
        hear_index = 0 * 2**0 + 1 * 2**1 + 1 * 2**2
        assert a.id == speak_index * 2**3 + hear_index

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            Language.from_id(2, 2, 16)


class TestValidation:
    def test_speak_range(self):
        with pytest.raises(ValueError):
            lang(2, 2, (0, 2), (0, 1))

    def test_hear_range(self):
        with pytest.raises(ValueError):
            lang(2, 2, (0, 1), (0, 2))

    def test_lengths(self):
        with pytest.raises(ValueError):
            lang(2, 2, (0, 1, 0), (0, 1))

    def test_profile_shape_mix(self):
        with pytest.raises(ValueError):
            Profile((lang(2, 2, (0, 1), (0, 1)), lang(2, 3, (0, 1), (0, 1, 0))))


class TestLanguageTable:
    @pytest.mark.parametrize("m,n", SHAPES)
    def test_matches_scalar_functions(self, m, n):
        table = get_table(m, n)
        langs = enumerate_languages(m, n)
        rng = np.random.default_rng(0)
        aligned_mask = np.isin(np.arange(table.size), table.aligned_ids)
        for _ in range(200):
            x, y = rng.integers(0, table.size, 2)
            assert table.payoff[x, x] // 2 == cross_trace(langs[x], langs[x])
            assert (y in table.disks(1)[x]) == (hamming_q(langs[x], langs[y]) <= 4)
            assert table.payoff[x, y] == cross_trace(langs[x], langs[y]) + cross_trace(langs[y], langs[x])
        assert [bool(f) for f in aligned_mask] == [is_aligned(l) for l in langs]

    @pytest.mark.parametrize("m,n", SHAPES)
    def test_tables_match_broadcast_reference(self, m, n):
        # Whole tables against the (K, K, m)-temporary broadcast formulas, on the (K, m)
        # speaking and (K, n) hearing maps of the languages in id order.
        table, langs = get_table(m, n), enumerate_languages(m, n)
        speak, hear = np.array([l.speak for l in langs]), np.array([l.hear for l in langs])
        cross = (hear[:, speak] == np.arange(m)).sum(axis=2).T
        speak_diffs = (speak[:, None, :] != speak[None, :, :]).sum(axis=2)
        hear_diffs = (hear[:, None, :] != hear[None, :, :]).sum(axis=2)
        assert np.array_equal(table.payoff, cross + cross.T)
        hamming = 2 * (speak_diffs + hear_diffs)
        for d in (1, 2):
            assert all(np.array_equal(members, np.flatnonzero(row <= 4 * d))
                       for members, row in zip(table.disks(d), hamming))
        assert table.payoff.dtype == np.int16

    def test_disks_match(self):
        table = get_table(2, 2)
        langs = enumerate_languages(2, 2)
        for d in (0, 1, 2):
            lists = table.disks(d)
            for lid, language in enumerate(langs):
                assert [int(x) for x in lists[lid]] == [l.id for l in disk(language, d)]

    @pytest.mark.parametrize("m,n", SHAPES)
    def test_disks_are_int16_and_match_reference(self, m, n):
        table, langs = get_table(m, n), enumerate_languages(m, n)
        sample = np.random.default_rng(m * n).choice(table.size, min(table.size, 6), replace=False)
        for d in (1, 2):
            lists = table.disks(d)
            assert all(members.dtype == np.int16 for members in lists)
            for lid in sample:
                assert lists[lid].tolist() == [l.id for l in disk(langs[lid], d)]

    def test_fresh_table_holds_payoff_and_disks_only(self):
        # disks() builds no K x K table, so 729 languages hold a 1.0 MiB int16 payoff, once
        # read, and 1.0 MiB of int16 disks (every language lies within d = 3), where int64
        # disks and three K x K tables held about 7.3 MiB.
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            table = LanguageTable(3, 3)
            table.payoff
            lists = table.disks(3)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            if started:
                tracemalloc.stop()
        assert held < 2.5 * 2**20
        assert all(members.dtype == np.int16 for members in lists)
        assert all(members.tolist() == list(range(729)) for members in lists)

    def test_payoff_is_built_on_first_read(self):
        table = LanguageTable(2, 3)
        assert "payoff" not in vars(table)
        assert not any(isinstance(value, np.ndarray) and value.size >= table.size**2
                       for value in vars(table).values())
        payoff = table.payoff
        assert "payoff" in vars(table) and table.payoff is payoff
        assert payoff.shape == (table.size, table.size) and payoff.dtype == np.int16

    def test_fitness_ids(self):
        table = get_table(2, 3)
        rng = np.random.default_rng(1)
        ids = rng.integers(0, table.size, size=4)
        profile = Profile.from_ids(2, 3, ids)
        expected = [fitness_scaled(profile, i) for i in range(4)]
        assert table.fitness_scaled_ids(ids).tolist() == expected

    def test_fitness_ids_batch(self):
        table = get_table(3, 3)
        rng = np.random.default_rng(2)
        batch = rng.integers(0, table.size, size=(50, 4))
        scores = table.fitness_scaled_ids(batch)
        assert scores.shape == batch.shape
        for ids, row in zip(batch, scores):
            assert row.tolist() == table.fitness_scaled_ids(ids).tolist()

    def test_cap(self):
        with pytest.raises(CapExceededError):
            LanguageTable(4, 4)  # 65,536 languages

    @pytest.mark.parametrize("m,n", [(1, 2), (2, 1), (0, 3)])
    def test_degenerate_shape_rejected(self, m, n):
        with pytest.raises(ValueError, match="need m >= 2 and n >= 2"):
            LanguageTable(m, n)

    def test_cache_identity(self):
        assert get_table(2, 2) is get_table(2, 2)
