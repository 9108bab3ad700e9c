import tracemalloc

import numpy as np
import pytest

from sboxtraj import (
    RngStream,
    SBoxError,
    ccv,
    ccv_key,
    kappa_profile,
    ls_hwf,
    random_bijective_sbox,
    swap_outputs,
)
from sboxtraj.search import _convolve, _gains, _swap, check_search_width

from builders import bijection_and_draws
from oracles import hw, ls_hwf_batched, swap_deltas, xor_convolution_direct


def exhaustively_locally_optimal(sbox):
    """Independent check: no weight-differing swap strictly improves the key,
    each candidate evaluated by full recomputation."""
    base = ccv_key(sbox).key
    for i in range(sbox.size - 1):
        for j in range(i + 1, sbox.size):
            if hw(sbox.table[i]) == hw(sbox.table[j]):
                continue
            if ccv_key(swap_outputs(sbox, i, j)).key > base:
                return False
    return True


def incumbents(result):
    """The S-box after each event, replayed from the initial one."""
    sbox = result.initial
    for event in result.events:
        sbox = swap_outputs(sbox, event.i, event.j)
        yield sbox


def assert_keys_recompute(result):
    """Every event's incremental key equals a full recomputation."""
    for event, sbox in zip(result.events, incumbents(result)):
        assert event.ccv_key_after == ccv_key(sbox)


class TestLsHwf:
    def test_deterministic(self):
        a = ls_hwf(4, RngStream(7))
        b = ls_hwf(4, RngStream(7))
        assert a.final == b.final
        assert a.initial == b.initial
        assert [(e.i, e.j) for e in a.events] == [(e.i, e.j) for e in b.events]
        assert (a.evaluations, a.passes) == (b.evaluations, b.passes)

    def test_rejects_bad_width(self):
        with pytest.raises(SBoxError):
            ls_hwf(1, RngStream(0))
        with pytest.raises(SBoxError):  # past MAX_SEARCH_WIDTH
            ls_hwf(13, RngStream(0))

    @pytest.mark.parametrize("n", [13, 17, 10**20])
    def test_width_range_checked_before_bounds(self, n, bounds_only_in_range):
        with pytest.raises(SBoxError):
            check_search_width(n)

    def test_final_not_worse_than_initial(self):
        for seed in range(6):
            result = ls_hwf(4, RngStream(seed))
            assert ccv(result.final) >= ccv(result.initial)
            if result.events:
                assert ccv(result.final) > ccv(result.initial)

    def test_keys_strictly_increase(self):
        result = ls_hwf(5, RngStream(3))
        keys = [ccv_key(result.initial).key] + [e.ccv_key_after.key for e in result.events]
        assert all(b > a for a, b in zip(keys, keys[1:]))

    def test_event_stream_replays_to_final(self):
        result = ls_hwf(4, RngStream(11))
        sbox = result.initial
        for event in result.events:
            # the swapped outputs must differ in weight at the moment of the swap
            assert hw(sbox.table[event.i]) != hw(sbox.table[event.j])
            sbox = swap_outputs(sbox, event.i, event.j)
            assert event.ccv_key_after == ccv_key(sbox)
            assert sorted(sbox.table) == list(range(16))
        assert sbox == result.final

    def test_event_metadata(self):
        result = ls_hwf(4, RngStream(2))
        assert [e.climb_index for e in result.events] == list(
            range(1, len(result.events) + 1)
        )
        assert_keys_recompute(result)

    def test_incremental_agrees_with_recompute(self):
        result = ls_hwf(5, RngStream(13))
        assert result.events
        assert_keys_recompute(result)

    @pytest.mark.parametrize("seed", range(5))
    def test_final_is_local_optimum(self, seed):
        result = ls_hwf(4, RngStream(seed))
        assert exhaustively_locally_optimal(result.final)

    def test_small_space_terminates(self):
        result = ls_hwf(2, RngStream(1))
        assert_keys_recompute(result)
        assert exhaustively_locally_optimal(result.final)

    def test_run_metadata(self):
        rng = RngStream(42, (3,))
        result = ls_hwf(4, rng)
        assert result.passes >= 1
        assert result.evaluations > 0

    def test_failed_int64_bound_raises_before_building(self, monkeypatch):
        import sboxtraj.search as search_mod

        def must_not_build(*args):
            raise AssertionError("built an S-box for an unsupported width")

        monkeypatch.setattr(search_mod, "_int64_bounds", lambda n: (2**63,))
        monkeypatch.setattr(search_mod, "random_bijective_sbox", must_not_build)
        with pytest.raises(SBoxError):
            ls_hwf(4, RngStream(6))

    def test_width_12_completes_without_snapshots(self):
        # Events carry no S-box, so memory stays O(2^n), not O(climbs 2^n).
        tracemalloc.start()
        try:
            result = ls_hwf(12, RngStream(2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sorted(result.final.table) == list(range(4096))
        assert result.events
        assert ccv_key(result.final) == result.events[-1].ccv_key_after
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_oracle_climber(self, n):
        for seed in range(3):
            result = ls_hwf(n, RngStream(seed, (n,)))
            events, evaluations, passes, final = ls_hwf_batched(result.initial.table.tolist(), n)
            got = [(e.i, e.j, e.ccv_key_after) for e in result.events]
            assert [(i, j, k.n, k.sum_s, k.sum_s2, k.key) for i, j, k in got] == events
            assert (result.evaluations, result.passes) == (evaluations, passes)
            assert tuple(result.final.table.tolist()) == final


class TestSwapKernel:
    """The closed-form gain and the O(2^n) update against the oracle."""

    @staticmethod
    def state(sbox):
        h = np.array([hw(v) for v in sbox.table], dtype=np.int64)
        s = kappa_profile(sbox).copy()
        return h, s, _convolve(h, s)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_gain_equals_oracle_dsum2(self, n):
        sbox = random_bijective_sbox(n, RngStream(n, (5,)))
        h, s, g = self.state(sbox)
        assert np.array_equal(g, xor_convolution_direct(h, s))
        positions = np.arange(sbox.size)
        for i in range(sbox.size - 1):
            js = positions[i + 1 :][h[i + 1 :] != h[i]]
            if js.size == 0:
                continue
            _ds, dsum, dsum2 = swap_deltas(h, s, i, js)
            assert not dsum.any()
            assert np.array_equal(_gains(h, s, g, i, js), dsum2)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_update_equals_recompute(self, n):
        sbox, rnd = bijection_and_draws(n, n, (6,))
        h, s, g = self.state(sbox)
        swaps = 0
        while swaps < 6:
            i, j = rnd.randrange(sbox.size), rnd.randrange(sbox.size)
            if h[i] == h[j]:
                continue
            swaps += 1
            _swap(h, s, g, i, j)
            sbox = swap_outputs(sbox, i, j)
            assert np.array_equal(h, [hw(v) for v in sbox.table])
            assert np.array_equal(s, kappa_profile(sbox))
            assert np.array_equal(g, xor_convolution_direct(h, s))
