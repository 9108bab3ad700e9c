import pytest

from sboxtraj import (
    RngStream,
    SBoxError,
    ccv,
    ccv_key,
    hamming_weight,
    ls_hwf,
    swap_outputs,
)

from oracles import hw


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


def assert_keys_recompute(result):
    """Every event's incremental key equals a full recomputation."""
    for event in result.events:
        assert event.ccv_key_after == ccv_key(event.sbox_after)


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
        with pytest.raises(SBoxError):  # past the int64 sweep bound
            ls_hwf(12, RngStream(0))

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
            assert hamming_weight(sbox.table[event.i]) != hamming_weight(sbox.table[event.j])
            sbox = swap_outputs(sbox, event.i, event.j)
            assert sbox == event.sbox_after
            assert sbox.is_bijective
        assert sbox == result.final

    def test_event_metadata(self):
        result = ls_hwf(4, RngStream(2))
        assert [e.climb_index for e in result.events] == list(
            range(1, len(result.events) + 1)
        )
        for event in result.events:
            assert event.ccv_key_after == ccv_key(event.sbox_after)
            assert event.ccv_after == event.ccv_key_after.value

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
        assert result.n == 4
        assert result.master_seed == 42
        assert result.seed_path == (3,)
        assert result.passes >= 1
        assert result.evaluations > 0

    def test_unsafe_sweep_raises_before_building(self, monkeypatch):
        import sboxtraj.search as search_mod

        def must_not_build(*args):
            raise AssertionError("built an S-box for an unsupported width")

        monkeypatch.setattr(search_mod, "_int64_sweep_safe", lambda *args: False)
        monkeypatch.setattr(search_mod, "random_bijective_sbox", must_not_build)
        with pytest.raises(SBoxError):
            ls_hwf(4, RngStream(6))
