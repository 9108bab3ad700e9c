import signal
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
import sboxtraj.sbox as sbox_mod
import sboxtraj.search as search_mod
from sboxtraj.search import _convolve, _gains, _swap, check_search_width

from builders import bijection_and_draws
from oracles import hw, ls_hwf_batched, ls_hwf_rows, swap_deltas, xor_convolution_direct


# Seconds a test may run: ls_hwf trusts its gains, so a broken swap update
# can climb without end instead of failing.
TIME_BOUND = 120


@pytest.fixture(autouse=True)
def time_bound():
    """Fail a test that runs past TIME_BOUND seconds, where SIGALRM exists."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"test ran past {TIME_BOUND} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_BOUND)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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

    def test_scan_temporaries_do_not_outlive_their_block(self):
        # At n = 9 a block's int64 temporaries are 64 KB each (16 rows of
        # 2^9 entries); beyond what the result keeps, a search holds at most
        # six at once (330 KB measured), so no block's arrays live on through
        # the swap and the next block.
        tracemalloc.start()
        try:
            result = ls_hwf(9, RngStream(9, (9,)))
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.events
        assert peak - current <= 6 * 8 * (sbox_mod.rows_within(32 << 9) << 9)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_oracle_climber(self, n):
        for seed in range(3):
            assert_climb_equals(ls_hwf(n, RngStream(seed, (n,))), n, ls_hwf_batched)


def assert_climb_equals(result, n, climber):
    """The search's events, counts and final table equal those of an oracle
    climber run from its initial table."""
    events, evaluations, passes, final = climber(result.initial.table.tolist(), n)
    got = [(e.i, e.j, e.ccv_key_after) for e in result.events]
    assert [(i, j, k.n, k.sum_s, k.sum_s2, k.key) for i, j, k in got] == events
    assert (result.evaluations, result.passes) == (evaluations, passes)
    assert tuple(result.final.table.tolist()) == final


class TestBlockScan:
    """Scanning blocks of rows at once gives the row-by-row climb."""

    @pytest.mark.parametrize("n", [9, 10, 11, 12])
    def test_matches_row_reference(self, n):
        assert_climb_equals(ls_hwf(n, RngStream(n, (22,))), n, ls_hwf_rows)

    @pytest.mark.parametrize("budget_rows", [1, 2, 3])
    @pytest.mark.parametrize("n", range(5, 9))
    def test_matches_row_reference_at_small_budgets(self, n, budget_rows, monkeypatch):
        size = 1 << n
        monkeypatch.setattr(sbox_mod, "_BLOCK_BYTES", budget_rows * (32 << n))
        blocks = []

        def spy(h, s, g, positions, i, rows, j_next):
            blocks.append((i, rows, j_next))
            return _gains(h, s, g, positions, i, rows, j_next)

        monkeypatch.setattr(search_mod, "_gains", spy)
        last_column = cut = False
        for seed in range(4):
            blocks.clear()
            result = ls_hwf(n, RngStream(seed, (n, budget_rows)))
            assert_climb_equals(result, n, ls_hwf_rows)
            assert max(rows for _i, rows, _j in blocks) == budget_rows
            assert all(rows == 1 or j_next == i + 1 for i, rows, j_next in blocks)
            last_column |= any(e.j == size - 1 for e in result.events)
            cut |= any(i + rows > size - 1 for i, rows, _j in blocks)
        # Accepting at j = 2^n - 1 moves the scan to the next row's head; a
        # block that would run past row 2^n - 2 is cut there.
        assert last_column
        assert cut == (budget_rows > 1)


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
            js = positions[i + 1 :]
            delta, eighth = _gains(h, s, g, positions, i, 1, i + 1)
            assert delta.shape == eighth.shape == (1, js.size)
            assert np.array_equal(delta[0], h[js] - h[i])
            differ = delta[0] != 0
            assert not eighth[0][~differ].any()
            if not differ.any():
                continue
            _ds, dsum, dsum2 = swap_deltas(h, s, i, js[differ])
            assert not dsum.any()
            assert np.array_equal(8 * eighth[0][differ], dsum2)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_block_equals_its_rows(self, n):
        """Each row of a block, and a row scanned from mid-row, equals that
        row scanned alone, with every pair j <= row masked to 0."""
        sbox = random_bijective_sbox(n, RngStream(n, (7,)))
        h, s, g = self.state(sbox)
        size = sbox.size
        positions = np.arange(size)
        alone = [_gains(h, s, g, positions, i, 1, i + 1) for i in range(size - 1)]
        for rows in (2, 3, size - 1):
            for i in range(size - 1):
                delta, eighth = _gains(h, s, g, positions, i, rows, i + 1)
                assert delta.shape == eighth.shape == (min(rows, size - 1 - i), size - 1 - i)
                for r in range(delta.shape[0]):
                    assert not delta[r, :r].any() and not eighth[r, :r].any()
                    assert np.array_equal(delta[r, r:], alone[i + r][0][0])
                    assert np.array_equal(eighth[r, r:], alone[i + r][1][0])
        for i in range(size - 2):
            for j_next in range(i + 2, size):
                delta, eighth = _gains(h, s, g, positions, i, 1, j_next)
                assert np.array_equal(delta[0], alone[i][0][0][j_next - i - 1 :])
                assert np.array_equal(eighth[0], alone[i][1][0][j_next - i - 1 :])

    @pytest.mark.parametrize("n", range(2, 10))
    def test_update_equals_recompute(self, n):
        sbox, rnd = bijection_and_draws(n, n, (6,))
        h, s, g = self.state(sbox)
        positions = np.arange(sbox.size)
        swaps = 0
        while swaps < 6:
            i, j = rnd.randrange(sbox.size), rnd.randrange(sbox.size)
            if h[i] == h[j]:
                continue
            swaps += 1
            _swap(h, s, g, positions, i, j)
            sbox = swap_outputs(sbox, i, j)
            assert np.array_equal(h, [hw(v) for v in sbox.table])
            assert np.array_equal(s, kappa_profile(sbox))
            assert np.array_equal(g, xor_convolution_direct(h, s))
