import math
import random

import numpy as np
import pytest

from sboxtraj import (
    RngStream,
    SBox,
    ccv,
    ccv_key,
    cross_correlation_fast,
    hw_class_shuffle,
    kappa_profile,
    mto,
    mto_beta,
    mto_beta_zero,
    random_bijective_sbox,
    rto,
    rto_beta,
    rto_beta_zero,
    swap_outputs,
    transparency_order,
)
import sboxtraj.metrics as metrics_mod
import sboxtraj.sbox as sbox_mod
from sboxtraj.metrics import _fwht_rows, _precharge_minima, _precharge_sweep, ccv_key_from_profile
from sboxtraj.sbox import MAX_WIDTH, SBoxError

from builders import bijection_and_draws, constant_sbox, identity_sbox
from oracles import (
    AES_CCV,
    AES_MTO0,
    AES_RTO0,
    AES_SBOX,
    AES_TO,
    ccv_bruteforce_ordered,
    cross_correlation_naive,
    ccv_incremental,
    cross_correlation_triple_loop,
    hw,
    kappa_profile_direct,
    mto_beta_direct,
    mto_beta_from_table,
    precharge_extremes_from_table,
    rto_beta_direct,
    rto_beta_from_table,
    swap_deltas,
    to_direct,
    to_from_table,
    walsh_hadamard_direct,
)

REL = 1e-12

# Block budgets in bytes, of the pre-charge sweep and the stacks: less than
# one row or member per block, a few rows, and the default.
SWEEP_BUDGETS = (1, 1 << 12, sbox_mod._BLOCK_BYTES)


def aes_sbox():
    return SBox(8, 8, AES_SBOX)


def core_cases(n):
    """Constant, identity, bijective, non-bijective and m != n S-boxes."""
    rng = random.Random(n)
    cases = [constant_sbox(n, n, (1 << n) - 1), identity_sbox(n)]
    cases += [random_bijective_sbox(n, RngStream(seed, (n,))) for seed in range(3)]
    for m in (n, 1, min(n + 3, MAX_WIDTH)):
        cases.append(SBox(n, m, tuple(rng.randrange(1 << m) for _ in range(1 << n))))
    return cases


class TestTransformKernel:
    """`_fwht_rows` against the direct Hadamard product, for every layout
    and for float32, float64 and integer input."""

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_direct_product(self, n):
        size = 1 << n
        ints = np.random.default_rng(n).integers(-1000, 1001, size=(2, 3, size))
        for dtype, want_dtype in ((np.float32,) * 2, (np.float64,) * 2, (np.int64, np.float64)):
            block = ints.astype(dtype)
            cases = [
                block[0, 0],  # 1-D
                block[0],  # 2-D
                block,  # 3-D
                np.asfortranarray(block[0]),
                np.asfortranarray(block),
                np.ascontiguousarray(block[0].T).T,  # a transposed view
                block[..., ::-1],  # negative strides
            ]
            for mat in cases:
                before = mat.copy()
                got = _fwht_rows(mat)
                assert got.dtype == want_dtype and got.shape == mat.shape
                assert np.array_equal(got, walsh_hadamard_direct(mat))
                assert np.array_equal(mat, before)

    def test_exact_just_below_float64_bound(self):
        check_exact_just_below(np.int64, 53)
        check_exact_just_below(np.float64, 53)

    def test_raises_at_float64_bound(self):
        check_raises_at(np.int64, 53)
        check_raises_at(np.float64, 53)
        with pytest.raises(OverflowError):
            _fwht_rows(np.array([2**62, 0], dtype=np.int64))

    def test_exact_just_below_float32_bound(self):
        check_exact_just_below(np.float32, 24)

    def test_raises_at_float32_bound(self):
        row = check_raises_at(np.float32, 24)
        # The same row as integers transforms in float64, exactly.
        assert np.array_equal(_fwht_rows(row), walsh_hadamard_direct(row))


def check_exact_just_below(dtype, bits):
    """A row of `dtype` with sum |row| = 2^bits - 1 transforms exactly; the
    odd results near 2^bits would round if any partial sum did."""
    row = np.array([2 ** (bits - 1) - 1, 2 ** (bits - 1), 0, 0, 0, 0, 0, 0], dtype=np.int64)
    want = walsh_hadamard_direct(row)
    assert int(np.abs(want).max()) == 2**bits - 1
    assert np.array_equal(_fwht_rows(row.astype(dtype)), want)
    # Each row is checked alone: two rows under the bound are exact even
    # though their total is not.
    rows = np.stack((row, -row[::-1]))
    assert np.array_equal(_fwht_rows(rows.astype(dtype)), walsh_hadamard_direct(rows))


def check_raises_at(dtype, bits):
    """A row of `dtype` with sum |row| = 2^bits raises, alone or with a row
    under the bound; returns the row as int64."""
    row = np.array([2 ** (bits - 1), -(2 ** (bits - 2)), 2 ** (bits - 2), 0], dtype=np.int64)
    with pytest.raises(OverflowError):
        _fwht_rows(row.astype(dtype))
    # One row at the bound is enough.
    with pytest.raises(OverflowError):
        _fwht_rows(np.stack((np.ones(4, dtype=np.int64), row)).astype(dtype))
    return row


class TestKappaProfile:
    def test_identity_n2(self):
        profile = kappa_profile(identity_sbox(2))
        assert profile.tolist() == [0, 4, 4, 8]

    def test_constant_all_zero(self):
        profile = kappa_profile(constant_sbox(3, 3, 6))
        assert not profile.any()

    def test_invariant_under_class_shuffle(self):
        for seed in range(10):
            sbox = random_bijective_sbox(4, RngStream(seed, (0,)))
            [shuffled] = hw_class_shuffle([sbox], [RngStream(seed, (1,))])
            assert np.array_equal(
                kappa_profile(sbox), kappa_profile(shuffled)
            )

    @pytest.mark.parametrize("n", range(2, 10))
    def test_matches_direct_loop(self, n):
        for sbox in core_cases(n):
            want = kappa_profile_direct(sbox.table, n)
            assert np.array_equal(kappa_profile(sbox), want)


class TestCcv:
    def test_constant_zero(self):
        assert ccv(constant_sbox(4, 4, 3)) == 0.0

    def test_identity_n2(self):
        assert ccv(identity_sbox(2)) == pytest.approx(2 / 9, rel=REL)

    def test_aes_frozen_oracle_value(self):
        assert ccv(aes_sbox()) == pytest.approx(AES_CCV, rel=REL)

    def test_key_fields_identity_n2(self):
        key = ccv_key(identity_sbox(2))
        assert (key.n, key.sum_s, key.sum_s2, key.key) == (2, 16, 96, 32)
        assert key.value == pytest.approx(32 / (9 * 16), rel=REL)

    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_ordered_pair_bruteforce(self, n):
        for seed in range(8):
            sbox = random_bijective_sbox(n, RngStream(seed))
            assert ccv(sbox) == pytest.approx(
                ccv_bruteforce_ordered(sbox.table, n), rel=REL
            )

    def test_bruteforce_on_non_bijective(self):
        sbox = SBox(3, 3, (0, 5, 5, 1, 7, 2, 2, 4))
        assert ccv(sbox) == pytest.approx(ccv_bruteforce_ordered(sbox.table, 3), rel=REL)


class TestCrossCorrelation:
    def test_identity_n2_table(self):
        table = cross_correlation_naive(identity_sbox(2))
        for i in range(2):
            for a in range(4):
                expected = 4 * (-1) ** ((a >> i) & 1)
                assert table[i, i, a] == expected
        assert not table[0, 1].any() and not table[1, 0].any()

    def test_zero_shift_autocorrelation(self):
        sbox = random_bijective_sbox(4, RngStream(11))
        table = cross_correlation_naive(sbox)
        for i in range(4):
            assert table[i, i, 0] == 16

    def test_constant_table(self):
        value = 0b101
        table = cross_correlation_naive(constant_sbox(3, 3, value))
        for i in range(3):
            for j in range(3):
                sign = (-1) ** (((value >> i) & 1) ^ ((value >> j) & 1))
                assert (table[i, j] == sign * 8).all()

    def test_matches_triple_loop_oracle(self):
        sbox = random_bijective_sbox(3, RngStream(4))
        oracle = cross_correlation_triple_loop(sbox.table, 3, 3)
        table = cross_correlation_naive(sbox)
        assert table.tolist() == oracle

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_fast_equals_naive(self, n):
        for seed in range(10):
            sbox = random_bijective_sbox(n, RngStream(seed))
            assert np.array_equal(cross_correlation_fast(sbox), cross_correlation_naive(sbox))

    def test_fast_equals_naive_aes(self):
        assert np.array_equal(
            cross_correlation_fast(aes_sbox()), cross_correlation_naive(aes_sbox())
        )

    def test_entry_parity(self):
        sbox = random_bijective_sbox(4, RngStream(21))
        table = cross_correlation_fast(sbox)
        assert not ((table - 16) % 2).any()
        assert int(np.abs(table).max()) <= 16

    def test_fast_table_is_read_only_int64(self):
        table = cross_correlation_fast(SBox(3, 2, (0, 1, 2, 3, 3, 2, 1, 0)))
        assert table.shape == (2, 2, 8) and table.dtype == np.int64
        with pytest.raises(ValueError):
            table[0, 0, 0] = 0

    def test_profile_is_read_only_int64(self):
        profile = kappa_profile(SBox(3, 2, (0, 1, 2, 3, 3, 2, 1, 0)))
        assert profile.shape == (8,) and profile.dtype == np.int64
        with pytest.raises(ValueError):
            profile[1] = 0


class TestTransparencyOrder:
    def test_constant_zero(self):
        assert transparency_order(constant_sbox(4, 4, 9)) == 0.0

    def test_identity_n2(self):
        assert transparency_order(identity_sbox(2)) == pytest.approx(4 / 3, rel=REL)

    def test_aes_frozen_oracle_value(self):
        assert transparency_order(aes_sbox()) == pytest.approx(AES_TO, rel=REL)

    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_direct_sum_oracle(self, n):
        for seed in range(8):
            sbox = random_bijective_sbox(n, RngStream(seed))
            assert transparency_order(sbox) == pytest.approx(
                to_direct(sbox.table, n, n), rel=REL
            )

    def test_diagonal_sum_of_either_table_agrees(self):
        sbox = random_bijective_sbox(4, RngStream(13))
        plain = transparency_order(sbox)
        assert to_from_table(cross_correlation_naive(sbox)) == plain
        assert to_from_table(cross_correlation_fast(sbox)) == plain


class TestMtoRto:
    def test_identity_mto0_zero(self):
        assert mto_beta_zero(identity_sbox(2)) == 0.0

    def test_identity_rto0(self):
        assert rto_beta_zero(identity_sbox(2)) == pytest.approx(4 / 3, rel=REL)

    def test_constant_beta_zero(self):
        sbox = constant_sbox(2, 2, 0)
        assert mto_beta_zero(sbox) == pytest.approx(-2.0, rel=REL)
        assert rto_beta_zero(sbox) == pytest.approx(-2.0, rel=REL)

    def test_aes_frozen_oracle_values(self):
        assert mto_beta_zero(aes_sbox()) == pytest.approx(AES_MTO0, rel=REL)
        assert rto_beta_zero(aes_sbox()) == pytest.approx(AES_RTO0, rel=REL)

    def test_complement_symmetry(self):
        sbox = random_bijective_sbox(4, RngStream(17))
        for beta in range(16):
            comp = beta ^ 0b1111
            assert mto_beta(sbox, beta) == mto_beta(sbox, comp)
            assert rto_beta(sbox, beta) == rto_beta(sbox, comp)

    @pytest.mark.parametrize("seed", range(4))
    def test_beta_values_match_direct_oracle(self, seed):
        sbox = random_bijective_sbox(3, RngStream(seed))
        for beta in range(8):
            assert mto_beta(sbox, beta) == pytest.approx(
                mto_beta_direct(sbox.table, 3, 3, beta), rel=REL
            )
            assert rto_beta(sbox, beta) == pytest.approx(
                rto_beta_direct(sbox.table, 3, 3, beta), rel=REL
            )

    def test_max_equals_full_beta_bruteforce(self):
        cases = [random_bijective_sbox(4, RngStream(seed, (5,))) for seed in range(6)]
        # m = 1: a single pre-charge representative.
        cases.append(SBox(3, 1, (0, 1, 1, 1, 0, 1, 0, 0)))
        # The sweep over the 2^9 representatives of n = m = 10.
        cases.append(random_bijective_sbox(10, RngStream(10, (5,))))
        for sbox in cases:
            betas = range(1 << sbox.m)
            assert mto(sbox) == max(mto_beta(sbox, b) for b in betas)
            assert rto(sbox) == max(rto_beta(sbox, b) for b in betas)

    @pytest.mark.parametrize(
        "n,m", [(6, 9), (7, 8), (9, 6), (4, 1), (5, 1), (3, 2), (5, 2), (3, 7)]
    )
    def test_full_beta_equals_oracle_max(self, n, m, monkeypatch):
        # Independent of the package's per-beta path: the maximum over every
        # beta of the reductions of the direct-summation table, at every
        # block budget of the sweep.
        rnd = random.Random(n * 100 + m)
        sbox = SBox(n, m, tuple(rnd.randrange(1 << m) for _ in range(1 << n)))
        table = cross_correlation_naive(sbox)
        betas = range(1 << m)
        expected = (
            max(mto_beta_from_table(table, b) for b in betas),
            max(rto_beta_from_table(table, b) for b in betas),
        )
        for budget in SWEEP_BUDGETS:
            monkeypatch.setattr(sbox_mod, "_BLOCK_BYTES", budget)
            _precharge_minima.cache_clear()  # the cache does not see the budget
            assert (mto(sbox), rto(sbox)) == expected, budget

    @pytest.mark.parametrize("n,m", [(3, 1), (3, 2), (4, 3), (3, 5), (4, 7), (6, 9)])
    def test_precharge_walk_visits_each_representative_once(self, n, m, monkeypatch):
        rnd = random.Random(n * 10 + m)
        sbox = SBox(n, m, tuple(rnd.randrange(1 << m) for _ in range(1 << n)))
        table = cross_correlation_naive(sbox)
        for budget in SWEEP_BUDGETS:
            monkeypatch.setattr(sbox_mod, "_BLOCK_BYTES", budget)
            # Rows of 2^L pre-charges, L the largest <= m - 1 whose int64
            # entries fit the budget; the sweep reuses its arrays, so keep a
            # copy of each row.
            low = max(k for k in range(m) if k == 0 or (8 * m << (n + k)) <= budget)
            blocks = [[row.copy() for row in block] for block in _precharge_sweep(sbox)]
            assert len(blocks) == 1 << (m - 1 - low)
            assert all(len(signs) == 1 << low for signs, _, _ in blocks)
            rows = [row for block in blocks for row in zip(*block)]
            assert len({tuple(signs.tolist()) for signs, _, _ in rows}) == len(rows)
            for signs, half, quarter in rows:
                assert set(signs.tolist()) <= {1, -1} and signs[-1] == 1
                assert np.array_equal(2 * half, np.einsum("i,ija->ja", signs, table))
                assert np.array_equal(4 * quarter, np.einsum("i,j,ija->a", signs, signs, table))

    def test_beta_out_of_range(self):
        # Out of range, or not an integer at all.
        for beta in (4, -1, 1.5, 1.0, "1"):
            with pytest.raises(ValueError):
                mto_beta(identity_sbox(2), beta)
            with pytest.raises(ValueError):
                rto_beta(identity_sbox(2), beta)

    @pytest.mark.parametrize("n", [4, 5])
    def test_inequalities(self, n):
        for seed in range(10):
            sbox = random_bijective_sbox(n, RngStream(seed, (7,)))
            to_v = transparency_order(sbox)
            mto0 = mto_beta_zero(sbox)
            rto0 = rto_beta_zero(sbox)
            assert 0.0 <= to_v <= n
            assert mto0 <= rto0 <= n
            assert mto(sbox) >= mto0
            assert rto(sbox) >= rto0


def batch_family(kind):
    """40 S-boxes of one (n, m): bijective 8x8, non-bijective 5x5, and
    non-bijective with m > n and with m < n."""
    if kind == "bijective-8":
        return [random_bijective_sbox(8, RngStream(20, (k,))) for k in range(40)]
    n, m = {"random-5": (5, 5), "n4-m7": (4, 7), "n6-m3": (6, 3)}[kind]
    rng = random.Random(kind)
    return [SBox(n, m, [rng.randrange(1 << m) for _ in range(1 << n)]) for _ in range(40)]


BATCH_KINDS = ("bijective-8", "random-5", "n4-m7", "n6-m3")


def stack_metrics(m):
    """The metrics that take a sequence, by name: TO, MTO0, RTO0, and MTO and
    RTO at three pre-charges."""
    top = (1 << m) - 1
    calls = {"to": transparency_order, "mto0": mto_beta_zero, "rto0": rto_beta_zero}
    for beta in (1, top // 3, top):
        calls[f"mto@{beta}"] = lambda sboxes, beta=beta: mto_beta(sboxes, beta)
        calls[f"rto@{beta}"] = lambda sboxes, beta=beta: rto_beta(sboxes, beta)
    return calls


class TestStacks:
    """A sequence of S-boxes gives, in order, exactly the floats of its
    members one at a time, whatever blocks it is scored in."""

    @pytest.mark.parametrize("kind", BATCH_KINDS)
    def test_sequence_equals_each(self, kind):
        family = batch_family(kind)
        calls = stack_metrics(family[0].m)
        each = {name: [f(sbox) for sbox in family] for name, f in calls.items()}
        for length in (1, 15, 16, 17, 40):
            for name, f in calls.items():
                values = f(family[:length])
                assert values == each[name][:length], (name, length)
                assert all(type(v) is float for v in values)
        assert calls["to"](tuple(family)) == each["to"]
        assert calls["mto0"](iter(family)) == each["mto0"]

    @pytest.mark.parametrize("kind", BATCH_KINDS)
    def test_block_boundaries_are_invisible(self, kind, monkeypatch):
        family = batch_family(kind)
        calls = stack_metrics(family[0].m)
        each = {name: [f(sbox) for sbox in family] for name, f in calls.items()}
        for budget in SWEEP_BUDGETS:
            monkeypatch.setattr(sbox_mod, "_BLOCK_BYTES", budget)
            assert {name: f(family) for name, f in calls.items()} == each, budget

    def test_blocks_hold_at_most_the_budget(self, monkeypatch):
        # 40 S-boxes of 8 x 2^8 float32 entries are scored 32 and 8 at a
        # time; a budget below one S-box still scores one at a time.
        stacks = []

        def recording(tables, m):
            stacks.append(tables.shape)
            return spectra(tables, m)

        assert sbox_mod._BLOCK_BYTES == 32 * 8 * 256 * 4
        spectra = metrics_mod._spectra
        monkeypatch.setattr(metrics_mod, "_spectra", recording)
        family = batch_family("bijective-8")
        transparency_order(family)
        assert stacks == [(32, 256), (8, 256)]
        stacks.clear()
        monkeypatch.setattr(sbox_mod, "_BLOCK_BYTES", 1)
        mto_beta_zero(family[:3])
        assert stacks == [(1, 256)] * 3
        stacks.clear()
        rto_beta_zero(family[0])
        assert stacks == [(1, 256)]

    def test_mixed_widths_raise(self):
        first = batch_family("random-5")[0]
        for other in (SBox(5, 4, [0] * 32), identity_sbox(4)):
            for f in stack_metrics(4).values():
                with pytest.raises(ValueError):
                    f([first, other])

    def test_empty_sequence(self):
        for f in stack_metrics(4).values():
            assert f([]) == []

    def test_beta_out_of_range(self):
        family = batch_family("n6-m3")
        for beta in (8, -1, 1.5, 1.0, "1"):
            with pytest.raises(ValueError):
                mto_beta(family, beta)
            with pytest.raises(ValueError):
                rto_beta(family[:1], beta)


class TestPrechargeCache:
    """`mto` and `rto` share one sweep through a one-entry cache keyed on the
    S-box's value."""

    @staticmethod
    def fresh(sbox):
        values = []
        for f in (mto, rto):
            _precharge_minima.cache_clear()
            values.append(f(sbox))
        return values

    def test_values_match_fresh_computation(self):
        sbox = random_bijective_sbox(5, RngStream(1))
        equal_copy = SBox(5, 5, sbox.table.tolist())
        wider = SBox(5, 6, sbox.table)  # the same table, another width
        other = random_bijective_sbox(5, RngStream(2))
        cases = (sbox, equal_copy, wider, other, sbox)
        expected = [self.fresh(s) for s in cases]
        _precharge_minima.cache_clear()
        for s, values in zip(cases, expected):
            assert [mto(s), rto(s)] == values
            assert _precharge_minima.cache_info().currsize <= 1
        assert expected[0] == expected[1] != expected[3]

    def test_one_table_for_both(self, monkeypatch):
        calls = []

        def counted(sbox):
            calls.append(sbox)
            return cross_correlation_fast(sbox)

        monkeypatch.setattr(metrics_mod, "cross_correlation_fast", counted)
        _precharge_minima.cache_clear()
        sbox = random_bijective_sbox(4, RngStream(3))
        mto(sbox)
        rto(SBox(4, 4, sbox.table.tolist()))
        assert len(calls) == 1
        rto(random_bijective_sbox(4, RngStream(4)))
        assert len(calls) == 2


class TestSpectralCore:
    """TO/MTO/RTO from the spectral core equal, as floats, the reductions of
    the direct-summation cross-correlation table."""

    @staticmethod
    def assert_paths_agree(sbox):
        table = cross_correlation_naive(sbox)
        assert transparency_order(sbox) == to_from_table(table)
        assert mto_beta_zero(sbox) == mto_beta_from_table(table, 0)
        assert rto_beta_zero(sbox) == rto_beta_from_table(table, 0)
        top = (1 << sbox.m) - 1
        for beta in sorted({1, top // 3, top}):
            assert mto_beta(sbox, beta) == mto_beta_from_table(table, beta)
            assert rto_beta(sbox, beta) == rto_beta_from_table(table, beta)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_table_and_core_agree(self, n):
        for sbox in core_cases(n):
            self.assert_paths_agree(sbox)

    def test_table_and_core_agree_n12(self):
        self.assert_paths_agree(random_bijective_sbox(12, RngStream(12)))

    def test_kernel_bounds_at_largest_widths(self):
        # The largest sum |row| of each transform, as derived in the metrics
        # module docstring; MAX_WIDTH is the largest n and m an SBox takes.
        n = m = MAX_WIDTH
        with pytest.raises(SBoxError):
            SBox(MAX_WIDTH + 1, 1, ())
        with pytest.raises(SBoxError):
            SBox(2, MAX_WIDTH + 1, (0, 0, 0, 0))
        # Parseval: sum_a W_i^2 = 4^n and sum_a W_u^2 <= m^2 4^n; by
        # Cauchy-Schwarz sum_a |W_f W_g| <= sqrt(sum W_f^2 sum W_g^2).
        w2, w_u2 = 4**n, m * m * 4**n
        # The search's G at its widest n: |W_h|^2 sums to at most n^2 4^n
        # and |W_S|^2 to n^4 16^n.
        g = 12
        bounds = {
            "forward": 2**n,
            "table": math.isqrt(w2 * w2),
            "to": m * w2,
            "mto": math.isqrt(w_u2 * w2),
            "rto": w_u2,
            "ccv_profile": w_u2,
            "search_g": math.isqrt(g**2 * 4**g * g**4 * 16**g),
        }
        assert bounds == {
            "forward": 2**16,
            "table": 2**32,
            "to": 2**36,
            "mto": 2**36,
            "rto": 2**40,
            "ccv_profile": 2**40,
            "search_g": g**3 * 8**g,
        }
        assert all(bound < 2**53 for bound in bounds.values())
        # The pre-charge sweep stays in int64: signed sums of m and m^2 table
        # entries, each bounded by 2^n.
        walk = {"walk_inner": m * 2**n, "walk_autocorrelation": m * m * 2**n}
        assert walk == {"walk_inner": 2**20, "walk_autocorrelation": 2**24}
        assert all(bound < 2**63 for bound in walk.values())

    def test_largest_width_within_kernel_bound(self, monkeypatch):
        # Each metric is one forward and one inverse transform.  A constant
        # table has W_u[0] = m 2^n, the Parseval extreme, so its inverse rows
        # reach the docstring's bounds exactly.
        n = m = MAX_WIDTH
        row_sums = []

        def recording(mat):
            row_sums.append(int(np.abs(np.asarray(mat)).sum(axis=-1).max()))
            return _fwht_rows(mat)

        monkeypatch.setattr(metrics_mod, "_fwht_rows", recording)
        metrics = (ccv, transparency_order, mto_beta_zero, rto_beta_zero)
        inverse_bounds = [m * m * 4**n, m * 4**n, m * 4**n, m * m * 4**n]
        assert max(inverse_bounds) == 2**40

        assert [f(constant_sbox(n, m, 0)) for f in metrics] == [0.0, 0.0, m - m * m, m - m * m]
        assert row_sums[0::2] == [2**n] * 4
        assert row_sums[1::2] == inverse_bounds

        row_sums.clear()
        ccv_v, to_v, mto0, rto0 = (f(random_bijective_sbox(n, RngStream(16))) for f in metrics)
        assert ccv_v > 0 and 0 <= to_v <= n and mto0 <= rto0 <= n
        assert row_sums[0::2] == [2**n] * 4
        assert all(s <= b for s, b in zip(row_sums[1::2], inverse_bounds))


# (n, m) on each side of the dtype rule: float32 exactly when m^2 4^n < 2^24.
FLOAT32_SHAPES = ((8, 8), (5, 16), (10, 2))
FLOAT64_SHAPES = ((8, 16), (9, 9), (16, 16))
SIX_METRICS = (ccv, transparency_order, mto_beta_zero, rto_beta_zero, mto, rto)


def six_metrics(sbox, metrics=SIX_METRICS):
    _precharge_minima.cache_clear()  # the cache does not see the dtype
    return [f(sbox) for f in metrics]


class TestComputeDtype:
    """The metric path runs in float32 where every value fits its 24-bit
    mantissa, and in float64 elsewhere, with the same values either way."""

    @pytest.mark.parametrize("n,m", FLOAT32_SHAPES + FLOAT64_SHAPES)
    def test_rule_and_values(self, n, m, monkeypatch):
        want = np.float32 if (n, m) in FLOAT32_SHAPES else np.float64
        assert metrics_mod._dtype(n, m) is want
        assert ((m * m << 2 * n) < 2**24) == (want is np.float32)
        rnd = random.Random(n * 100 + m)
        sbox = SBox(n, m, [rnd.randrange(1 << m) for _ in range(1 << n)])
        if (n, m) == (16, 16):
            # The full-beta sweep (about 80 s) and the O(m^2 4^n) oracles are
            # out of reach; a constant table has known values.
            metrics = SIX_METRICS[:4]
            assert six_metrics(constant_sbox(n, m, 0), metrics) == [0.0, 0.0, m - m * m, m - m * m]
        else:
            metrics = SIX_METRICS
            table = cross_correlation_naive(sbox)
            assert np.array_equal(cross_correlation_fast(sbox), table)
            assert np.array_equal(kappa_profile(sbox), kappa_profile_direct(sbox.table, n))
            oracle = [
                ccv_key_from_profile(kappa_profile_direct(sbox.table, n)).value,
                to_from_table(table),
                mto_beta_from_table(table, 0),
                rto_beta_from_table(table, 0),
                *precharge_extremes_from_table(table),
            ]
            assert six_metrics(sbox) == oracle
        values = six_metrics(sbox, metrics)
        monkeypatch.setattr(metrics_mod, "_dtype", lambda n, m: np.float64)
        assert six_metrics(sbox, metrics) == values
        _precharge_minima.cache_clear()

    def test_8x8_transforms_in_float32(self, monkeypatch):
        # A silent fallback to float64 on the experiment's metrics fails
        # here: every transform of TO, MTO0, RTO0 and CCV at n = m = 8 takes
        # and returns float32, one S-box or a stack.
        dtypes = []

        def recording(mat):
            out = _fwht_rows(mat)
            dtypes.append((mat.dtype, out.dtype))
            return out

        monkeypatch.setattr(metrics_mod, "_fwht_rows", recording)
        family = batch_family("bijective-8")
        for f in (transparency_order, mto_beta_zero, rto_beta_zero):
            f(family)
            f(family[0])
        ccv(family[0])
        # Two transforms a block: blocks of 32 and 8, then one S-box.
        assert len(dtypes) == 3 * (4 + 2) + 2
        assert set(dtypes) == {(np.dtype(np.float32),) * 2}


class TestCcvIncremental:
    """The oracle delta update against the package's full recomputation."""

    def test_matches_full_recompute(self):
        sbox = random_bijective_sbox(4, RngStream(31))
        key = ccv_key(sbox)
        profile = kappa_profile(sbox)
        for i, j in [(0, 1), (3, 12), (5, 6), (0, 15)]:
            values, sum_s, sum_s2 = ccv_incremental(
                sbox.table, profile, key.sum_s, key.sum_s2, i, j
            )
            swapped = swap_outputs(sbox, i, j)
            assert (sum_s, sum_s2) == (ccv_key(swapped).sum_s, ccv_key(swapped).sum_s2)
            assert np.array_equal(values, kappa_profile(swapped))

    def test_equal_weight_swap_keeps_key(self):
        sbox = identity_sbox(3)
        key = ccv_key(sbox)
        profile = kappa_profile(sbox)
        # positions 1 and 2 hold outputs 1 and 2, both of weight 1
        values, sum_s, sum_s2 = ccv_incremental(
            sbox.table, profile, key.sum_s, key.sum_s2, 1, 2
        )
        assert (sum_s, sum_s2) == (key.sum_s, key.sum_s2)
        assert np.array_equal(values, profile)
        assert ccv_key(swap_outputs(sbox, 1, 2)) == key

    def test_hundred_chained_swaps_on_5x5(self):
        sbox, rng = bijection_and_draws(5, 77)
        key = ccv_key(sbox)
        values, sum_s, sum_s2 = kappa_profile(sbox), key.sum_s, key.sum_s2
        for step in range(100):
            i = rng.randrange(32)
            j = rng.randrange(32)
            if i == j:
                continue
            values, sum_s, sum_s2 = ccv_incremental(sbox.table, values, sum_s, sum_s2, i, j)
            sbox = swap_outputs(sbox, i, j)
        assert (sum_s, sum_s2) == (ccv_key(sbox).sum_s, ccv_key(sbox).sum_s2)
        assert np.array_equal(values, kappa_profile(sbox))

    def test_batch_rows_match_full_recompute(self):
        sbox = random_bijective_sbox(5, RngStream(41))
        key = ccv_key(sbox)
        profile = kappa_profile(sbox)
        h = np.array([hw(v) for v in sbox.table], dtype=np.int64)
        i = 3
        js = np.array([j for j in range(32) if h[j] != h[i]])
        ds, dsum, dsum2 = swap_deltas(h, profile, i, js)
        for row, j in enumerate(js):
            swapped = swap_outputs(sbox, i, int(j))
            want = kappa_profile(swapped)[1:] - profile[1:]
            assert np.array_equal(ds[row], want)
            assert key.sum_s + dsum[row] == ccv_key(swapped).sum_s
            assert key.sum_s2 + dsum2[row] == ccv_key(swapped).sum_s2


class TestShuffleInvariance:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_ccv_exactly_invariant_under_class_shuffle(self, n):
        for seed in range(20):
            sbox = random_bijective_sbox(n, RngStream(seed, (0,)))
            [shuffled] = hw_class_shuffle([sbox], [RngStream(seed, (1,))])
            assert ccv_key(sbox) == ccv_key(shuffled)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_rto0_exactly_invariant_under_class_shuffle(self, n):
        # RTO0 is the autocorrelation of m - 2 HW(F), a function of the HW
        # sequence alone, like CCV.
        for seed in range(10):
            sbox = random_bijective_sbox(n, RngStream(seed, (2,)))
            [shuffled] = hw_class_shuffle([sbox], [RngStream(seed, (3,))])
            assert rto_beta_zero(sbox) == rto_beta_zero(shuffled)

    def test_consistency_key_vs_profile(self):
        sbox = random_bijective_sbox(4, RngStream(55))
        assert ccv_key(sbox) == ccv_key_from_profile(kappa_profile(sbox))
