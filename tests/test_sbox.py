import platform
import random
import tracemalloc

import numpy as np
import pytest

from sboxtraj import (
    MalformedTokenError,
    RngStream,
    SBox,
    SBoxError,
    ValueOutOfRangeError,
    WrongLengthError,
    hw_class_shuffle,
    ls_hwf,
    parse_sbox,
    random_bijective_sbox,
    serialize_sbox,
    swap_outputs,
)
import sboxtraj.metrics as metrics_mod
import sboxtraj.sbox as sbox_module
import sboxtraj.search as search_mod
from sboxtraj.rng import _seeds, derive_seed, first_words
from sboxtraj.sbox import IndexOutOfRangeError

from builders import constant_sbox, identity_sbox
from oracles import derive_seed_reference, hw, hw_class_shuffle_reference


@pytest.mark.parametrize("value,expected", [(0, 0), (255, 8), (0b1011, 3), (1, 1), (2**15, 1)])
def test_hamming_weight(value, expected):
    # The oracle weight that the class-shuffle checks below rest on.
    assert hw(value) == expected


class TestParse:
    def test_identity(self):
        sbox = parse_sbox("0 1 2 3", 2, 2)
        assert sbox.table.tolist() == [0, 1, 2, 3]

    def test_hex_and_commas(self):
        sbox = parse_sbox("0x0, 0x3,\n 0x1, 0x2", 2, 2)
        assert sbox.table.tolist() == [0, 3, 1, 2]

    def test_wrong_length(self):
        with pytest.raises(WrongLengthError):
            parse_sbox("0x0 0x3 0x1", 2, 2)

    def test_value_out_of_range(self):
        with pytest.raises(ValueOutOfRangeError):
            parse_sbox("0 1 2 4", 2, 2)

    def test_malformed_token(self):
        with pytest.raises(MalformedTokenError):
            parse_sbox("0 1 two 3", 2, 2)

    @pytest.mark.parametrize("first", [True, False], ids=["first", "last"])
    def test_huge_hex_token_out_of_range(self, first):
        # int() reads any number of hex digits, but str() of the value, past
        # 4300 decimal digits, raises a plain ValueError.
        huge = "0x" + "f" * 4000
        text = f"{huge} 1 2 3" if first else f"0 1 2 {huge}"
        with pytest.raises(ValueOutOfRangeError, match="16000-bit") as excinfo:
            parse_sbox(text, 2, 2)
        assert len(str(excinfo.value)) < 100

    @pytest.mark.parametrize(
        "text",
        [
            "0 1 2 1_1",  # int() reads digit grouping
            "+0 1 2 3",  # and a sign
            "0 1 2 \u0663",  # and non-ASCII digits (ARABIC-INDIC THREE)
            "0 1 2 0x_3",  # and an underscore after the hex prefix
            "0 1 2 " + "1" * 5000,  # but no more than 4300 decimal digits
        ],
        ids=["underscore", "sign", "arabic-indic-digit", "hex-underscore", "5000-digits"],
    )
    def test_only_ascii_decimal_or_hex_tokens(self, text):
        with pytest.raises(MalformedTokenError):
            parse_sbox(text, 2, 4)

    @pytest.mark.parametrize(
        "n,m", [(-1, 2), (0, 2), (1, 2), (17, 2), (10**20, 2), (2, 0), (2, 17), (2, -1)]
    )
    def test_widths_checked_before_the_table_size(self, n, m):
        # The widths are checked before a table size is computed from them:
        # 1 << n fails at n < 0 and cannot be formatted at n = 10**20.
        with pytest.raises(SBoxError, match="outside supported range"):
            parse_sbox("0 1 2 3", n, m)

    def test_hex_prefix_case_and_leading_zeros(self):
        assert parse_sbox("0X0 0xF 007 0x0a", 2, 4).table.tolist() == [0, 15, 7, 10]

    def test_one_match_reads_what_each_token_reads(self):
        # Random texts of decimal tokens, with and without leading zeros,
        # and hex tokens of either prefix, between runs of spaces, tabs,
        # newlines, commas and a non-ASCII space.
        rnd = random.Random(11)
        seps = [" ", ",", "\n", "\t", ", ", ",,\n", "\u2003"]
        for _ in range(200):
            values = [rnd.randrange(64) for _ in range(64)]
            tokens = [
                rnd.choice([str(v), f"00{v}", f"0x{v:x}", f"0X{v:02X}"]) for v in values
            ]
            text = rnd.choice(["", " ", ",\n"]) + "".join(
                token + rnd.choice(seps) for token in tokens
            )
            assert parse_sbox(text, 6, 6).table.tolist() == values

    @pytest.mark.parametrize(
        "text,message",
        [
            ("0 1 two 3 x", "cannot parse token 'two'"),
            ("0x1,0x2,1x,0x", "cannot parse token '1x'"),
            ("0 1 2 3 0x", "cannot parse token '0x'"),
            ("007 1 2 +3", "cannot parse token '+3'"),
            ("0 1 2 " + "1" * 5000 + " 3_", "token of 5000 digits is too long"),
        ],
        ids=["word", "digit-x", "bare-prefix", "sign", "5000-digits-first"],
    )
    def test_errors_name_the_first_bad_token(self, text, message):
        with pytest.raises(MalformedTokenError) as excinfo:
            parse_sbox(text, 2, 8)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("n", [3, 4, 8])
    def test_serialize_round_trip(self, n):
        for seed in range(5):
            sbox = random_bijective_sbox(n, RngStream(seed))
            again = parse_sbox(serialize_sbox(sbox), n, n)
            assert again == sbox


class TestSBoxValidation:
    def test_n_out_of_range(self):
        with pytest.raises(SBoxError):
            SBox(1, 1, (0, 1))
        with pytest.raises(SBoxError):
            SBox(17, 17, tuple(range(2**17)))

    def test_non_bijective_flag(self):
        # Non-bijective tables are valid and kept as given.
        assert SBox(2, 2, (0, 0, 1, 2)).table.tolist() == [0, 0, 1, 2]
        assert sorted(constant_sbox(3, 3).table) != list(range(8))
        assert sorted(identity_sbox(3).table) == list(range(8))

    def test_rectangular(self):
        sbox = SBox(3, 2, (0, 1, 2, 3, 3, 2, 1, 0))
        assert sbox.size == 8 and sbox.m == 2

    @pytest.mark.parametrize(
        "table",
        [
            (0.9, 1, 2, 3.7),
            (0, 1, 2, 3.0),
            (0.5, 1, 2, 300.0),  # a float is not an integer before it is out of range
            np.array([0.0, 1.0, 2.0, 3.0]),
            ("1", "0", "2", "3"),
            (0, 1, 2, None),
            (0.5, 1, 2, 2**70),
        ],
    )
    def test_non_integer_entries_rejected(self, table):
        with pytest.raises(SBoxError) as excinfo:
            SBox(2, 2, table)
        assert excinfo.type is SBoxError

    @pytest.mark.parametrize(
        "table",
        [
            (0, 1, 2, 4),  # 2^m
            (0, 1, 2, -1),
            np.array([0, 1, 2, -1], dtype=np.int8),
            (0, 1, 2, 2**63),  # numpy gives this list float64
            np.array([0, 1, 2, 2**64 - 1], dtype=np.uint64),
            (0, 1, 2, 2**70),  # past uint64: numpy gives objects
            (-(2**70), 1, 2, 3),
        ],
    )
    def test_out_of_range_entries_rejected(self, table):
        with pytest.raises(ValueOutOfRangeError):
            SBox(2, 2, table)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_huge_entry_rejected_with_its_width(self, sign):
        # str() of the value, past 4300 decimal digits, raises a plain
        # ValueError; the message gives its width instead.
        with pytest.raises(ValueOutOfRangeError, match=r"^table\[0\] = a 20001-bit integer"):
            SBox(4, 4, [sign * 2**20000] + [1] * 15)

    def test_numpy_integer_entries(self):
        sbox = SBox(2, 2, tuple(np.arange(4, dtype=np.int64)[::-1]))
        assert sbox.table.tolist() == [3, 2, 1, 0]
        assert sbox.table.dtype == np.uint16 and not sbox.table.flags.writeable

    def test_equality_and_hash_across_input_types(self):
        values = [3, 0, 2, 1]
        sboxes = [
            SBox(2, 2, values),
            SBox(2, 2, tuple(values)),
            SBox(2, 2, np.array(values, dtype=np.int64)),
            SBox(2, 2, np.array(values, dtype=np.uint16)),
        ]
        assert all(s == sboxes[0] and hash(s) == hash(sboxes[0]) for s in sboxes)
        assert len(set(sboxes)) == 1
        assert SBox(2, 3, values) != sboxes[0]
        assert SBox(2, 2, [3, 0, 1, 2]) != sboxes[0]
        assert sboxes[0] != values

    def test_table_is_read_only_and_owned(self):
        source = np.array([0, 1, 2, 3])
        sbox = SBox(2, 2, source)
        with pytest.raises(ValueError, match="read-only"):
            sbox.table[0] = 3
        source[0] = 3
        assert sbox.table.tolist() == [0, 1, 2, 3]


class TestRngStream:
    def test_mixer_frozen_values(self):
        # Locking these down guards against accidental changes to the mixer,
        # which would silently re-seed every experiment.
        assert derive_seed(0, ()) == 0
        assert derive_seed(12345, (1, 2, 3)) == 2279600471504032616
        assert derive_seed(2**64 - 1, (0,)) == 11923130667873509210
        # Masters below zero or past 64 bits, and a path entry past 64 bits,
        # all taken mod 2^64.
        assert derive_seed(-1, ()) == 13029008266876403067
        assert derive_seed(-12345, (4, 5)) == 90229787700361031
        assert derive_seed(2**64, ()) == 0
        assert derive_seed(2**70 + 9, (1,)) == 9098563821330842174
        assert derive_seed(7, (2**80 + 3,)) == 16292704262132694875

    def test_derive_seed_builds_no_stream(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("derive_seed built an RngStream")

        monkeypatch.setattr(RngStream, "__init__", refuse)
        assert derive_seed(12345, (1, 2, 3)) == 2279600471504032616

    def test_same_path_same_sequence(self):
        a = RngStream(99, (1, 2))
        b = RngStream(99, (1, 2))
        for _ in range(2):
            items_a, items_b = list(range(64)), list(range(64))
            a.shuffle(items_a)
            b.shuffle(items_b)
            assert items_a == items_b

    def test_distinct_paths_distinct_sequences(self):
        tables = {tuple(random_bijective_sbox(5, RngStream(7, (i,))).table.tolist()) for i in range(20)}
        assert len(tables) == 20

    def test_words_are_the_32_bit_draws_in_order(self):
        streams = [RngStream(3, (1, 2)), RngStream(2**64 + 5), RngStream(3, (1, 2))]
        streams[2].shuffle([1, 2, 3])  # a stream that has drawn still gives its first words
        words = first_words(streams, 8)
        assert words.shape == (3, 8) and words.dtype == np.uint32
        for stream, row in zip(streams, words):
            draws = random.Random(derive_seed(stream.master_seed, stream.path))
            assert row.tolist() == [draws.getrandbits(32) for _ in range(8)]
        assert first_words(streams, 0).shape == (3, 0)

    def test_seeds_of_many_streams_are_derive_seed(self):
        # Paths of mixed lengths and entries past 64 bits or below zero, on
        # masters past 64 bits or below zero, against the mixer in Python
        # integers; derive_seed is _seeds of one stream.
        rnd = random.Random(5)
        entries = [0, 7, -1, 2**64 - 1, 2**64, 2**80 + 3]
        streams = [
            RngStream(
                rnd.choice([0, -5, 2**64 - 1, 2**70 + 3, rnd.getrandbits(64)]),
                tuple(rnd.choice(entries + [rnd.getrandbits(20)]) for _ in range(rnd.randrange(5))),
            )
            for _ in range(300)
        ]
        expected = [derive_seed_reference(s.master_seed, s.path) for s in streams]
        assert _seeds([(s.master_seed, s.path) for s in streams]) == expected
        assert [derive_seed(s.master_seed, s.path) for s in streams] == expected
        assert _seeds([]) == []

    def test_child_extends_path(self):
        root = RngStream(5)
        assert root.child(3, 1).path == (3, 1)
        assert root.child(3).child(1).path == (3, 1)


class TestRandomBijective:
    def test_deterministic(self):
        assert random_bijective_sbox(4, RngStream(7)) == random_bijective_sbox(4, RngStream(7))

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_is_permutation(self, n):
        sbox = random_bijective_sbox(n, RngStream(n))
        assert sorted(sbox.table) == list(range(2**n))

    def test_rejects_bad_width(self):
        with pytest.raises(SBoxError):
            random_bijective_sbox(1, RngStream(0))

    def test_position_zero_uniform(self):
        # 10^4 draws; each of the 256 values should land at position 0 with
        # frequency 1/256 within 5 sigma.
        draws = 10_000
        counts = [0] * 256
        rng = RngStream(2024)
        for s in range(draws):
            counts[random_bijective_sbox(8, rng.child(s)).table[0]] += 1
        expected = draws / 256
        sigma = (draws * (1 / 256) * (255 / 256)) ** 0.5
        for value, count in enumerate(counts):
            assert abs(count - expected) < 5 * sigma, f"value {value}: {count}"


class TestSwapOutputs:
    def test_example(self):
        assert swap_outputs(identity_sbox(2), 1, 2).table.tolist() == [0, 2, 1, 3]

    def test_involution(self):
        sbox = random_bijective_sbox(4, RngStream(1))
        assert swap_outputs(swap_outputs(sbox, 3, 11), 3, 11) == sbox

    def test_source_unchanged_and_bijective(self):
        sbox = random_bijective_sbox(4, RngStream(2))
        before = sbox.table.tolist()
        swapped = swap_outputs(sbox, 0, 15)
        assert sbox.table.tolist() == before
        assert sorted(swapped.table.tolist()) == sorted(before) == list(range(16))

    @pytest.mark.parametrize(
        "sbox",
        [
            random_bijective_sbox(8, RngStream(3)),
            SBox(5, 3, random.Random(5).choices(range(8), k=32)),
        ],
        ids=["bijection-8", "non-bijective-5-3"],
    )
    def test_result_is_a_read_only_copy(self, sbox):
        # The result is built without a check; it must be the S-box that
        # checking the swapped table builds, on its own read-only memory.
        values = sbox.table.tolist()
        i, j = 0, next(j for j, v in enumerate(values) if v != values[0])
        values[i], values[j] = values[j], values[i]
        swapped = swap_outputs(sbox, i, j)
        want = SBox(sbox.n, sbox.m, values)
        assert not swapped.table.flags.writeable
        assert not np.shares_memory(swapped.table, sbox.table)
        assert swapped.table.dtype == want.table.dtype
        assert swapped == want and hash(swapped) == hash(want)

    @pytest.mark.parametrize("i,j", [(0, 0), (-1, 2), (0, 4)])
    def test_bad_positions(self, i, j):
        with pytest.raises(IndexOutOfRangeError):
            swap_outputs(identity_sbox(2), i, j)


def assert_draws_match_reference(sboxes, streams):
    """One hw_class_shuffle call over the lanes equals, lane by lane, the
    reference shuffle drawn from random.Random on the lane's seed."""
    shuffled = hw_class_shuffle(sboxes, [RngStream(seed, path) for seed, path in streams])
    assert len(shuffled) == len(sboxes)
    for sbox, (seed, path), out in zip(sboxes, streams, shuffled):
        draws = random.Random(derive_seed(seed, path))
        assert out.table.tolist() == hw_class_shuffle_reference(sbox.table.tolist(), sbox.m, draws), path
        assert (out.n, out.m) == (sbox.n, sbox.m)
        # Each output stays in its weight class and the outputs are the
        # input's, so every class is re-permuted in place.
        assert [hw(v) for v in out.table] == [hw(v) for v in sbox.table]
        assert sorted(out.table) == sorted(sbox.table)


def same_class_sizes(n, m, rnd, rows):
    """A random n-to-m-bit table and rows - 1 reference class shuffles of it:
    `rows` S-boxes with the same class sizes, not all of one table."""
    table = tuple(rnd.randrange(1 << m) for _ in range(1 << n))
    tables = [table] + [tuple(hw_class_shuffle_reference(table, m, rnd)) for _ in range(rows - 1)]
    return [SBox(n, m, t) for t in tables]


class TestHwClassShuffle:
    def test_identity_n2_two_outcomes(self):
        # Only the weight-1 class {1, 2} can move, giving exactly two
        # equally likely tables.
        draws = 2000
        rng = RngStream(5)
        seen = {(0, 1, 2, 3): 0, (0, 2, 1, 3): 0}
        rngs = [rng.child(s) for s in range(draws)]
        for sbox in hw_class_shuffle([identity_sbox(2)] * draws, rngs):
            seen[tuple(sbox.table.tolist())] += 1
        sigma = (draws * 0.25) ** 0.5
        assert abs(seen[(0, 1, 2, 3)] - draws / 2) < 5 * sigma

    def test_constant_fixed_point(self):
        sbox = constant_sbox(3, 3, 5)
        assert hw_class_shuffle([sbox], [RngStream(0)]) == [sbox]

    @pytest.mark.parametrize("n", [3, 4, 5, 8])
    def test_preserves_hw_profile_pointwise(self, n):
        sboxes = [random_bijective_sbox(n, RngStream(seed, (0,))) for seed in range(25)]
        rngs = [RngStream(seed, (1,)) for seed in range(25)]
        for sbox, shuffled in zip(sboxes, hw_class_shuffle(sboxes, rngs)):
            assert sorted(shuffled.table) == list(range(sbox.size))
            for x in range(sbox.size):
                assert hw(shuffled.table[x]) == hw(sbox.table[x])

    def test_deterministic(self):
        sbox = random_bijective_sbox(4, RngStream(9))
        assert hw_class_shuffle([sbox], [RngStream(1, (2, 3))]) == hw_class_shuffle(
            [sbox], [RngStream(1, (2, 3))]
        )

    @pytest.mark.parametrize("n", range(2, 11))
    def test_draws_match_reference(self, n):
        # Non-bijective tables at m = 1, 2, n, n + 2 and bijections.  Each
        # batch has four rows of equal class sizes, five lanes each.
        rnd = random.Random(n)
        batches = [same_class_sizes(n, m, rnd, 4) for m in (1, 2, n, n + 2)]
        batches.append([random_bijective_sbox(n, RngStream(n + k)) for k in range(4)])
        for sboxes in batches:
            m = sboxes[0].m
            lanes = [(sbox, (seed, (n, m, row, seed)))
                     for row, sbox in enumerate(sboxes) for seed in range(5)]
            assert_draws_match_reference(*zip(*lanes))

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_more_words_drawn_when_a_lane_runs_short(self, n, monkeypatch):
        # With no headroom at all each lane first gets one word per draw,
        # so nearly every lane runs short, and the whole call is drawn
        # again, twice as long, until every lane's draws fit.
        calls = []

        def counted(streams, count):
            calls.append((len(streams), count))
            return first_words(streams, count)

        monkeypatch.setattr(sbox_module, "_HEADROOM", -(10**9))
        monkeypatch.setattr(sbox_module, "first_words", counted)
        rnd = random.Random(100 + n)
        sboxes = same_class_sizes(n, 3, rnd, 3) * 4
        assert_draws_match_reference(sboxes, [(n, (len(sboxes), k)) for k in range(len(sboxes))])
        draws = sboxes[0].size - len({hw(v) for v in sboxes[0].table})
        lanes, counts = zip(*calls)
        assert lanes[0] == len(sboxes) and counts[0] == max(1, draws)
        assert all(b == 2 * a for a, b in zip(counts, counts[1:]))
        assert set(lanes) == {len(sboxes)}
        if n > 2:
            assert len(calls) >= 2

    @pytest.mark.parametrize("headroom", [-2, 0, 6])
    def test_runs_of_rejected_words(self, headroom, monkeypatch):
        # A draw below b rejects a word with probability 1 - b / 2^k, about
        # one half for b just above a power of two, so lanes meet runs of
        # rejected words; with no headroom, or less, many lanes run short
        # inside one.  A lane that has made all its draws accepts no more
        # words.
        calls = []

        def counted(streams, count):
            calls.append(len(streams))
            return first_words(streams, count)

        monkeypatch.setattr(sbox_module, "_HEADROOM", headroom)
        monkeypatch.setattr(sbox_module, "first_words", counted)
        for n, m in ((3, 3), (6, 1), (8, 8)):
            sboxes = same_class_sizes(n, m, random.Random(n), 2) * 6
            assert_draws_match_reference(sboxes, [(7, (n, m, k)) for k in range(len(sboxes))])
        if headroom <= 0:
            assert len(calls) > 3

    @pytest.mark.parametrize(
        "sboxes",
        [
            [identity_sbox(3), constant_sbox(3, 3, 5)],
            [identity_sbox(3), SBox(3, 3, (0, 1, 2, 3, 4, 5, 6, 6))],
            [identity_sbox(2), identity_sbox(3)],
            [SBox(2, 1, (0, 1, 1, 1)), SBox(2, 1, (0, 0, 1, 1))],
        ],
        ids=["identity-constant", "one-output-repeated", "different-n", "different-split"],
    )
    def test_rejects_different_class_sizes(self, sboxes):
        with pytest.raises(ValueError, match="class sizes"):
            hw_class_shuffle(sboxes, [RngStream(0, (k,)) for k in range(len(sboxes))])

    def test_rejects_a_stream_count_that_differs(self):
        sbox = identity_sbox(3)
        with pytest.raises(ValueError):
            hw_class_shuffle([sbox, sbox], [RngStream(0)])
        with pytest.raises(ValueError):
            hw_class_shuffle([sbox], [RngStream(0), RngStream(1)])
        assert hw_class_shuffle([], []) == []

    def test_replay_check_raises_when_random_shuffle_differs(self, monkeypatch):
        # An interpreter whose random.shuffle draws differently from the
        # replay, mocked by reversing every shuffle's result.
        shuffle = random.Random.shuffle

        def reversed_shuffle(self, items):
            shuffle(self, items)
            items.reverse()

        sbox_module._check_shuffle_replay.cache_clear()
        monkeypatch.setattr(random.Random, "shuffle", reversed_shuffle)
        with pytest.raises(RuntimeError, match=f"Python {platform.python_version()}"):
            hw_class_shuffle([identity_sbox(3)], [RngStream(0)])
        monkeypatch.undo()
        # Nothing was cached, so the next call checks again, and passes.
        assert hw_class_shuffle([identity_sbox(3)], [RngStream(0)])
        assert sbox_module._check_shuffle_replay.cache_info().currsize == 1

    def test_streams_are_not_advanced(self):
        # Each lane draws from the start of its stream, whatever the stream
        # drew before, and leaves it as it was.
        sbox = random_bijective_sbox(5, RngStream(1))
        rngs = [RngStream(4, (k,)) for k in range(3)]
        first = hw_class_shuffle([sbox] * 3, rngs)
        assert hw_class_shuffle([sbox] * 3, rngs) == first
        for k, rng in enumerate(rngs):
            items, fresh = list(range(20)), list(range(20))
            rng.shuffle(items)
            RngStream(4, (k,)).shuffle(fresh)
            assert items == fresh
        assert hw_class_shuffle([sbox] * 3, rngs) == first

    @pytest.mark.parametrize("n", [8, 12])
    @pytest.mark.parametrize("share", [1, 5], ids=["distinct", "five-per-sbox"])
    def test_a_call_stays_within_its_bytes(self, n, share):
        # shuffle_lanes(n) lanes, one S-box per lane or one per five lanes,
        # as in a sample, keep their working arrays and results within
        # _CALL_BYTES, and the bound is not loose.
        lanes = sbox_module.shuffle_lanes(n)
        distinct = [random_bijective_sbox(n, RngStream(n, (k,))) for k in range(-(-lanes // share))]
        sboxes = [distinct[k // share] for k in range(lanes)]
        rngs = [RngStream(1, (k,)) for k in range(lanes)]
        hw_class_shuffle(sboxes[:1], rngs[:1])  # the one-time replay check
        tracemalloc.start()
        try:
            shuffled = hw_class_shuffle(sboxes, rngs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(shuffled) == lanes
        assert sbox_module._CALL_BYTES // 2 < peak <= sbox_module._CALL_BYTES

    def test_same_splits_at_different_output_widths(self):
        # The class sizes are what the lanes must share: (1, 2, 1) here.
        sboxes = [SBox(2, 2, (0, 1, 2, 3)), SBox(2, 3, (1, 0, 4, 6))]
        assert_draws_match_reference(sboxes, [(3, (k,)) for k in range(2)])


class TestBlockSizes:
    """Every block of work takes its size from rows_within, the one cache
    bound of the package, and keeps the size it had when each module held a
    constant of its own."""

    @staticmethod
    def record(monkeypatch, module):
        """The row counts that `module`'s calls of rows_within return."""
        given, rows_within = [], sbox_module.rows_within

        def recording(row_bytes):
            given.append(rows_within(row_bytes))
            return given[-1]

        monkeypatch.setattr(module, "rows_within", recording)
        return given

    @pytest.mark.parametrize("n,rows", [(2, 2048), (9, 16), (12, 2)])
    def test_ls_hwf_rows_per_block(self, n, rows, monkeypatch):
        given = self.record(monkeypatch, search_mod)
        blocks = []

        def spy(h, s, g, positions, i, block_rows, j_next):
            blocks.append(block_rows)
            return gains(h, s, g, positions, i, block_rows, j_next)

        gains = search_mod._gains
        monkeypatch.setattr(search_mod, "_gains", spy)
        ls_hwf(n, RngStream(1, (n,)))
        assert given == [rows]
        # At n = 2 the three rows to scan come in blocks of one and two.
        assert max(blocks) == (2 if n == 2 else rows)

    @pytest.mark.parametrize("n,words,lanes", [(8, 454, 36), (12, 6211, 2)])
    def test_draws_lanes_per_compress(self, n, words, lanes, monkeypatch):
        given = self.record(monkeypatch, sbox_module)
        counts = []

        def counted(streams, count):
            counts.append(count)
            return first_words(streams, count)

        monkeypatch.setattr(sbox_module, "first_words", counted)
        sbox = random_bijective_sbox(n, RngStream(1))
        sbox_module._shuffle_classes([sbox] * 3, [RngStream(2, (k,)) for k in range(3)])
        assert (counts, given) == ([words], [lanes])

    @pytest.mark.parametrize("dtype,members", [(np.float32, 32), (np.float64, 16)])
    def test_stack_members_per_block(self, dtype, members, monkeypatch):
        # 8x8 S-boxes: float32 is the dtype of their path; float64 is the
        # dtype of every wider one.
        stacks = []

        def recording(tables, m):
            stacks.append(len(tables))
            return spectra(tables, m)

        spectra = metrics_mod._spectra
        monkeypatch.setattr(metrics_mod, "_spectra", recording)
        monkeypatch.setattr(metrics_mod, "_dtype", lambda n, m: dtype)
        family = [random_bijective_sbox(8, RngStream(20, (k,))) for k in range(members + 1)]
        metrics_mod.transparency_order(family)
        assert stacks == [members, 1]

    def test_sweep_block_bits(self):
        assert metrics_mod._block_bits(identity_sbox(8)) == 4
        assert metrics_mod._block_bits(identity_sbox(16)) == 0
