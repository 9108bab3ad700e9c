import functools
import itertools
import math
import operator
import random
import tracemalloc

import pytest

from sboxtraj import (
    DegenerateTrajectoryError,
    InsufficientDataError,
    RngStream,
    TrajectoryPoint,
    ccv,
    ccv_key,
    hw_class_shuffle,
    ls_hwf,
    metric_value,
    mto,
    mto_beta_zero,
    pearson,
    random_bijective_sbox,
    rto,
    rto_beta_zero,
    run_experiment,
    sample_equal_ccv,
    summary_stats,
    swap_outputs,
    transparency_order,
)
import sboxtraj.sbox as sbox_module
import sboxtraj.trajectory as trajectory_module
from sboxtraj.metrics import METRIC_NAMES
from sboxtraj.rng import derive_seed

from oracles import (
    cross_correlation_naive,
    hw,
    mto_beta_from_table,
    rto_beta_from_table,
    to_from_table,
)


def points(pairs):
    return [TrajectoryPoint(k, x, y) for k, (x, y) in enumerate(pairs, 1)]


class TestSampleEqualCcv:
    def test_all_keys_identical(self):
        fstar = random_bijective_sbox(4, RngStream(8))
        sample = list(sample_equal_ccv([fstar], 30, [RngStream(8, (0, 1))]))
        want = ccv_key(fstar)
        assert len(sample) == 30
        assert all(ccv_key(s) == want for s in sample)

    def test_size_one_is_fstar_itself(self):
        fstars = [random_bijective_sbox(4, RngStream(7, (k,))) for k in range(3)]
        rngs = [RngStream(7, (0, k)) for k in range(3)]
        assert list(sample_equal_ccv(fstars, 1, rngs)) == fstars

    def test_hw_profile_preserved(self):
        fstar = random_bijective_sbox(5, RngStream(6))
        sample = list(sample_equal_ccv([fstar], 10, [RngStream(6, (0, 2))]))
        for member in sample:
            for x in range(fstar.size):
                assert hw(member.table[x]) == hw(fstar.table[x])

    def test_deterministic(self):
        fstar = random_bijective_sbox(4, RngStream(5))
        a = list(sample_equal_ccv([fstar], 12, [RngStream(5, (1, 4))]))
        b = list(sample_equal_ccv([fstar], 12, [RngStream(5, (1, 4))]))
        assert a == b

    def test_size_must_be_positive(self):
        # Raised by the call itself, before any member is taken.
        fstar = random_bijective_sbox(4, RngStream(5))
        with pytest.raises(ValueError):
            sample_equal_ccv([fstar], 0, [RngStream(5)])

    def test_one_stream_per_sbox(self):
        # Fewer or more streams than S-boxes raise when the members are taken.
        fstar = random_bijective_sbox(4, RngStream(5))
        for size, streams in itertools.product((1, 3), (1, 3)):
            rngs = [RngStream(5, (k,)) for k in range(streams)]
            members = sample_equal_ccv([fstar, fstar], size, rngs)
            with pytest.raises(ValueError):
                list(members)

    def test_inputs_are_read_lazily(self):
        # Endless S-boxes and streams: the first members are those of one
        # call per S-box.
        fstar = random_bijective_sbox(4, RngStream(2))
        rngs = (RngStream(2, (k,)) for k in itertools.count())
        members = list(itertools.islice(sample_equal_ccv(itertools.repeat(fstar), 3, rngs), 7))
        eager = [list(sample_equal_ccv([fstar], 3, [RngStream(2, (k,))])) for k in range(3)]
        assert members == (eager[0] + eager[1] + eager[2])[:7]

    def test_member_s_is_a_shuffle_drawn_from_child_s(self):
        # Samples of several S-boxes in one call are the samples of one call
        # each, and member s of sample k draws from rngs[k].child(s).
        fstars = [random_bijective_sbox(5, RngStream(4, (k,))) for k in range(4)]
        rngs = [RngStream(4, (1, k)) for k in range(4)]
        members = list(sample_equal_ccv(fstars, 6, rngs))
        assert members == [
            member for f, r in zip(fstars, rngs) for member in sample_equal_ccv([f], 6, [r])
        ]
        for k, (fstar, rng) in enumerate(zip(fstars, rngs)):
            want = [hw_class_shuffle([fstar], [rng.child(s)])[0] for s in range(6)]
            assert members[6 * k : 6 * k + 6] == want


def driver_points(metric, sample_size, master_seed, n=4, runs=2):
    """(point, climb event, incumbent) of a small experiment, in run order.

    The incumbent is the S-box after the event's swap, replayed from the
    search's initial S-box.
    """
    summary = run_experiment(
        n=n, metric=metric, runs=runs, sample_size=sample_size, master_seed=master_seed
    )
    triples = []
    for run_id, trajectory in enumerate(summary.trajectories):
        result = ls_hwf(n, RngStream(master_seed, (run_id,)))
        assert len(trajectory.points) == len(result.events)
        sbox = result.initial
        for point, event in zip(trajectory.points, result.events):
            sbox = swap_outputs(sbox, event.i, event.j)
            triples.append((point, event, sbox))
    assert triples
    return triples


class TestTrajectoryPoint:
    """The experiment driver is the one place that computes points."""

    def test_single_member(self):
        for point, event, sbox in driver_points("to", 1, 3):
            assert point == TrajectoryPoint(
                event.climb_index, ccv(sbox), transparency_order(sbox)
            )

    def test_mean_ccv_is_exact_on_equal_ccv_sample(self):
        for point, _event, sbox in driver_points("mto0", 30, 10):
            assert point.mean_ccv == ccv(sbox)

    def test_identical_members_give_member_metric(self):
        # rto0 depends only on the HW sequence, so every class shuffle in a
        # sample has the incumbent's value, and the mean must be that value.
        for point, _event, sbox in driver_points("rto0", 7, 12):
            assert point.mean_metric == rto_beta_zero(sbox)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            run_experiment(n=4, metric="to", runs=2, sample_size=0)


class TestMetricValue:
    def test_selectors(self):
        sbox = random_bijective_sbox(4, RngStream(2))
        assert metric_value(sbox, "ccv") == ccv(sbox)
        assert metric_value(sbox, "to") == transparency_order(sbox)
        assert metric_value(sbox, "mto0") == mto_beta_zero(sbox)
        assert metric_value(sbox, "rto0") == rto_beta_zero(sbox)
        assert metric_value(sbox, "mto") == mto(sbox)
        assert metric_value(sbox, "rto") == rto(sbox)

    def test_table_gives_same_values(self):
        sbox = random_bijective_sbox(5, RngStream(4))
        table = cross_correlation_naive(sbox)
        betas = range(1 << sbox.m)
        want = {
            "to": to_from_table(table),
            "mto0": mto_beta_from_table(table, 0),
            "rto0": rto_beta_from_table(table, 0),
            "mto": max(mto_beta_from_table(table, b) for b in betas),
            "rto": max(rto_beta_from_table(table, b) for b in betas),
        }
        assert set(want) < set(METRIC_NAMES)
        assert {name: metric_value(sbox, name) for name in want} == want

    def test_sequence_gives_each_value(self):
        sboxes = [random_bijective_sbox(4, RngStream(5, (k,))) for k in range(17)]
        for name in METRIC_NAMES:
            assert metric_value(sboxes, name) == [metric_value(s, name) for s in sboxes], name
            assert metric_value([], name) == []

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            metric_value(random_bijective_sbox(4, RngStream(2)), "nl")

    def test_functions_looked_up_at_call_time(self, monkeypatch):
        # A wrapper installed on a module attribute must see every evaluation.
        import sboxtraj.metrics as metrics_mod

        functions = {
            "ccv": "ccv",
            "to": "transparency_order",
            "mto0": "mto_beta_zero",
            "rto0": "rto_beta_zero",
            "mto": "mto",
            "rto": "rto",
        }
        assert tuple(functions) == METRIC_NAMES
        for k, (name, attr) in enumerate(functions.items()):
            monkeypatch.setattr(metrics_mod, attr, lambda sbox, k=k: -k)
            assert metric_value(random_bijective_sbox(4, RngStream(2)), name) == -k


class TestPearson:
    def test_exact_anti_linear(self):
        assert pearson(points([(0, 0), (1, -1), (2, -2)])) == pytest.approx(-1.0)

    def test_exact_linear(self):
        assert pearson(points([(0, 0), (1, 1), (2, 2)])) == pytest.approx(1.0)

    def test_single_point_degenerate(self):
        with pytest.raises(DegenerateTrajectoryError):
            pearson(points([(0, 0)]))

    def test_constant_coordinate_degenerate(self):
        # sum([0.1] * 3) / 3 != 0.1: a mean taken by division would leave a
        # residue and give a spurious r.
        for y in (1, 0.1):
            with pytest.raises(DegenerateTrajectoryError):
                pearson(points([(0, y), (1, y), (2, y)]))

    def test_affine_invariance_and_negation(self):
        rng = random.Random(derive_seed(33, ()))
        xs = [rng.randrange(1000) / 10 for _ in range(12)]
        ys = [rng.randrange(1000) / 10 - 40 for _ in range(12)]
        base = pearson(points(list(zip(xs, ys))))
        scaled = pearson(points([(3.5 * x + 11, 0.25 * y - 7) for x, y in zip(xs, ys)]))
        negated = pearson(points([(x, -y) for x, y in zip(xs, ys)]))
        assert scaled == pytest.approx(base, rel=1e-9)
        assert negated == pytest.approx(-base, rel=1e-9)

    def test_bounded(self):
        result = pearson(points([(0, 0), (1, 1)]))
        assert -1.0 <= result <= 1.0


class TestSummaryStats:
    def test_float_sums_run_left_to_right(self):
        # From Python 3.12 the built-in sum compensates and gives 2.0 here;
        # the results are pinned to plain left-to-right addition.
        values = [1.0, 1e100, 1.0, -1e100]
        assert trajectory_module._sum(values) == 0.0
        assert summary_stats(values)[0] == 0.0

    def test_constant_values(self):
        assert summary_stats([-1, -1, -1]) == (-1, 0)
        assert summary_stats([0.1, 0.1, 0.1]) == (0.1, 0)

    def test_two_values(self):
        mean, std = summary_stats([0, 2])
        assert mean == pytest.approx(1.0)
        assert std == pytest.approx(math.sqrt(2))

    def test_single_value_rejected(self):
        with pytest.raises(InsufficientDataError):
            summary_stats([0.5])


class TestRunExperiment:
    def test_validation(self):
        with pytest.raises(ValueError):
            run_experiment(n=4, metric="to", runs=1)
        with pytest.raises(ValueError):
            run_experiment(n=4, metric="nl", runs=2)
        with pytest.raises(ValueError):
            run_experiment(n=4, metric="to", runs=2, sample_size=0)

    def test_deterministic(self):
        a = run_experiment(n=4, metric="to", runs=3, sample_size=5, master_seed=21)
        b = run_experiment(n=4, metric="to", runs=3, sample_size=5, master_seed=21)
        assert a == b

    def test_rto0_defaults_to_single_member_samples(self):
        summary = run_experiment(n=4, metric="rto0", runs=2, master_seed=4)
        assert summary.sample_size == 1

    def test_constant_metric_run_is_degenerate(self):
        # Run 1's three points all have mean_metric 1.8666666666666667.
        summary = run_experiment(n=4, metric="rto0", runs=2, master_seed=0)
        ys = {p.mean_metric for p in summary.trajectories[1].points}
        assert len(summary.trajectories[1].points) >= 3 and len(ys) == 1
        assert summary.degenerate_runs == (1,)
        assert [run_id for run_id, _ in summary.pearson_by_run] == [0]

    def test_mean_ccv_strictly_increasing(self):
        summary = run_experiment(n=4, metric="to", runs=4, sample_size=6, master_seed=9)
        for trajectory in summary.trajectories:
            xs = [p.mean_ccv for p in trajectory.points]
            assert all(b > a for a, b in zip(xs, xs[1:]))

    def test_points_match_underlying_search(self):
        summary = run_experiment(n=4, metric="to", runs=2, sample_size=4, master_seed=14)
        for run_id, trajectory in enumerate(summary.trajectories):
            result = ls_hwf(4, RngStream(14, (run_id,)))
            assert [p.climb_index for p in trajectory.points] == [
                e.climb_index for e in result.events
            ]
            for point, event in zip(trajectory.points, result.events):
                assert point.mean_ccv == event.ccv_key_after.value

    def test_summary_recomputes_from_per_run_values(self):
        summary = run_experiment(n=4, metric="to", runs=5, sample_size=8, master_seed=2)
        values = [r for _, r in summary.pearson_by_run]
        mean, std = summary_stats(values)
        assert summary.mean == mean and summary.std == std
        assert len(values) + len(summary.degenerate_runs) == summary.runs

    def test_chunking_is_invisible(self, monkeypatch):
        # Sampler calls of 1, 3, 7 and 14 lanes split samples across calls
        # and mix incumbents in one call, and give one summary.  The metric
        # scores each sampler call whole; size-1 samples go to it
        # shuffle_lanes(n) incumbents at a time.
        shuffled, scored = [], []

        def shuffle(sboxes, rngs):
            shuffled.append(len(sboxes))
            return hw_class_shuffle(sboxes, rngs)

        def metric(sboxes, name):
            scored.append(len(sboxes))
            return metric_value(sboxes, name)

        per_output, per_lane = sbox_module._LANE_BYTES
        for metric_name, sample_size in (("to", 7), ("mto0", 7), ("rto0", 1)):
            args = dict(n=5, metric=metric_name, runs=3, sample_size=sample_size, master_seed=6)
            want = run_experiment(**args)
            climbs = [len(t.points) for t in want.trajectories]
            for lanes in (1, 3, 7, 14):
                monkeypatch.setattr(sbox_module, "_CALL_BYTES", lanes * ((per_output << 5) + per_lane))
                monkeypatch.setattr(trajectory_module, "hw_class_shuffle", shuffle)
                monkeypatch.setattr(trajectory_module, "metric_value", metric)
                shuffled.clear()
                scored.clear()
                assert run_experiment(**args) == want, (metric_name, lanes)
                # Each run's members, cut into calls of `lanes`.
                calls = [
                    min(lanes, members - start)
                    for members in (sample_size * k for k in climbs)
                    for start in range(0, members, lanes)
                ]
                assert scored == calls, (metric_name, lanes)
                assert shuffled == (calls if sample_size > 1 else []), (metric_name, lanes)
            monkeypatch.undo()

    def test_large_sample_memory_is_bounded(self):
        # A sample of 10 * shuffle_lanes(3) members is drawn shuffle_lanes(3)
        # members per call, so the run never holds the streams and S-boxes
        # of the whole sample.
        size = 10 * sbox_module.shuffle_lanes(3)
        tracemalloc.start()
        try:
            trajectory = trajectory_module._run_trajectory(3, "to", size, 1, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trajectory.points
        # One call's bytes, plus 1 MiB for the search and the metric.
        assert peak < sbox_module._CALL_BYTES + 2**20

    def test_trajectory_points_agree_with_public_ops(self):
        # the driver skips the members' CCV keys; rebuilding each point from
        # the public sample and metric operations must give the same point
        summary = run_experiment(n=4, metric="to", runs=2, sample_size=5, master_seed=31)
        for run_id, trajectory in enumerate(summary.trajectories):
            result = ls_hwf(4, RngStream(31, (run_id,)))
            sbox = result.initial
            for point, event in zip(trajectory.points, result.events):
                sbox = swap_outputs(sbox, event.i, event.j)
                rng = RngStream(31, (run_id, event.climb_index))
                sample = list(sample_equal_ccv([sbox], 5, [rng]))
                keys = {ccv_key(s) for s in sample}
                assert len(keys) == 1
                values = [metric_value(s, "to") for s in sample]
                total = functools.reduce(operator.add, values, 0.0)  # left to right
                mean = values[0] if len(set(values)) == 1 else total / len(values)
                rebuilt = TrajectoryPoint(event.climb_index, keys.pop().value, mean)
                assert rebuilt == point
