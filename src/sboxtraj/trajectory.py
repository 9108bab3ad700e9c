"""Trajectory-correlation experiment over hill-climber runs.

For each run: climb with LS-HWF; at every accepted swap draw a sample of
S-boxes sharing the incumbent's CCV (weight-class shuffles), and record the
pair (mean CCV, mean metric).  The per-run Pearson coefficient of those pairs
measures how linearly the metric tracks CCV along the climb; the experiment
summarizes the coefficients over all runs.

Seed discipline: run r climbs with stream (master_seed, (r,)) and samples at
climb k with stream (master_seed, (r, k)), sample s drawing from child
(r, k, s), so results are independent of evaluation order.
"""

import functools
import itertools
import math
import operator
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .metrics import metric_value
from .rng import SEED_MIXER_ID, RngStream
from .sbox import SBox, hw_class_shuffle, shuffle_lanes, swap_outputs
from .search import check_search_width, ls_hwf

# The metrics the experiment correlates with CCV; see metrics.metric_value.
METRICS = ("to", "mto0", "rto0")


class DegenerateTrajectoryError(ValueError):
    """Trajectory has fewer than two points or a constant coordinate."""


class InsufficientDataError(ValueError):
    """Fewer than two values available for mean/deviation statistics."""


@dataclass(frozen=True)
class TrajectoryPoint:
    """Sample means at one climb: x = mean CCV, y = mean metric."""

    climb_index: int
    mean_ccv: float
    mean_metric: float


@dataclass(frozen=True)
class Trajectory:
    """Ordered climb points of one run; pearson_r is None when degenerate."""

    run_id: int
    points: tuple[TrajectoryPoint, ...]
    pearson_r: float | None


@dataclass(frozen=True)
class ExperimentSummary:
    """Per-run Pearson coefficients and their descriptive statistics.

    mean/std are None when fewer than two runs were non-degenerate.  The
    metadata dict records estimator and sampling conventions so result files
    are self-describing.
    """

    n: int
    metric: str
    runs: int
    sample_size: int
    master_seed: int
    trajectories: tuple[Trajectory, ...]
    pearson_by_run: tuple[tuple[int, float], ...]
    mean: float | None
    std: float | None
    degenerate_runs: tuple[int, ...]
    metadata: dict


def _sum(values) -> float:
    # Left to right on every Python: the built-in sum compensates from 3.12 on.
    return functools.reduce(operator.add, values, 0.0)


def _mean(values: list[float]) -> float:
    # A constant sequence's mean is the common value, computed exactly.
    if all(v == values[0] for v in values[1:]):
        return values[0]
    return _sum(values) / len(values)


def sample_equal_ccv(
    fstars: Iterable[SBox], size: int, rngs: Iterable[RngStream]
) -> Iterator[SBox]:
    """The members of one sample of `size` S-boxes with exactly the CCV of
    each of `fstars`, sample by sample, each in member order.

    Member s of sample k is an independent weight-class shuffle of the k-th
    S-box, drawn from the k-th stream's child(s); duplicates are permitted.
    Both inputs are read lazily, one call's worth at a time, and must have
    the same length (ValueError when the members are taken).  Members are
    shuffled as many per call as sbox.shuffle_lanes allows, so the S-boxes
    must have the same class sizes.  A size-1 sample is the S-box itself,
    matching the revised-transparency-order protocol.
    """
    if size < 1:
        raise ValueError(f"sample size must be >= 1, got {size}")
    return itertools.chain.from_iterable(_sample_calls(fstars, size, rngs))


def _sample_calls(
    fstars: Iterable[SBox], size: int, rngs: Iterable[RngStream]
) -> Iterator[list[SBox]]:
    """The members of sample_equal_ccv for size >= 1, one hw_class_shuffle
    call of shuffle_lanes(n) lanes at a time, across samples; for size 1,
    shuffle_lanes(n) of the S-boxes themselves at a time."""
    pairs = zip(fstars, rngs, strict=True)
    lanes = pairs if size == 1 else ((f, rng.child(s)) for f, rng in pairs for s in range(size))
    for first in lanes:
        call = [first, *itertools.islice(lanes, shuffle_lanes(first[0].n) - 1)]
        sboxes = [fstar for fstar, _ in call]
        yield sboxes if size == 1 else hw_class_shuffle(sboxes, [rng for _, rng in call])


def pearson(points: list[TrajectoryPoint]) -> float:
    """Pearson product-moment coefficient of (mean_ccv, mean_metric) pairs."""
    if len(points) < 2:
        raise DegenerateTrajectoryError(
            f"need at least two points, got {len(points)}"
        )
    xs = [p.mean_ccv for p in points]
    ys = [p.mean_metric for p in points]
    mx = _mean(xs)
    my = _mean(ys)
    sxx = _sum((x - mx) ** 2 for x in xs)
    syy = _sum((y - my) ** 2 for y in ys)
    if sxx == 0.0 or syy == 0.0:
        raise DegenerateTrajectoryError("a coordinate is constant")
    sxy = _sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    r = sxy / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))


def summary_stats(values: list[float]) -> tuple[float, float]:
    """Arithmetic mean and sample standard deviation (divisor count - 1)."""
    vals = [float(v) for v in values]
    if len(vals) < 2:
        raise InsufficientDataError(f"need at least two values, got {len(vals)}")
    mean = _mean(vals)
    var = _sum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
    return mean, math.sqrt(var)


def _run_trajectory(
    n: int, metric: str, sample_size: int, master_seed: int, run_id: int
) -> Trajectory:
    result = ls_hwf(n, RngStream(master_seed, (run_id,)))
    incumbents = itertools.accumulate(
        result.events, lambda sbox, e: swap_outputs(sbox, e.i, e.j), initial=result.initial
    )
    next(incumbents)  # the initial S-box, before the first climb
    rngs = (RngStream(master_seed, (run_id, event.climb_index)) for event in result.events)
    # The metric scores each of the sampler's calls whole, across samples: a
    # sample's few members alone would leave most of the per-call cost
    # unshared, and the call's size already bounds its memory.
    values = itertools.chain.from_iterable(
        metric_value(call, metric) for call in _sample_calls(incumbents, sample_size, rngs)
    )
    samples = (list(itertools.islice(values, sample_size)) for _ in result.events)
    # The sample is CCV-constant by construction, so the mean CCV is the
    # incumbent's value exactly.
    points = [
        TrajectoryPoint(event.climb_index, event.ccv_key_after.value, _mean(sample))
        for event, sample in zip(result.events, samples)
    ]
    try:
        r = pearson(points)
    except DegenerateTrajectoryError:
        r = None
    return Trajectory(run_id, tuple(points), r)


def check_experiment(n: int, metric: str, runs: int, sample_size: int | None) -> None:
    """Raise ValueError (SBoxError for the width) unless the experiment can
    run; it does no work, so callers check before anything is written."""
    check_search_width(n)
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
    if runs < 2:
        raise ValueError(f"at least two runs are required, got {runs}")
    if sample_size is not None and sample_size < 1:
        raise ValueError(f"sample size must be >= 1, got {sample_size}")


def run_experiment(
    n: int,
    metric: str,
    runs: int = 30,
    sample_size: int | None = None,
    master_seed: int = 0,
) -> ExperimentSummary:
    """Run the full trajectory-correlation experiment.

    Defaults mirror the reference protocol: 30 runs, 30-member samples for
    to/mto0 and a single-member sample (the incumbent itself) for rto0.
    Runs are indexed 0..runs-1; a fixed master seed reproduces the summary
    byte-for-byte.
    """
    check_experiment(n, metric, runs, sample_size)
    if sample_size is None:
        sample_size = 1 if metric == "rto0" else 30

    trajectories = tuple(
        _run_trajectory(n, metric, sample_size, master_seed, run_id)
        for run_id in range(runs)
    )
    usable = [t for t in trajectories if t.pearson_r is not None]
    degenerate = tuple(t.run_id for t in trajectories if t.pearson_r is None)
    values = [t.pearson_r for t in usable]
    if len(values) >= 2:
        mean, std = summary_stats(values)
    else:
        mean = std = None
    return ExperimentSummary(
        n=n,
        metric=metric,
        runs=runs,
        sample_size=sample_size,
        master_seed=master_seed,
        trajectories=trajectories,
        pearson_by_run=tuple((t.run_id, t.pearson_r) for t in usable),
        mean=mean,
        std=std,
        degenerate_runs=degenerate,
        metadata={
            "seed_mixer": SEED_MIXER_ID,
            "std_estimator": "sample (divisor runs-1)",
            "equal_ccv_sampling": "independent per-class shuffles; duplicates permitted",
        },
    )
