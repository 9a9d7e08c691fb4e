"""The array trace analysis against the scalar walks it replaced.

The walks below are the reference: every field of every result, dtype
included, must match them exactly, and ``histograms_to_csv`` must write the
same bytes.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ddread.measurement as measurement
from ddread.analysis import (
    LOW_STATISTICS_PAIRS,
    ConditionalHistograms,
    FidelityReport,
    JumpRecord,
    ThresholdPolicy,
    conditional_histograms,
    detect_jumps,
    fidelity_vs_threshold,
    histograms_to_csv,
)
from ddread.measurement import PhotonTrace, ReadoutConfig

# ------------------------------------------------------------ scalar walks


def walk_histograms(trace, policy):
    counts = trace.points
    if len(counts) < 2:
        raise ValueError("trace must contain at least 2 points")
    prep_up, prep_down = [], []
    i = 0
    while i < len(counts) - 1:
        c = counts[i]
        if c > policy.init_high:
            prep_up.append(i)
            i += 2
        elif c < policy.init_low:
            prep_down.append(i)
            i += 2
        else:
            i += 1
    prep_up = np.asarray(prep_up, dtype=np.intp)
    prep_down = np.asarray(prep_down, dtype=np.intp)
    hidden = trace.hidden_states
    low = min(len(prep_up), len(prep_down)) < LOW_STATISTICS_PAIRS
    return ConditionalHistograms(
        samples_up=np.asarray(counts[prep_up + 1], dtype=np.int64),
        samples_down=np.asarray(counts[prep_down + 1], dtype=np.int64),
        init_match_up=(None if hidden is None
                       else int(np.sum(hidden[prep_up] == 1))),
        init_match_down=(None if hidden is None
                         else int(np.sum(hidden[prep_down] == -1))),
        low_statistics=low,
    )


def walk_fidelity(hists):
    up, down = hists.samples_up, hists.samples_down
    if len(up) == 0 or len(down) == 0:
        raise ValueError("both conditional histograms must be nonempty")
    lo = int(min(up.min(), down.min()))
    hi = int(max(up.max(), down.max())) + 1
    thresholds = np.arange(lo, hi + 1)
    f_up = np.array([(up >= th).mean() for th in thresholds])
    f_down = np.array([(down < th).mean() for th in thresholds])
    f_avg = (f_up + f_down) / 2.0
    best = int(np.argmax(np.minimum(f_up, f_down)))
    curve = np.column_stack([thresholds.astype(float), f_up, f_down, f_avg])
    # the report keeps the first row and each row where f_up or f_down moves
    moved = np.any(np.diff(curve[:, 1:3], axis=0) != 0, axis=1)
    curve = curve[np.concatenate(([True], moved))]
    return FidelityReport(
        fidelity_up=float(f_up[best]),
        fidelity_down=float(f_down[best]),
        init_fidelity_up=(None if hists.init_match_up is None
                          else hists.init_match_up / len(up)),
        init_fidelity_down=(None if hists.init_match_down is None
                            else hists.init_match_down / len(down)),
        optimal_threshold=int(thresholds[best]),
        threshold_curve=curve,
        n_pairs_up=len(up),
        n_pairs_down=len(down),
        low_statistics=hists.low_statistics,
    )


def walk_jumps(trace, policy):
    counts = trace.points
    if len(counts) == 0:
        raise ValueError("trace must be nonempty")
    states = np.zeros(len(counts), dtype=np.int8)
    cur = 0
    for i, c in enumerate(counts):
        if c > policy.init_high:
            cur = 1
        elif c < policy.init_low:
            cur = -1
        states[i] = cur
    defined = states != 0
    jump_idx = []
    dwells = {1: [], -1: []}
    censored = {1: [], -1: []}
    idx = np.nonzero(defined)[0]
    if len(idx) > 0:
        run_state = states[idx[0]]
        run_len = 0
        first_run = True
        for i in idx:
            if states[i] == run_state:
                run_len += 1
            else:
                (censored if first_run else dwells)[int(run_state)].append(run_len)
                first_run = False
                jump_idx.append(i)
                run_state = states[i]
                run_len = 1
        censored[int(run_state)].append(run_len)
    return JumpRecord(
        states=states,
        dwells_up=np.asarray(dwells[1], dtype=np.int64),
        dwells_down=np.asarray(dwells[-1], dtype=np.int64),
        dwells_up_censored=np.asarray(censored[1], dtype=np.int64),
        dwells_down_censored=np.asarray(censored[-1], dtype=np.int64),
        jump_indices=np.asarray(jump_idx, dtype=np.int64),
    )


def walk_histograms_csv(hists, path):
    lo = int(min(hists.samples_up.min(initial=0),
                 hists.samples_down.min(initial=0)))
    hi = int(max(hists.samples_up.max(initial=0),
                 hists.samples_down.max(initial=0)))
    with open(path, "w") as fh:
        fh.write("count,freq_up,freq_down\n")
        for c in range(lo, hi + 1):
            fu = int((hists.samples_up == c).sum())
            fd = int((hists.samples_down == c).sum())
            if fu or fd:
                fh.write(f"{c},{fu},{fd}\n")


def row_histograms_csv(hists, path):
    """``histograms_to_csv`` as one formatted write per row, for any range
    of counts (the block writer's oracle)."""
    up, down = (Counter(x.tolist()) for x in (hists.samples_up, hists.samples_down))
    with open(path, "w") as fh:
        fh.write("count,freq_up,freq_down\n")
        for c in sorted(up | down):
            fh.write(f"{c},{up[c]},{down[c]}\n")


# ---------------------------------------------------------------- helpers


def outcome(fn, *args):
    """The result of ``fn``, or the message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def assert_same(got, want):
    assert type(got) is type(want)
    if not dataclasses.is_dataclass(want):
        assert got == want
        return
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, f.name
            assert np.array_equal(a, b), f.name
        else:
            assert type(a) is type(b) and a == b, f.name


def assert_matches_walks(trace, policy):
    hists = outcome(conditional_histograms, trace, policy)
    assert_same(hists, outcome(walk_histograms, trace, policy))
    if isinstance(hists, ConditionalHistograms):
        assert_same(outcome(fidelity_vs_threshold, hists),
                    outcome(walk_fidelity, hists))
    assert_same(outcome(detect_jumps, trace, policy),
                outcome(walk_jumps, trace, policy))


def make_trace(counts, hidden=True):
    counts = np.asarray(counts, dtype=np.int64)
    states = np.where(counts >= 2400, 1, -1).astype(np.int8) if hidden else None
    return PhotonTrace(points=counts, hidden_states=states,
                       config=ReadoutConfig())


# ------------------------------------------------------------------ tests

# counts and thresholds from one small range, so that runs of qualifying
# points, undeclared stretches and ties at the thresholds are all common
small_traces = st.builds(
    lambda counts, signs: PhotonTrace(
        points=np.asarray(counts, dtype=np.int64),
        hidden_states=(None if signs is None
                       else np.resize(np.asarray(signs, dtype=np.int8),
                                      len(counts))),
        config=ReadoutConfig()),
    st.lists(st.integers(0, 40), min_size=0, max_size=300),
    st.none() | st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=50),
)
policies = st.tuples(st.integers(0, 40), st.integers(0, 40)).map(
    lambda t: ThresholdPolicy(min(t), max(t)))


@settings(max_examples=300, deadline=None)
@given(small_traces, policies)
def test_array_analysis_matches_walks(trace, policy):
    assert_matches_walks(trace, policy)


@pytest.mark.parametrize("counts,hidden", [
    ([2600], True),                               # one point
    ([2600, 2100], True),                         # two points
    ([2100, 2600], True),
    ([2400] * 12, True),                          # all between thresholds
    ([2400, 2400, 2600, 2600, 2600], True),       # run touches the last point
    ([2400, 2600, 2100, 2600], True),             # ... at even offset
    ([2600] * 30, True),                          # a single run
    ([2400, 2400] + [2100] * 9 + [2400], True),   # a single run, late start
    ([2600, 2100] * 60, True),                    # alternating +-1
    ([2600, 2400, 2100, 2400] * 40, True),
    ([2600, 2600, 2100, 2400, 2100, 2450] * 50, False),  # no hidden states
])
def test_array_analysis_matches_walks_edge_cases(counts, hidden):
    assert_matches_walks(make_trace(counts, hidden), ThresholdPolicy())


def test_histograms_csv_matches_walk(tmp_path):
    rng = np.random.default_rng(12)
    state = np.repeat(rng.choice([1, -1], size=400), rng.geometric(1 / 50, 400))
    counts = rng.poisson(np.where(state == 1, 2520.0, 2300.0))
    for trace in (make_trace(counts), make_trace([2600] * 9 + [2100])):
        hists = conditional_histograms(trace, ThresholdPolicy())
        histograms_to_csv(hists, tmp_path / "array.csv")
        walk_histograms_csv(hists, tmp_path / "walk.csv")
        assert ((tmp_path / "array.csv").read_bytes()
                == (tmp_path / "walk.csv").read_bytes())


@pytest.mark.parametrize("n", [0, 1, 1000])
def test_histograms_csv_matches_the_row_writer(tmp_path, monkeypatch, n):
    """The block writer gives the row writer's bytes for any block size, an
    int64-limit outlier row included."""
    rng = np.random.default_rng(n)
    up, down = rng.poisson(2520, n), rng.poisson(2300, n // 2 + 1)
    up[-1:] = 2**63 - 1
    hists = ConditionalHistograms(samples_up=up, samples_down=down,
                                  init_match_up=None, init_match_down=None,
                                  low_statistics=True)
    row_histograms_csv(hists, tmp_path / "rows.csv")
    for block in (7, 1000, measurement._CSV_BLOCK):
        monkeypatch.setattr(measurement, "_CSV_BLOCK", block)
        histograms_to_csv(hists, tmp_path / "blocks.csv")
        assert ((tmp_path / "blocks.csv").read_bytes()
                == (tmp_path / "rows.csv").read_bytes())
