"""Synthetic telegraph photon trace with its ground truth.

The trace mimics the projective single-shot readout at the calibrated working
point: the nuclear spin switches between up (bright) and down (dark) with
lifetime T1n, each point integrates CYCLES readout cycles, and a point's count
is Poisson at the calibrated per-cycle rates, with each cycle's outcome class
misassigned with probability MISASSIGN.  Flips fall on cycle boundaries, so a
point that contains a flip mixes the two rates.  The generator is independent
of ddread, so the analysis can be checked against it.

Run as a script:

    python3 perfbench/telegraph.py --seed 1 --points 1000000 --out DIR

It writes DIR/telegraph.csv (the ``ddread analyze`` input) and, next to it,
DIR/telegraph.hidden.npy (hidden state per point, +1 up / -1 down) and
DIR/telegraph.truth.json (analytic per-state fidelity, true dwell mean).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

CYCLES = 40000
POINT_S = 0.189
T1N_S = 15.0
RATE_BRIGHT = 0.063
RATE_DARK = 0.0575
MISASSIGN = 0.10


def hidden_states(seed: int, n_points: int):
    """Cycles spent up in each point, from a continuous-time telegraph."""
    rng = np.random.default_rng([seed, 0])
    total = n_points * CYCLES
    p_flip = -np.expm1(-(POINT_S / CYCLES) / T1N_S)
    first_up = rng.random() < 0.5
    # dwell lengths in cycles, drawn until they cover the whole trace
    dwells = rng.geometric(p_flip, size=int(total * p_flip * 1.2) + 64)
    while dwells.sum() < total:
        dwells = np.concatenate([dwells, rng.geometric(p_flip, size=len(dwells))])
    edges = np.concatenate([[0], np.cumsum(dwells)])
    edges = edges[: np.searchsorted(edges, total) + 1]
    seg_up = (np.arange(len(edges) - 1) % 2 == 0) == first_up
    # cumulative up-cycles at each segment start, then at each point boundary
    up_at_edge = np.concatenate([[0], np.cumsum(np.diff(edges) * seg_up)])
    bounds = np.arange(n_points + 1, dtype=np.int64) * CYCLES
    seg = np.searchsorted(edges, bounds, side="right") - 1
    seg = np.minimum(seg, len(seg_up) - 1)
    up_at_bound = up_at_edge[seg] + (bounds - edges[seg]) * seg_up[seg]
    return np.diff(up_at_bound)


def photon_counts(seed: int, up_cycles: np.ndarray) -> np.ndarray:
    rng = np.random.default_rng([seed, 1])
    down_cycles = CYCLES - up_cycles
    wrong_up = rng.binomial(up_cycles, MISASSIGN)
    wrong_down = rng.binomial(down_cycles, MISASSIGN)
    mean = (RATE_BRIGHT * (up_cycles - wrong_up) + RATE_DARK * wrong_up
            + RATE_DARK * (down_cycles - wrong_down) + RATE_BRIGHT * wrong_down)
    return rng.poisson(mean)


def analytic_fidelity():
    """Max-min per-state fidelity of a point that stays in one state.

    The count of a pure point is a binomial mixture of Poissons over the
    number of misassigned cycles; the threshold rule is the one ddread uses
    (up if count >= threshold).
    """
    from scipy.special import gammaln, pdtr, pdtrc

    sd = np.sqrt(CYCLES * MISASSIGN * (1.0 - MISASSIGN))
    w = np.arange(max(0, int(CYCLES * MISASSIGN - 8 * sd)),
                  int(CYCLES * MISASSIGN + 8 * sd) + 1)
    pw = np.exp(gammaln(CYCLES + 1) - gammaln(w + 1) - gammaln(CYCLES - w + 1)
                + w * np.log(MISASSIGN) + (CYCLES - w) * np.log1p(-MISASSIGN))
    lam_up = RATE_BRIGHT * (CYCLES - w) + RATE_DARK * w
    lam_down = RATE_DARK * (CYCLES - w) + RATE_BRIGHT * w
    # f_up falls and f_down rises with the threshold, so the max-min
    # threshold lies between the two mean counts
    th = np.arange(int(pw @ lam_down), int(pw @ lam_up) + 2)
    # P(count >= th | up) and P(count < th | down)
    f_up = pdtrc(th[:, None] - 1, lam_up[None, :]) @ pw
    f_down = pdtr(th[:, None] - 1, lam_down[None, :]) @ pw
    best = int(np.argmax(np.minimum(f_up, f_down)))
    return float(f_up[best]), float(f_down[best]), int(th[best])


def interior_dwell_mean(hidden: np.ndarray) -> float:
    """Mean length in points of the runs of ``hidden`` that touch no boundary."""
    starts = np.concatenate([[0], np.nonzero(np.diff(hidden))[0] + 1, [len(hidden)]])
    runs = np.diff(starts)[1:-1]
    return float(runs.mean())


def generate(seed: int, n_points: int, out_dir: Path) -> Path:
    up = hidden_states(seed, n_points)
    hidden = np.where(2 * up >= CYCLES, 1, -1).astype(np.int8)
    counts = photon_counts(seed, up)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv = out_dir / "telegraph.csv"
    rows = "\n".join(f"{i},{c},{h}" for i, (c, h)
                     in enumerate(zip(counts.tolist(), hidden.tolist())))
    csv.write_text(f"# generator=telegraph seed={seed}\n"
                   "point_index,photon_count,hidden_state\n" + rows + "\n")
    np.save(out_dir / "telegraph.hidden.npy", hidden)
    f_up, f_down, threshold = analytic_fidelity()
    truth = {
        "seed": seed, "points": n_points,
        "fidelity_up": f_up, "fidelity_down": f_down, "threshold": threshold,
        "dwell_mean_points": interior_dwell_mean(hidden),
        "configured_dwell_points": T1N_S / POINT_S,
        "point_duration_s": POINT_S,
    }
    (out_dir / "telegraph.truth.json").write_text(json.dumps(truth, indent=2))
    return csv


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--points", type=int, default=1_000_000)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.points < 2:
        parser.error("--seed must be >= 0 and --points >= 2")
    print(f"wrote {generate(args.seed, args.points, Path(args.out))}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
