"""Check that the calibration kernel's speed does not depend on the program.

``SpeedClock`` scales each operation by the kernel time measured right after
it.  If an operation left the process in a state that slowed or sped up the
kernel (heap size, cache contents), the scale would partly cancel a change
in the operation's own time.  This probe runs small operations of every kind
the workloads time, plus one that allocates and touches 200 MB, in shuffled
order, and prints the median kernel time after each kind.  Run it from the
root of a checkout::

    python3 perfbench/kernel_probe.py
"""
import os
import random
import statistics
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import run  # noqa: E402

bd = run.import_bdgeom()
import workloads as W  # noqa: E402

ROUNDS = 60
REPS = 20


def main() -> int:
    st = bd.statistics
    paths = W.Paths(bd, 5, 30)
    trackers = {}
    for rep, label in enumerate(paths.PAIRS):
        functional, nbhd = paths.pairs[label]
        rng = paths.config.rng(rep)
        state = st.sample_stationary(paths.config, rng)
        stream = st.simulate_events(paths.config, state, rng)
        trackers[label] = [state, stream, st.SubsetTracker(state, functional, paths.r, nbhd), 0]

    def replay(label: str, count: int):
        entry = trackers[label]
        state, stream, tracker, start = entry
        events = stream.events[start:start + count]
        entry[3] += count
        return st.replay(state, W.replace(stream, events=events), [tracker], [events[-1].time])

    slices = W.Slices(bd, 5, 30)
    marked = bd.process.sample_marked(slices.config, slices.config.rng(0))
    pos = np.array([m.position for m in marked]).reshape(-1, W.DIM)
    births = np.array([m.birth for m in marked])
    ends = births + np.array([m.lifetime for m in marked])
    points = pos[(births <= 4.0) & (4.0 < ends)]
    models = W.Models(bd, 5, 30)

    def touch():
        block = np.ones(25_000_000)
        return float(block.sum())

    ops = {
        "edges replay": lambda: replay("edges", 100),
        "isotriangles replay": lambda: replay("isotriangles", 40),
        "morse1 replay": lambda: replay("morse1", 20),
        "slice evaluate": lambda: st.evaluate_statistic(
            bd.process.Configuration.from_points(points, slices.metric),
            slices.functional, slices.r, slices.nbhd,
        ),
        "isolated-point build": lambda: bd.theory.exclusive_mixture_model(
            models.point, models.balls, models.density, W.GAMMA,
            budget=100, seed=1, **W.EXCLUSIVE_SETTINGS,
        ),
        "200 MB touch": touch,
    }
    after = {kind: [] for kind in ops}
    order = random.Random(0)
    for _ in range(ROUNDS):
        kinds = list(ops)
        order.shuffle(kinds)
        for kind in kinds:
            ops[kind]()
            after[kind].append(W.SpeedClock.sample(REPS))
    overall = statistics.median(v for values in after.values() for v in values)
    print(f"median kernel call: {overall * 1e3:.3f} ms")
    for kind, values in after.items():
        median = statistics.median(values)
        print(f"after {kind:22s} {median * 1e3:.3f} ms ({100 * (median / overall - 1):+.1f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
