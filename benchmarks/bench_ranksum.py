"""Rank-sum kernel microbench: vectorized batch vs the scalar loop.

Times :func:`repro.core.ranksum.rank_sum_many` against the equivalent
python loop over :func:`repro.core.ranksum.rank_sum_test` on windows
shaped like real detector traffic — 25-pair windows mixing heavy-tie
integer backoffs with continuous values.

Two kinds of cell:

* one large batch (4096 windows, scaled by REPRO_SCALE), the kernel's
  best case;
* the flush sizes ``repro serve``'s scheduler really produces — 4 and
  12 windows (the replay16 workload's p10 and median flush) and 64
  (serve-deep's median) — each timed over enough repeats of the batch
  to rank 4096 windows per measurement.  The kernel's one consumer is
  that scheduler, so the gate sits at 64 windows: the kernel must beat
  the scalar loop it replaces there by >= 1.5x.

The kernel's contract is bit-identity, so every cell first asserts the
two paths return equal results, then prices them.
"""

from __future__ import annotations

import random
import time

from repro.core.ranksum import rank_sum_many, rank_sum_test
from repro.obs.bench import write_bench_manifest
from repro.util.fidelity import fidelity_scale

SEED = 11
WINDOW = 25
BASE_BATCH = 4096
ALTERNATIVE = "less"
ROUNDS = 5
#: Scheduler flush sizes, in windows per kernel call.
FLUSH_SIZES = (4, 12, 64)
#: Windows ranked per timed measurement at a flush size.
FLUSH_WINDOWS = 4096
#: The gated flush size and its minimum kernel-over-scalar speedup.
GATE_SIZE = 64
GATE_SPEEDUP = 1.5


def _make_windows(batch):
    """Deterministic windows mixing tied and continuous regimes."""
    rng = random.Random(SEED)
    xs, ys = [], []
    for i in range(batch):
        if i % 2:
            x = [float(rng.randint(0, 31)) for _ in range(WINDOW)]
            y = [float(rng.randint(0, 24)) for _ in range(WINDOW)]
        else:
            x = [rng.uniform(0.0, 31.0) for _ in range(WINDOW)]
            y = [rng.uniform(0.0, 24.0) for _ in range(WINDOW)]
        xs.append(x)
        ys.append(y)
    return xs, ys


def _scalar(xs, ys):
    return [rank_sum_test(x, y, ALTERNATIVE) for x, y in zip(xs, ys)]


def _best_seconds(evaluate, repeats):
    """Best-of-ROUNDS wall seconds for ``repeats`` calls of ``evaluate``."""
    best = float("inf")
    for _round in range(ROUNDS):
        begin = time.perf_counter()
        for _ in range(repeats):
            evaluate()
        best = min(best, time.perf_counter() - begin)
    return best


def _flush_cell(size):
    """Kernel vs scalar loop at one scheduler flush size."""
    xs, ys = _make_windows(size)
    assert rank_sum_many(xs, ys, ALTERNATIVE) == _scalar(xs, ys)
    repeats = FLUSH_WINDOWS // size
    windows = repeats * size
    kernel = _best_seconds(lambda: rank_sum_many(xs, ys, ALTERNATIVE), repeats)
    scalar = _best_seconds(lambda: _scalar(xs, ys), repeats)
    return {
        "windows": size,
        "kernel_us_per_window": kernel / windows * 1e6,
        "scalar_us_per_window": scalar / windows * 1e6,
        "speedup": scalar / kernel,
    }


def bench_ranksum_kernel(benchmark):
    batch = max(int(BASE_BATCH * fidelity_scale()), 64)
    xs, ys = _make_windows(batch)

    batched = benchmark.pedantic(
        lambda: rank_sum_many(xs, ys, ALTERNATIVE),
        rounds=ROUNDS,
        iterations=1,
    )

    begin = time.perf_counter()
    scalar = _scalar(xs, ys)
    scalar_seconds = time.perf_counter() - begin

    # Bit-identity before throughput: every statistic, p-value and
    # method tag must match the scalar reference exactly.
    assert batched == scalar

    batched_seconds = min(benchmark.stats.stats.data)
    speedup = scalar_seconds / batched_seconds
    flush = {f"w{size}": _flush_cell(size) for size in FLUSH_SIZES}
    results = {
        "batch": batch,
        "window": WINDOW,
        "batched_seconds": batched_seconds,
        "batched_windows_per_sec": batch / batched_seconds,
        "scalar_seconds": scalar_seconds,
        "scalar_windows_per_sec": batch / scalar_seconds,
        "speedup": speedup,
        "flush": flush,
    }
    print()
    print(
        f"rank-sum kernel ({batch} windows x {WINDOW} pairs): "
        f"scalar {results['scalar_windows_per_sec']:>10,.0f} win/s, "
        f"batched {results['batched_windows_per_sec']:>10,.0f} win/s "
        f"({speedup:.2f}x)"
    )
    for size in FLUSH_SIZES:
        cell = flush[f"w{size}"]
        print(
            f"rank-sum flush of {size:3d} windows: "
            f"scalar {cell['scalar_us_per_window']:6.2f} us/win, "
            f"kernel {cell['kernel_us_per_window']:6.2f} us/win "
            f"({cell['speedup']:.2f}x)"
        )
    write_bench_manifest(
        "ranksum",
        results,
        seed=SEED,
        config={
            "window": WINDOW,
            "base_batch": BASE_BATCH,
            "alternative": ALTERNATIVE,
            "rounds": ROUNDS,
            "flush_sizes": list(FLUSH_SIZES),
            "flush_windows": FLUSH_WINDOWS,
        },
    )

    # The large batch is the kernel's best case: a healthy multiple
    # over the python loop.  (Measures ~3.2-3.5x; the guard leaves
    # headroom for noisy CI runners.)
    assert speedup >= 2.5, (
        f"expected >= 2.5x over the scalar loop, measured {speedup:.2f}x"
    )
    # The scheduler's reason to call the kernel: a win at the flush
    # size serve really produces.
    gate = flush[f"w{GATE_SIZE}"]["speedup"]
    assert gate >= GATE_SPEEDUP, (
        f"expected >= {GATE_SPEEDUP}x at {GATE_SIZE}-window flushes, "
        f"measured {gate:.2f}x"
    )
