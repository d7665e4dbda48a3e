"""A fixed reference computation that gauges the machine's current speed.

The benchmark's host is shared, and its speed drifts by tens of percent over
minutes as other tenants come and go. `reference_s` times a fixed piece of
work of the same kind qamlz does (a Python loop over small numpy arrays, the
shape of a Metropolis sweep, plus dict building and sorting) that uses no
qamlz code, so a change to qamlz cannot move it. Timed just before and after
each of the benchmark's passes, it lets a run report each pass's time
relative to the machine's speed at that moment.
"""

from __future__ import annotations

import time

import numpy as np

N_SPINS = 84
N_READS = 100
SWEEPS = 40


def reference_s() -> float:
    """Wall time of the fixed reference work, in seconds."""
    rng = np.random.default_rng(0)
    j = rng.normal(size=(N_SPINS, N_SPINS))
    j = (j + j.T) / 2.0
    state = np.ones((N_READS, N_SPINS))
    start = time.perf_counter()
    fields = state @ j
    for sweep in range(SWEEPS):
        uniforms = rng.random((N_SPINS, N_READS))
        temp = 1.0 + sweep
        for i in range(N_SPINS):
            delta = -2.0 * state[:, i] * fields[:, i]
            accept = (delta <= 0.0) | (uniforms[i] < np.exp(-np.maximum(delta, 0.0) / temp))
            if accept.any():
                fields[accept] -= (2.0 * state[accept, i])[:, None] * j[i]
                state[accept, i] *= -1.0
    couplers = {(a, b): float(j[a, b]) for a in range(N_SPINS) for b in range(a + 1, N_SPINS)}
    kept = sorted(couplers.items(), key=lambda kv: -abs(kv[1]))[: len(couplers) // 4]
    if len(kept) != len(couplers) // 4:
        raise AssertionError("reference work went wrong")
    return time.perf_counter() - start
