"""A fixed probe of host speed, run between the timed units of a pass.

The host that runs the benchmark is shared: its speed drifts by 30% or more
in episodes of seconds to minutes, and a 40 s run sits inside one episode,
so raw medians of runs made minutes apart disagree. The probe is fixed code
that uses numpy only, never chaincert. Timed right after each unit, it slows
down and speeds up with the host. It has two parts:

- ``interpreter``: bisection with tiny numpy calls on short vectors, like
  the many short solves of small-battery and the set-up's imports;
- ``arrays``: cache-sized sorting and products and streaming over 8 MB
  arrays, like the array work of large-space and of the CLI's sampling and
  statistics.

small-battery and set-up time ``interpreter`` alone, which follows them
closely. large-space and cli-brownian time both parts in about equal
shares: neither part alone follows them well, and the mix does better than
either (see the README).

Pass and space times are reported at the reference speed, the speed at
which one probe call takes ``REF_S[workload]`` seconds. These constants are
set so that normalized times read like the measured seconds of the 2-core
Xeon VM of the README baseline at its typical speed:

    normalized seconds = measured seconds * REF_S / (seconds per probe call)

A change to the program moves normalized times exactly as much as measured
ones; a change of host speed moves the probe as well and cancels out.
Measured times are kept in the detailed results.
"""

from __future__ import annotations

import time

import numpy as np

_rng = np.random.default_rng(20260)
_SHORT = [_rng.random(24) for _ in range(8)]
_MID = _rng.random((128, 128))
_LONG = _rng.random(1 << 20)
_OUT = np.empty_like(_LONG)


def interpreter():
    acc = 0.0
    for v in _SHORT:
        lo, hi = 0.0, 8.0
        for _ in range(30):
            mid = 0.5 * (lo + hi)
            if float(np.sum((v / mid) ** 2)) > 1.0:
                lo = mid
            else:
                hi = mid
        acc += hi
    return acc


def arrays():
    acc = float(np.sort(_MID, axis=1)[:, 0].sum())
    acc += float((_MID[:32, None, :] < _MID[None, :32, :]).sum())
    acc += float((_MID @ _MID).trace())
    np.multiply(_LONG, 1.0001, out=_OUT)
    np.maximum(_OUT, _LONG, out=_OUT)
    return acc + float(_OUT.sum())


# (parts of one probe call, calls after each timed unit: about 2-7% of a
# pass, reference seconds per call)
PROBES = {
    "large-space": ((interpreter, interpreter, arrays), 15, 0.0080),
    "small-battery": ((interpreter,), 2, 0.0018),
    "cli-brownian": ((interpreter, interpreter, arrays), 20, 0.0075),
    "setup": ((interpreter,), 20, 0.0015),
}
REF_S = {name: ref for name, (_, _, ref) in PROBES.items()}


def seconds_per_call(name):
    """Mean seconds of one probe call for a workload (or ``setup``), over
    its call count."""
    parts, reps, _ = PROBES[name]
    t0 = time.perf_counter()
    for _ in range(reps):
        for part in parts:
            part()
    return (time.perf_counter() - t0) / reps


def factor(name, samples):
    """Scale from measured to reference-speed seconds, given the probe's
    seconds per call in the units being scaled."""
    return REF_S[name] / (sum(samples) / len(samples))
