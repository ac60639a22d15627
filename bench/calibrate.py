"""Host speed, measured by a fixed piece of pure-Python work.

On a shared host the CPU speed one process gets changes by up to 2x for
minutes at a time, and process CPU time moves with wall time, so the
change cannot be told apart from the program's own cost by any clock.  The
benchmark therefore times a calibration *slice* between ops: fixed work
that uses no soritica code, mixing the interpreter paths soritica leans on
(integer arithmetic, ``Fraction`` arithmetic over a recursive tuple tree,
and string-keyed dicts).  Each op's latency is scaled by ``REF_SLICE_S``
over the slice time measured beside it, which gives the latency at the
reference speed; ``run.py`` scales set-up by the run's median speed.  A
change to soritica moves the figures; a change in host speed moves the
slices as well and cancels out.

Interleaved with the four workloads on a 2-vCPU KVM guest, the mix cut the
round-to-round spread of round time (standard deviation over median) from
0.13-0.14 to 0.035-0.042 over 8 minutes.
"""

import time
from fractions import Fraction

#: Time of one slice at the reference speed: about its median on the
#: 2-vCPU Xeon KVM guest the reference figures in README.md were measured
#: on.  It fixes the scale of every time figure, so it never changes.
REF_SLICE_S = 1.25e-3

#: Op time between two slices.  A slower op is followed by one slice.
EVERY_S = 0.01


def _tree(n):
    return (n,) if n < 2 else (_tree(n - 1), _tree(n - 2), Fraction(n, 3))


def _value(t):
    if len(t) == 1:
        return Fraction(t[0] % 3, 2)
    a, b = _value(t[0]), _value(t[1])
    return min(a + b * t[2], Fraction(5)) - Fraction(1, 4)


def work():
    """The fixed work of one slice."""
    total = 0
    for i in range(3000):
        total += i * i % 7
    counts = {}
    for i in range(300):
        key = f"k{i % 37}"
        counts[key] = counts.get(key, 0) + i
    return total, _value(_tree(9)), sorted(counts.items())


def timed_slice():
    """Seconds one slice takes now."""
    start = time.perf_counter()
    work()
    return time.perf_counter() - start
