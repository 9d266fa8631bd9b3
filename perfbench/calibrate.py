"""Host-speed calibration of the benchmark's times.

The host this benchmark was built on gives its guest processors whose speed
drifts by up to 2x, over seconds and over minutes; CPU time follows wall
time, so the drift is in the processor, not in scheduling.  A run that
lands in a slow phase reads slower than the same code in a fast phase.

To take that out, the benchmark runs a fixed pure-Python reference after
every request, in the same process, and times it.  The reference imports
nothing from trisym, so no change to the program moves it.  A measured time
scaled by ``NOMINAL_MS`` over the reference time taken next to it reads as
the time on a host where the reference takes ``NOMINAL_MS``.  The reference
mixes the kinds of interpreter work the program does: a dict-and-hash loop,
method calls with tuple-key lookups and frozen-dataclass comparisons, and
``Fraction`` arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

NOMINAL_MS = 80.0  # the reference's time on a host of nominal speed


@dataclass(frozen=True)
class _Cell:
    a: str
    b: str
    c: str

    def key(self) -> tuple[str, str, str]:
        return (self.a, self.b, self.c)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Cell) and self.key() == other.key()


class _Table:
    def __init__(self, n: int):
        self.n = n
        self.cells = {(i, j, k): _Cell("ABC"[i % 3], "ABC"[j % 3], "ABC"[(i + j + k) % 3])
                      for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n)}

    def value(self, i: int, j: int, k: int) -> _Cell:
        return self.cells[tuple(sorted((i, j, k)))]


_TABLE = _Table(16)


def _hash_loop(n: int) -> int:
    table: dict[int, int] = {}
    acc = 0
    for i in range(n):
        k = (i * 7919) % 1021
        table[k] = table.get(k, 0) + i
        acc ^= hash((k, i & 15))
    return acc


def _lookups(t: _Table) -> int:
    n = t.n
    same = 0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if len({i, j, k}) == 3 and t.value(i, j, k) == t.value(j, k, i):
                    same += 1
    return same


def _fractions(n: int) -> Fraction:
    total = Fraction(0)
    for i in range(1, n):
        total += Fraction(i % 7, i % 5 + 1) - Fraction(1, 3)
    return total


def reference() -> None:
    """The fixed reference work, about 80 ms at nominal speed: long enough
    to average over the host's second-to-second changes of speed."""
    for _ in range(3):
        _hash_loop(20000)
        _lookups(_TABLE)
        _fractions(1000)


def timed_reference() -> float:
    """Seconds one run of the reference takes now."""
    start = perf_counter()
    reference()
    return perf_counter() - start


def scale(reference_seconds: float) -> float:
    """The factor that turns a time measured beside a reference run of
    ``reference_seconds`` into a calibrated one."""
    return NOMINAL_MS / (1e3 * reference_seconds)
