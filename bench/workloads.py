"""The benchmark's workloads: seeded CLI argv streams for ``pfcircuit.cli.main``.

The seed only generates inputs.  Each stream is endless.  A repeating
workload runs the stream's first input in every op, so a run's fastest op can
be taken as its cost; otherwise op ``i`` takes item ``i``.  Op 0 is the
untimed warm-up op.  See README.md for why each workload exists.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator


def _box_point(rng: random.Random) -> list[str]:
    """(mu, gamma) in the box where every point passes verify at the parent commit."""
    return ["--mu", repr(rng.uniform(0.45, 0.55)), "--gamma", repr(rng.uniform(2.9, 3.6))]


def _simulate(rng: random.Random) -> Iterator[list[str]]:
    while True:
        yield ["simulate", *_box_point(rng), "--samples", "5001", "--format", "csv",
               "--i1", "1"]


def _verify(rng: random.Random) -> Iterator[list[str]]:
    while True:
        yield ["verify", *_box_point(rng)]


def _regime(rng: random.Random) -> Iterator[list[str]]:
    from pfcircuit.params import derive, normalized, validate

    while True:
        mu = rng.uniform(-0.98, 0.98)
        gamma = math.exp(rng.uniform(math.log(1.2), math.log(200.0)))
        # keep exactly the points validate accepts; no other filtering
        if validate(derive(normalized(mu, gamma))).accepted:
            yield ["verify", "--mu", repr(mu), "--gamma", repr(gamma)]


def _sweep(rng: random.Random) -> Iterator[list[str]]:
    while True:
        mu_lo, mu_hi = 0.05 + rng.uniform(-0.005, 0.005), 0.95 + rng.uniform(-0.005, 0.005)
        ga_lo, ga_hi = 1.0 + rng.uniform(-0.05, 0.05), 20.0 + rng.uniform(-0.2, 0.2)
        yield ["sweep", "--mu-range", f"{mu_lo!r}:{mu_hi!r}:100",
               "--gamma-range", f"{ga_lo!r}:{ga_hi!r}:100"]


@dataclass(frozen=True)
class Workload:
    kind: str
    """Which gate checks the op's outputs: simulate, verify or sweep."""
    stream: Callable[[random.Random], Iterator[list[str]]]
    min_ops: int
    """Measured ops every run makes; exact counts are taken over these."""
    repeat: bool = False
    """Every op runs the same seeded input; otherwise each op takes the next one."""
    failures_expected: bool = False
    """Ops may fail by design; such a run still has to be right about its passes."""

    def inputs(self, name: str, seed: int, output_dir: str) -> Iterator[list[str]]:
        stream = self.stream(random.Random(f"{name}/{seed}"))
        if self.repeat:
            stream = itertools.repeat(next(stream))
        for argv in stream:
            yield [*argv, "--output", output_dir]


WORKLOADS = {
    "simulate-5k": Workload("simulate", _simulate, min_ops=20, repeat=True),
    "verify-ref": Workload("verify", _verify, min_ops=20, repeat=True),
    "sweep-100x100": Workload("sweep", _sweep, min_ops=10, repeat=True),
    "regime-scan": Workload("verify", _regime, min_ops=40, failures_expected=True),
}
