"""Everything a workload feeds the program, generated from ``--seed``.

The program only ever sees these generated inputs: the arrival schedule,
the ``part``/``qty`` values of each submission, and the Table-3 workload
seed of the simulator runs (which is ``--seed`` itself).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: ``part`` is the key of the ``part_fifo`` ordering spec: instances that
#: share a part are chained, so seven keys keep coordination light.
PART_KEYS = 7
#: One order in five is large (``qty > 10``) and takes the Expedite branch.
LARGE_ORDER_SHARE = 0.2


def order(rng: random.Random, part: str) -> dict[str, object]:
    large = rng.random() < LARGE_ORDER_SHARE
    return {"part": part, "qty": rng.randint(11, 40) if large else rng.randint(1, 10)}


@dataclass
class OpenLoopPlan:
    """A Poisson arrival schedule conditioned on its instance count.

    ``due`` are offsets in seconds from the start of the window.  Given
    that a Poisson process has exactly ``n`` arrivals in ``[0, n / rate)``
    the arrival times are ``n`` sorted uniform draws, so the offered load
    is the same in every run while the gaps stay exponential.
    """

    due: list[float]
    inputs: list[dict[str, object]]


def open_loop_plan(seed: int, instances: int, rate: float) -> OpenLoopPlan:
    rng = random.Random(f"serve-open:{seed}")
    span = instances / rate
    due = sorted(rng.random() * span for __ in range(instances))
    inputs = [order(rng, f"part-{rng.randrange(PART_KEYS)}")
              for __ in range(instances)]
    return OpenLoopPlan(due, inputs)


def batch_inputs(seed: int, segment: str, client: int,
                 batches: int) -> list[dict[str, object]]:
    """Inputs of one closed-loop client: one order per batch.  A batch
    shares its part, so ``part_fifo`` chains all of its instances."""
    rng = random.Random(f"serve-batch:{seed}:{segment}:{client}")
    return [order(rng, f"{segment}-c{client}-b{index}-{rng.randrange(10**6)}")
            for index in range(batches)]


def crash_inputs(seed: int, cycle: int, groups: int) -> list[dict[str, object]]:
    rng = random.Random(f"crash:{seed}:{cycle}")
    return [order(rng, f"crash-{cycle}-{index}") for index in range(groups)]
