"""The vectorized synchronous-step kernel.

The marking is an (S, B) token matrix in the padded per-node slot
layout of :mod:`repro.sim.compile` (S = N * D slots, node ``v``'s
input places in slots ``v*D ...``, padding slots holding one token),
with the B configurations on the contiguous last axis.  One step, for
all of them at once:

1. enabled: every slot of node ``v``'s block holds a token -- one
   plain ``minimum.reduce`` over the middle axis of the (N, D, B)
   view.  A node without input places sees only padding, so it is
   always enabled.
2. fire: every enabled transition consumes one token from each input
   place and produces one on each output place, simultaneously.  A
   padding slot is a self-loop of its node, so a firing takes its
   token and gives it back in the same step.

This is exactly :meth:`repro.core.marked_graph.MarkedGraph.step`
evaluated batch-wise, which is why the kernel is cycle-exact against
the reference simulators.  Optional running outputs: firing counts
over a measurement window, the running max of the shell-queue places
(peak occupancy), and the full boolean firing history (for replaying
data values).  :func:`repro.schedule.derive_schedule` walks the same
:class:`SlotStep` for one configuration.
"""

from __future__ import annotations

import time

import numpy as np

from .compile import CompiledSystem

__all__ = ["SlotStep", "step_batch"]

#: Steps between two explicit GIL hand-offs (see :meth:`SlotStep.fire`).
_YIELD_EVERY = 256


class SlotStep:
    """One synchronous step of the slot marking ``tokens`` (shape
    (S, B), mutated in place), with the scratch arrays every step
    reuses.  ``tokens`` must be C-contiguous."""

    def __init__(self, compiled: CompiledSystem, tokens: np.ndarray) -> None:
        slots, batch = tokens.shape
        self.tokens = tokens
        self._by_node = tokens.reshape(
            compiled.n_nodes, compiled.slot_width, batch
        )
        self._mins = np.empty((compiled.n_nodes, batch), dtype=tokens.dtype)
        # Row s of ``_moved`` is 1 where slot s's consumer fires, row
        # S + s where its producer does.
        self._ends = np.concatenate((compiled.slot_dst, compiled.slot_src))
        self._moved = np.empty((2 * slots, batch), dtype=np.int8)
        self._taken = self._moved[:slots]
        self._given = self._moved[slots:]
        self._until_yield = _YIELD_EVERY

    def enabled(self, out: np.ndarray) -> np.ndarray:
        """Write into the bool (N, B) ``out`` which nodes have a token
        in every input slot, and return it."""
        np.minimum.reduce(self._by_node, axis=1, out=self._mins)
        return np.greater_equal(self._mins, 1, out=out)

    def fire(self, live: np.ndarray) -> None:
        """Fire the nodes flagged in the C-contiguous bool (N, B)
        ``live``."""
        np.take(
            live.view(np.int8), self._ends, axis=0, out=self._moved,
            mode="clip",
        )
        # Take before giving: within the step a slot then dips to at
        # most -1 and never rises above its final count, so the
        # marking's dtype (CompiledSystem.slot_marking) holds it.
        np.subtract(self.tokens, self._taken, out=self.tokens)
        np.add(self.tokens, self._given, out=self.tokens)
        self._until_yield -= 1
        if not self._until_yield:
            # On small batches ``np.take`` is the only call that drops
            # the GIL, for about a microsecond each step.  A thread
            # waiting for the GIL (a server's event loop) rarely wins
            # those windows, and each one restarts its switch-interval
            # timer, so it could starve for the whole run.  A sleep
            # hands the GIL over for long enough.
            self._until_yield = _YIELD_EVERY
            time.sleep(0)


def step_batch(
    compiled: CompiledSystem,
    tokens: np.ndarray,
    clocks: int,
    *,
    counts: np.ndarray | None = None,
    count_from: int = 0,
    occupancy: np.ndarray | None = None,
    history: np.ndarray | None = None,
    stall_mask: np.ndarray | None = None,
) -> None:
    """Advance the slot marking ``tokens`` (shape (S, B), from
    :meth:`CompiledSystem.slot_marking`, mutated in place) by
    ``clocks`` synchronous steps.

    Args:
        counts: (N, B) firing-count accumulator, incremented for steps
            ``>= count_from`` (the post-warmup measurement window).
        occupancy: (K, B) running max over the ``occ_slots`` slots;
            callers seed it with the initial marking of those slots.
        history: (T, N, B) boolean firing record.
        stall_mask: (T, N) or (T, N, B) boolean fault schedule (see
            :mod:`repro.faults` / :mod:`repro.stochastic`): a True
            entry clock-gates that node on that step even when its
            marking enables it.  The (T, N) form applies one schedule
            to every configuration; the (T, N, B) form gives each
            configuration its own schedule (Monte-Carlo trials as the
            batch axis).
    """
    step = SlotStep(compiled, tokens)
    batch = tokens.shape[1]
    live = np.empty((compiled.n_nodes, batch), dtype=bool)
    enabled = np.empty_like(live)
    if stall_mask is not None and stall_mask.ndim == 2:
        stall_mask = stall_mask[:, :, None]
    occ_slots = compiled.occ_slots
    if occupancy is None or not occ_slots.size:
        occ_slots = None
    else:
        peek = np.empty((occ_slots.size, batch), dtype=tokens.dtype)
    for t in range(clocks):
        if history is not None:
            live = history[t]
        if stall_mask is None:
            step.enabled(live)
        else:
            # On bools, a > b is a and not b.
            np.greater(step.enabled(enabled), stall_mask[t], out=live)
        step.fire(live)
        if occ_slots is not None:
            np.take(tokens, occ_slots, axis=0, out=peek, mode="clip")
            np.maximum(occupancy, peek, out=occupancy)
        if counts is not None and t >= count_from:
            np.add(counts, live, out=counts)
