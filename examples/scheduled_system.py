#!/usr/bin/env python3
"""Static scheduling instead of backpressure (Section II's alternative).

Casu and Macchiarulo avoid queue sizing by scheduling every core's
firings statically and removing the backpressure wires -- possible for
closed systems whose global behaviour is periodic.  This example:

1. extracts the periodic steady state of the Fig. 15 LIS from its
   marked-graph execution (transient + hyperperiod);
2. shows the schedule's firing rate equals the analytically computed
   MST, and that the schedule replays the simulator exactly;
3. derives simulation-driven queue sizes from the *ideal* schedule's
   peak occupancies and contrasts their cost with targeted queue
   sizing -- the reason the paper prefers the token-deficit approach;
4. shows why scheduling needs a closed system: the mismatched-rate
   uplink/downlink composition has no periodic schedule.

Run:  python examples/scheduled_system.py
"""

from repro import TraceSimulator, actual_mst, ideal_mst, size_queues
from repro.core import schedule_lis, simulation_driven_sizing
from repro.core.scheduling import ScheduleError
from repro.gen import fig15_lis, uplink_downlink_lis


def main() -> None:
    lis = fig15_lis()
    print("== Fig. 15 under static scheduling ==")
    schedule = schedule_lis(lis, practical=True)
    print(f"transient: {schedule.transient} cycles, "
          f"hyperperiod: {schedule.hyperperiod} cycles")
    print(f"scheduled rate of A: {schedule.throughput('A')}")
    print(f"analytic MST:        {actual_mst(lis).mst}")

    plan = schedule.firing_plan("A", 24)
    sim = TraceSimulator(lis)
    sim.run(24)
    print(f"schedule == simulator, first 24 cycles: {plan == sim.trace.fired['A']}")
    pattern = "".join("F" if fired else "." for fired in plan)
    print(f"A's firing pattern: {pattern}")

    print("\n== buffering: scheduled/ideal vs targeted queue sizing ==")
    sizes = simulation_driven_sizing(lis)
    extra = sum(q - lis.queue(cid) for cid, q in sizes.items())
    named = {
        (lis.channel(c).src, lis.channel(c).dst): q
        for c, q in sizes.items()
        if q > 1
    }
    print(f"ideal-schedule peak occupancies need {extra} extra slots: {named}")
    exact = size_queues(lis, method="exact")
    print(f"targeted exact queue sizing needs {exact.cost} "
          f"(both restore MST {ideal_mst(lis).mst})")

    print("\n== scheduling needs a closed, rate-matched system ==")
    try:
        schedule_lis(uplink_downlink_lis(), practical=False, max_steps=300)
    except ScheduleError as exc:
        print(f"uplink(3/4) -> downlink(2/3) without backpressure: {exc}")
    practical = schedule_lis(uplink_downlink_lis(), practical=True)
    print(
        "with backpressure the composition settles at rate "
        f"{practical.throughput('u0')} (the slower SCC's 2/3)"
    )


if __name__ == "__main__":
    main()
