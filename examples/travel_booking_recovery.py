"""OCR demo: failure handling without throwing away work.

The travel-booking itinerary books a flight, hotel and car, then invoices.
The invoice step fails on its first attempt, rolling the workflow back to
BookFlight.  Under the paper's opportunistic compensation and re-execution
(OCR) strategy, the bookings whose inputs did not change are *reused* —
nothing is cancelled, nothing re-booked — and the invoice simply retries.

For contrast, the Saga-style baseline (AlwaysReexecute on every step)
cancels and re-books everything, paying full compensation and execution
cost for the identical outcome.

Run:  python examples/travel_booking_recovery.py
"""

from repro import AlwaysReexecute, DistributedControlSystem, SystemConfig
from repro.workloads import travel_booking


def run(saga_baseline):
    system = DistributedControlSystem(SystemConfig(seed=4), num_agents=5,
                                      agents_per_step=1)
    scenario = travel_booking()
    if saga_baseline:
        for schema in scenario.schemas:
            for step in schema.cr_policies:
                schema.cr_policies[step] = AlwaysReexecute()
    scenario.install(system)
    instance = system.start_workflow(
        "TravelBooking", {"traveller": "M. Kamath", "dates": "1998-07"}
    )
    system.run()
    outcome = system.outcome(instance)
    reuses = system.trace.count("step.reuse")
    compensations = system.trace.count("step.compensate")
    work = system.metrics.total_work()
    return outcome, reuses, compensations, work, system


def main():
    print("=== OCR (the paper's strategy) ===")
    outcome, reuses, compensations, work, system = run(saga_baseline=False)
    print(system.trace.render())
    print(f"\noutcome: {outcome.status.value}, invoice={outcome.outputs['invoice']}")
    print(f"reused bookings: {reuses}, compensations: {compensations}, "
          f"total work: {work:.0f} cost units")

    print("\n=== Saga baseline (compensate everything) ===")
    outcome_s, reuses_s, compensations_s, work_s, __ = run(saga_baseline=True)
    print(f"outcome: {outcome_s.status.value}, invoice={outcome_s.outputs['invoice']}")
    print(f"reused bookings: {reuses_s}, compensations: {compensations_s}, "
          f"total work: {work_s:.0f} cost units")

    saving = 100 * (1 - work / work_s)
    print(f"\nSame outcome, {saving:.0f}% less work under OCR — the paper's "
          "'considerable savings' for steps like moving inventory or, here, "
          "booking travel.")
    assert outcome.committed and outcome_s.committed
    assert work < work_s


if __name__ == "__main__":
    main()
