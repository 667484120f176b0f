"""Tests for the canonical paper scenarios."""

import pytest

from repro.storage.tables import InstanceStatus
from repro.workloads import figure3_workflow, order_processing, travel_booking
from tests.conftest import ALL_ARCHITECTURES, make_system


@pytest.mark.parametrize("architecture", ALL_ARCHITECTURES)
def test_order_processing_fifo_per_part(architecture):
    system = make_system(architecture, seed=21)
    order_processing().install(system)
    i1 = system.start_workflow("OrderProcessing", {"part": "gasket", "qty": 1})
    i2 = system.start_workflow("OrderProcessing", {"part": "gasket", "qty": 2},
                               delay=0.4)
    i3 = system.start_workflow("OrderProcessing", {"part": "blower", "qty": 1},
                               delay=0.1)
    system.run()
    for instance in (i1, i2, i3):
        assert system.outcome(instance).committed
    times = {
        (r.detail["instance"], r.detail["step"]): r.time
        for r in system.trace.filter(kind="step.done")
    }
    assert times[(i1, "Schedule")] < times[(i2, "Schedule")]


def test_order_processing_stock_accounting():
    system = make_system("centralized", seed=22)
    scenario = order_processing({"gasket": 3})
    scenario.install(system)
    i1 = system.start_workflow("OrderProcessing", {"part": "gasket", "qty": 2})
    system.run()
    assert system.outcome(i1).committed
    # A second order exceeding remaining stock fails (Saga abort by default).
    i2 = system.start_workflow("OrderProcessing", {"part": "gasket", "qty": 2})
    system.run()
    assert system.outcome(i2).status is InstanceStatus.ABORTED


@pytest.mark.parametrize("architecture", ALL_ARCHITECTURES)
def test_figure3_branch_flip_with_compensation(architecture):
    system = make_system(architecture, seed=23)
    figure3_workflow().install(system)
    instance = system.start_workflow("Figure3", {"load": 5})
    system.run()
    assert system.outcome(instance).committed
    done = [r.detail["step"] for r in system.trace.filter(kind="step.done")]
    assert "S3" in done  # first pass took the top branch
    assert "S5" in done  # re-execution took the bottom branch
    compensated = {r.detail["step"] for r in system.trace.filter(kind="step.compensate")}
    assert "S3" in compensated  # abandoned branch undone


@pytest.mark.parametrize("architecture", ALL_ARCHITECTURES)
def test_travel_booking_reuses_bookings_on_invoice_failure(architecture):
    system = make_system(architecture, seed=24)
    travel_booking().install(system)
    instance = system.start_workflow(
        "TravelBooking", {"traveller": "mk", "dates": "jan"}
    )
    system.run()
    outcome = system.outcome(instance)
    assert outcome.committed
    assert outcome.outputs["invoice"] == 1240.0
    reused = {r.detail["step"] for r in system.trace.filter(kind="step.reuse")}
    assert {"BookFlight", "BookHotel"} <= reused
    assert system.trace.count("step.compensate") == 0  # pure reuse — the OCR saving


def test_travel_booking_abort_compensates_bookings():
    system = make_system("distributed", seed=25)
    travel_booking(invoice_fails_on=frozenset()).install(system)
    instance = system.start_workflow(
        "TravelBooking", {"traveller": "mk", "dates": "jan"}
    )
    system.abort_workflow(instance, delay=1.4)
    system.run()
    assert system.outcome(instance).status is InstanceStatus.ABORTED
