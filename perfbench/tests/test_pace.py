"""Reference probe: timing without probes, scaling, and clean-up."""

import signal
import time

import pytest

import pace


def meter_with(at, ms):
    meter = pace.Pace()
    meter.at, meter.ms = list(at), list(ms)
    return meter


def test_scale_is_reference_times_mean_probe_speed_in_the_margin():
    assert pace.MARGIN_S == 0.05 and pace.NEAREST == 4
    meter = meter_with([0.9] + [1.0 + 0.01 * k for k in range(5)] + [1.2],
                       [9.0, 0.5, 1.0, 0.25, 0.5, 1.0, 9.0])
    # [1.01, 1.02] widened by the margin holds the five probes at 1.00 .. 1.04.
    assert meter.scale(1.01, 1.02) == pytest.approx(
        pace.REFERENCE_MS * (2 + 1 + 4 + 2 + 1) / 5)


def test_scale_falls_back_to_the_nearest_probes():
    meter = meter_with([0.0, 1.0, 1.02, 1.04, 1.5, 3.0],
                       [9.0, 0.5, 1.0, 0.25, 9.0, 9.0])
    # Only three probes lie within the margin of [1.01, 1.03], fewer than
    # NEAREST, so the four around the midpoint 1.02 are used: 0.0 .. 1.04.
    assert meter.scale(1.01, 1.03) == pytest.approx(
        pace.REFERENCE_MS * (1 / 9 + 2 + 1 + 4) / 4)


def test_a_time_at_the_reference_speed_is_unscaled():
    meter = meter_with([0.1 * k for k in range(10)], [pace.REFERENCE_MS] * 10)
    assert meter.scale(0.2, 0.7) == pytest.approx(1.0)


def test_scale_needs_probes():
    with pytest.raises(ValueError):
        pace.Pace().scale(0.0, 1.0)


def test_run_excludes_probes_that_interrupt_the_call():
    meter = pace.Pace(work=lambda: time.sleep(0.05))

    def call():
        meter._probe()
        return "done"

    out, error, start, seconds = meter.run(call)
    assert (out, error) == ("done", None)
    assert 0.0 <= seconds < 0.02
    assert len(meter.ms) == 1 and meter.spans[0][1] - meter.spans[0][0] >= 0.05


def test_run_keeps_the_time_of_a_probe_that_began_before_the_call():
    meter = pace.Pace()
    # As if the timer fired between the bookkeeping and the call's start.
    early = time.perf_counter()
    _, _, start, seconds = meter.run(lambda: (meter.spans.append((early, early + 0.5)),
                                              time.sleep(0.01)))
    assert early < start and seconds >= 0.01


def test_run_returns_the_exception_of_a_failed_call():
    out, error, _, _ = pace.Pace().run(lambda: 1 / 0)
    assert out is None and isinstance(error, ZeroDivisionError)


def test_probes_run_on_the_timer_and_stop_on_exit():
    before = signal.getsignal(signal.SIGALRM)
    with pace.Pace(period_s=0.005) as meter:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    # One probe on entry, one on exit, and timer probes between.
    assert len(meter.ms) > 5
    assert meter.at == sorted(meter.at)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_probe_is_deterministic():
    assert pace.probe() == pace.probe()
