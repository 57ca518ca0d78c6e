import time

import hostspeed
import worker
from workloads import EmbedWorkload


def test_scale_maps_wall_time_to_reference_time():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.scale(ref, ref) == 1.0
    assert hostspeed.scale(2 * ref, 2 * ref) == 0.5  # a host at half speed
    assert hostspeed.scale(ref, 3 * ref) == 0.5  # the mean of the two rounds


def test_calibration_work_is_fixed():
    assert hostspeed.work() == hostspeed.work() == (8, 24, 385)
    assert hostspeed.measure() > 0


def test_clock_scales_each_piece_by_the_rounds_around_it(monkeypatch):
    ref = hostspeed.REFERENCE_S
    rounds = iter([ref, 3 * ref, ref])
    monkeypatch.setattr(hostspeed, "measure", lambda: next(rounds))
    clock = hostspeed.ReferenceClock(interval=60.0)
    now = iter([10.0, 11.0, 11.5, 12.5])
    monkeypatch.setattr(time, "perf_counter", lambda: next(now))
    clock.start()  # piece 1 from 10.0
    clock._on_prof(None, None)  # piece 1 ends at 11.0; the round takes until 11.5
    assert clock.stop() == 1.0 * 0.5 + 1.0 * 0.5  # piece 2 ends at 12.5
    assert clock.stop() == 1.0  # a second stop changes nothing


def test_a_pending_signal_after_stop_does_nothing(monkeypatch):
    clock = hostspeed.ReferenceClock(interval=60.0)
    clock.start()
    elapsed = clock.stop()
    monkeypatch.setattr(hostspeed, "measure", lambda: 1 / 0)
    clock._on_prof(None, None)
    assert clock.stop() == elapsed


def test_long_items_are_calibrated_inside(monkeypatch):
    rounds = []
    measure = hostspeed.measure
    monkeypatch.setattr(hostspeed, "measure", lambda: rounds.append(1) or measure())
    wl = EmbedWorkload(1)
    wl.items = [it for it in wl.items if it.key == "J1"]  # about 0.5 s
    out = worker.timed_phase(wl, worker.load_expected("embed"), 0, 60, passes=1)
    assert out["failed"] == 0
    assert len(rounds) > 5
