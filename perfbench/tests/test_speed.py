"""The calibration bursts and the scaling to the reference speed."""

import pytest

from afem_lab import driver
from afem_lab.problems import by_name

from speed import REFERENCE_BURST_S, Metronome, scaled_time


def test_scaled_time_scales_each_stretch_by_its_two_bursts():
    # bursts of 1, 1 and 2 s around stretches of 2 and 6 s
    marks = [(0.0, 1.0), (3.0, 4.0), (10.0, 12.0)]
    wall, scaled = scaled_time(marks)
    assert wall == pytest.approx(8.0)
    assert scaled == pytest.approx((2.0 / 1.0 + 6.0 / 1.5) * REFERENCE_BURST_S)


def test_scaled_time_is_wall_time_at_the_reference_speed():
    ref = REFERENCE_BURST_S
    marks = [(0.0, ref), (1.0, 1.0 + ref), (3.0, 3.0 + ref)]
    assert scaled_time(marks) == pytest.approx((3.0 - 2 * ref, 3.0 - 2 * ref))


def test_metronome_ticks_after_each_refinement_and_restores_refine():
    original = driver.refine
    _, mesh = by_name("kellogg")
    metronome = Metronome()
    with metronome.installed():
        refined = driver.refine(mesh, [0])
        driver.refine(refined, [0, 1])
    assert driver.refine is original
    assert len(metronome.marks) == 2
    assert all(start < end for start, end in metronome.marks)
