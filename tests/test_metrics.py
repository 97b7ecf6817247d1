import pytest

from tcsnn.metrics import AtelInputs, atel


def inputs(accuracy, lut=100, ff=50, runtime=10.0, energy=20.0):
    return AtelInputs(lut_count=lut, ff_count=ff, runtime=runtime, energy=energy, accuracy=accuracy)


def test_identical_design_scores_100():
    assert atel(inputs(80.0), inputs(80.0)) == pytest.approx(100.0)


def test_perfect_accuracy_accepted():
    assert inputs(100.0).loss == 0.0


def test_design_without_loss_scores_zero():
    assert atel(inputs(100.0, runtime=5.0), inputs(90.0)) == 0.0


def test_perfect_baseline_rejected():
    with pytest.raises(ValueError, match="undefined"):
        atel(inputs(90.0), inputs(100.0))


def test_accuracy_out_of_range_rejected():
    with pytest.raises(ValueError):
        inputs(100.5)
    with pytest.raises(ValueError):
        inputs(-1.0)
