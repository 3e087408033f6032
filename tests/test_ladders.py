from hpbec.ladders import is_nonincreasing


def test_decreasing_and_trivial_ladders_pass():
    assert is_nonincreasing([3.0, 2.0, 1.0])
    assert is_nonincreasing((5e-3,))
    assert is_nonincreasing([])


def test_roundoff_slack_at_the_floor():
    assert is_nonincreasing([1.0, 1.0 + 5e-13])
    assert is_nonincreasing([1e-16, 9e-16])
    assert not is_nonincreasing([1.0, 1.0 + 1e-11])
    assert not is_nonincreasing([1e-16, 2e-15])


def test_growth_anywhere_fails():
    assert not is_nonincreasing([3.9e-5, 4.5e-5, 1.5e-5])
    assert not is_nonincreasing([1.0, 0.5, 0.6])
