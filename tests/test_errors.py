import pytest

from stiefelmean.errors import (
    DomainError,
    FileFormatError,
    RankDeficientError,
    StiefelMeanError,
    ValidationError,
)


@pytest.mark.parametrize("iteration, sample_index, text", [
    (None, None, "m"),
    (2, None, "m (iteration 2)"),
    (None, 3, "m (sample 3)"),
    (2, 3, "m (iteration 2, sample 3)"),
    (0, 0, "m (iteration 0, sample 0)"),
])
def test_str_names_each_location_field_that_is_set(iteration, sample_index, text):
    err = DomainError("m", iteration=iteration, sample_index=sample_index)
    assert (err.iteration, err.sample_index) == (iteration, sample_index)
    assert str(err) == text
    # the message itself names no location
    assert err.args == ("m",)


def test_every_error_carries_the_location_fields():
    for err in (StiefelMeanError("m"), DomainError("m"), ValidationError("m", defect=1.0),
                RankDeficientError("m", 2), FileFormatError("m", line=4, column=1)):
        assert isinstance(err, StiefelMeanError)
        assert (err.iteration, err.sample_index) == (None, None)
    err = ValidationError("m", defect=1.0, sample_index=7)
    assert (str(err), err.defect, err.sample_index) == ("m (sample 7)", 1.0, 7)
    assert str(RankDeficientError("m", 2)) == "m"
    # a file error keeps its line and column as a prefix of the message
    assert str(FileFormatError("bad", line=4, column=1)) == "line 4, column 1: bad"
