import itertools

import pytest

import aldcontrol.harness as harness


@pytest.fixture(autouse=True)
def no_kept_noise_row():
    """Every test starts with no noise row kept, so a test that counts draws passes in any order."""
    harness._noise_row.cache_clear()


@pytest.fixture
def draws_limited(monkeypatch):
    """The noise draw fails past the 1,000th value of a seed's stream, so a step count too large for memory
    that reaches the draws fails the test at once instead of drawing until memory runs out."""
    bind = harness._sampler

    def limited(*args):
        draw, drawn = bind(*args), itertools.count(1)

        def spy():
            if next(drawn) > 1000:
                raise AssertionError("drew a 1,001st noise value")
            return draw()

        return spy

    monkeypatch.setattr(harness, "_sampler", limited)
