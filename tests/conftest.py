import pytest

import aldcontrol.harness as harness


@pytest.fixture(autouse=True)
def no_kept_noise_row():
    """Every test starts with no noise row kept, so a test that counts draws passes in any order."""
    harness._noise_row.cache_clear()
