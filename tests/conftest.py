import pytest

from zqhash import analysis


@pytest.fixture(autouse=True)
def cold_tables():
    # Every test starts with no table kept, so its tracemalloc peaks and
    # call counts measure a cold build, whatever tests ran before it.
    analysis._kept_tables.clear()
