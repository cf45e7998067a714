import os

import pytest
from hypothesis import settings

import mulfix as mx

# HYPOTHESIS_PROFILE=ci draws the same examples on every run, so a property
# gives the same verdict each time CI runs it.
settings.register_profile("ci", derandomize=True)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def report_3_15():
    return mx.run_fixture("example_3_15")


@pytest.fixture(scope="session")
def report_3_16():
    return mx.run_fixture("example_3_16")


@pytest.fixture(scope="session")
def report_3_17():
    return mx.run_fixture("example_3_17")


@pytest.fixture(scope="session")
def remark_report():
    return mx.run_fixture("remark_2_5")
