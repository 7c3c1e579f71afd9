"""Shared test setup: any warning a test raises fails it.

The filter is set after pytest's own, so it also overrides ``filterwarnings``
marks; a test that means to compute, say, ``inf * 0`` says so with
``np.errstate`` instead.
"""

import warnings

import pytest


@pytest.fixture(autouse=True)
def warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield
