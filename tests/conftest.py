"""Every warning raised while a test under tests/ runs fails that test: an
unclosed file, a deprecation or a hypothesis health-check warning is an
error.

The filter is a mark on each test collected here, not a pyproject.toml
setting, which would reach the benchmark's self-test as well: the copy
loop of ``perfbench/test_perfbench.py`` leaves files for the garbage
collector to close.

One deprecation is let through: hypothesis' report hook touches the
deprecated ``mypy_extensions.TypedDict`` while a failing ``@given`` test is
reported, and as an error there it aborts the session (``INTERNALERROR``)
before the falsifying example is shown.
"""

from pathlib import Path

import pytest

HERE = Path(__file__).parent


def pytest_collection_modifyitems(items):
    for item in items:
        if HERE in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"))
            item.add_marker(pytest.mark.filterwarnings(
                "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"))
