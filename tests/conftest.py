"""Shared pytest configuration: the --run-slow gate for long ensemble tests.

OpenBLAS is held to one thread unless the caller set OPENBLAS_NUM_THREADS.
Its worker threads spin while they wait, so on a machine shared with another
CPU-bound job the small batched determinants of `det_root_count` ran up to 80x
slower.  The cap is set here, before anything imports numpy.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest  # noqa: E402


def pytest_addoption(parser):
    parser.addoption(
        "--run-slow",
        action="store_true",
        default=False,
        help="run tests marked slow (multi-minute ensemble comparisons)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-slow"):
        return
    skip = pytest.mark.skip(reason="needs --run-slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
