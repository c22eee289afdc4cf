"""Fixtures for every test, in ``tests/`` and in ``perfbench/``.

``constructions`` keeps one body per argument tuple of ``interval``,
``segment``, ``pentagon`` and ``simplex``, and ``cli._body`` one per
family member, for the life of the process and with what each body keeps
(hull, counts, fits, faces). A test that counts hulls, walks or what a
body keeps needs bodies that no earlier test has used.
"""

import pytest

from ehrhart import cli, constructions

SHARED_BUILDERS = (
    constructions.interval,
    constructions.segment,
    constructions.pentagon,
    constructions.simplex,
)


@pytest.fixture(autouse=True)
def fresh_factors():
    """Every test starts with no builder body kept, as a fresh process does."""
    for build in SHARED_BUILDERS:
        build.cache_clear()


@pytest.fixture
def fresh_bodies():
    """No family member kept either, before the test and after it: for
    tests that pin what a whole ``verify`` run does from fresh bodies."""
    cli._body.cache_clear()
    yield
    cli._body.cache_clear()
