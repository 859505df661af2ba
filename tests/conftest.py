"""Fixtures shared by every test module.

``cones.cone_from_rays`` reads a table that returns the same cone for equal
input, so a cone built by one test, with the values it keeps (``dim``,
``is_smooth``, ``incidence``, ``span_coordinates``), would reach the next,
and so would the cones ``cones.faces`` keeps for it and the pieces
``cones._relint_pieces`` keeps per cone, keyed by its rays, incidence and
dimension.  Each test starts with all
three tables empty, and each ``monkeypatch.setattr`` empties the cone table
again, so a bound or a method patched in a test holds for every cone that
test builds from then on.
"""

import pathlib
import sys

import pytest

import logzeta.cones

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(autouse=True)
def empty_cone_caches():
    logzeta.cones._cone_table.cache_clear()
    logzeta.cones.faces.cache_clear()
    logzeta.cones._relint_pieces.cache_clear()


@pytest.fixture
def monkeypatch(monkeypatch):
    setattr_ = monkeypatch.setattr

    def emptying_setattr(*args, **kwargs):
        setattr_(*args, **kwargs)
        logzeta.cones._cone_table.cache_clear()

    monkeypatch.setattr = emptying_setattr
    return monkeypatch


@pytest.fixture(scope="module")
def bench():
    """The benchmark's ``run``, ``worker``, ``workloads`` and ``spans``
    modules, imported without leaving bytecode or a path entry behind."""
    saved = sys.path[:], sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        import run
        import spans
        import worker
        import workloads
    finally:
        sys.path[:], sys.dont_write_bytecode = saved
    return run, worker, workloads, spans
