"""Fixtures shared by every test module.

``cones.cone_from_rays`` reads a table that returns the same cone for equal
input, so a cone built by one test, with the values it keeps (``dim``,
``closed_piece``, ``is_smooth``, ``incidence``, ``span_coordinates``),
would reach the next, and so would whatever another ``lru_cache`` of the library keeps: the faces
``cones.faces`` keeps per cone, the pieces ``cones._relint_pieces`` keeps
per cone, the complexes ``cones.complex_from_cones`` keeps with their
verdicts and masks, the coefficients ``cli.parse_coeff`` keeps per text and
the Newton face table.  Each test starts with every
``lru_cache`` of the ``logzeta`` modules empty, a table added later
included, and each ``monkeypatch.setattr`` empties the cone and complex
tables again, so a bound or a method patched in a test holds for every cone
and complex that test builds from then on.
"""

import pathlib
import sys

import pytest

import logzeta.cones

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(autouse=True)
def empty_library_caches():
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "logzeta":
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


@pytest.fixture
def monkeypatch(monkeypatch):
    setattr_ = monkeypatch.setattr

    def emptying_setattr(*args, **kwargs):
        setattr_(*args, **kwargs)
        logzeta.cones._cone_table.cache_clear()
        logzeta.cones._complex_table.cache_clear()

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
