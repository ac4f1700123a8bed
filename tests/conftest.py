import os

import pytest

from asw_slopes import expsum


@pytest.fixture(autouse=True, scope="session")
def _hermetic_cache(tmp_path_factory):
    # keep histogram caching effective within the run but off the user's disk
    d = tmp_path_factory.mktemp("asw-cache")
    old = os.environ.get("ASW_CACHE_DIR")
    os.environ["ASW_CACHE_DIR"] = str(d)
    yield
    if old is None:
        os.environ.pop("ASW_CACHE_DIR", None)
    else:
        os.environ["ASW_CACHE_DIR"] = old


@pytest.fixture(autouse=True)
def _fresh_polygons():
    # each test reads level polygons as a fresh process does
    expsum._POLYGONS.clear()
    yield
    expsum._POLYGONS.clear()

