import pytest

from tsirelson_lab import dualnorm, jamesify, tsirelson
from tsirelson_lab.seqvec import BoundedMemo

# every module-level store of the package, by module and name
STORES = [
    (dualnorm, "_dual_cache"),
    (dualnorm, "_program_pool"),
    (dualnorm, "_functional_cache"),
    (tsirelson, "_norm_cache"),
    (jamesify, "_james_memo"),
]


@pytest.fixture
def fresh_stores(monkeypatch):
    """Every store swapped for an empty one of the same kind and size, in ``STORES`` order.

    A test may change the ``size`` of the stores it is given; the module's
    own stores come back after the test.
    """
    stores = []
    for module, name in STORES:
        store = BoundedMemo(getattr(module, name).size)
        monkeypatch.setattr(module, name, store)
        stores.append(store)
    return stores
