"""Suite-wide setup: freeze the heap once collection is done.

Collection imports every test module and builds every parametrisation;
what it leaves alive lives for the whole run.  ``gc.freeze()`` moves it
to the permanent generation, so the full collections the tests trigger
(well over a hundred per tier-1 run) no longer walk it each time.  It
changes when garbage is found, never what a test sees: a frozen object
is still reference-counted, and a test that collects by hand
(``tests/hostcost.py``, ``tests/test_cyclic_garbage.py``) still finds
every cycle made after the freeze.
"""

import gc


def pytest_collection_finish(session):
    gc.collect()
    gc.freeze()
