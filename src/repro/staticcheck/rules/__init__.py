"""Built-in rule plugins.

Importing this package registers every bundled rule.  To add a rule,
create a module here with a :class:`~repro.staticcheck.rule.Rule`
subclass decorated with :func:`~repro.staticcheck.registry.register`,
then import it below (and add fixture tests — see
docs/static_analysis.md).
"""

from . import (doorbell_order, hotpath_alloc,  # noqa: F401
               nonposted_hotpath, no_wallclock, seeded_rng,
               units_discipline)
