"""The checker suite — importing this package registers every checker."""

from repro.analysis.checkers import (  # noqa: F401 - registration imports
    access_gate,
    async_safety,
    capabilities,
    driver_template,
    error_taxonomy,
    finalizer,
    locks,
    reply_sealing,
    wire_kinds,
)
