"""REP501 fixture tests: capability grants must fail closed."""

import textwrap

from repro.analysis.checkers.capabilities import CapabilityFailClosedChecker
from repro.analysis.core import Project

# A project-local stand-in for the real abstract driver: its transaction
# and event verbs decline (DECLINING_DEFAULTS), its asset verbs delegate
# to an attached port and therefore count as real implementations.
BASE = """
class NetworkDriver:
    supports_transactions = False
    supports_events = False
    supports_assets = False

    def execute_transaction(self, invocation):
        raise UnsupportedCapabilityError("transactions")

    def open_event_tap(self, request):
        raise UnsupportedCapabilityError("events")

    def close_event_tap(self, request):
        raise UnsupportedCapabilityError("events")

    def lock_asset(self, command):
        return self._asset_port.lock(command)

    def claim_asset(self, command):
        return self._asset_port.claim(command)

    def unlock_asset(self, command):
        return self._asset_port.unlock(command)

    def asset_status(self, command):
        return self._asset_port.status(command)
"""


def run(driver_source):
    project = Project.from_sources(
        {
            "src/repro/interop/drivers/base.py": textwrap.dedent(BASE),
            "src/repro/interop/drivers/fixture.py": textwrap.dedent(driver_source),
        }
    )
    return CapabilityFailClosedChecker().run(project)


def test_grant_without_verb_fires():
    findings = run(
        """
        from repro.interop.drivers.base import NetworkDriver

        class BrokenDriver(NetworkDriver):
            supports_transactions = True
        """
    )
    assert [f.rule for f in findings] == ["REP501"]
    assert findings[0].symbol == "BrokenDriver"
    assert "execute_transaction" in findings[0].message


def test_grant_with_verb_passes():
    findings = run(
        """
        from repro.interop.drivers.base import NetworkDriver

        class GoodDriver(NetworkDriver):
            supports_transactions = True

            def execute_transaction(self, invocation):
                return self._submit(invocation)
        """
    )
    assert findings == []


def test_declining_default_does_not_satisfy_grant():
    # NetworkDriver *defines* open/close_event_tap, but those defaults
    # decline — a subclass granting supports_events must override both.
    findings = run(
        """
        from repro.interop.drivers.base import NetworkDriver

        class HalfEvents(NetworkDriver):
            supports_events = True

            def open_event_tap(self, request):
                return self._taps.open(request)
        """
    )
    assert [f.rule for f in findings] == ["REP501"]
    assert "close_event_tap" in findings[0].message
    assert "open_event_tap" not in findings[0].message


def test_base_asset_delegation_satisfies_grant():
    # The base's asset verbs are real (port delegation), so granting
    # supports_assets without overriding them is fine.
    findings = run(
        """
        from repro.interop.drivers.base import NetworkDriver

        class AssetDriver(NetworkDriver):
            supports_assets = True
        """
    )
    assert findings == []


def test_instance_level_conditional_grant_fires():
    # `self.supports_events = reader is not None` is still a grant: the
    # flag *can* be truthy at runtime, so the verbs must exist.
    findings = run(
        """
        from repro.interop.drivers.base import NetworkDriver

        class LazyDriver(NetworkDriver):
            def __init__(self, reader):
                self.supports_events = reader is not None
        """
    )
    assert [f.rule for f in findings] == ["REP501"]
    assert findings[0].symbol == "LazyDriver"


def test_explicit_false_is_not_a_grant():
    findings = run(
        """
        from repro.interop.drivers.base import NetworkDriver

        class QuietDriver(NetworkDriver):
            supports_transactions = False
        """
    )
    assert findings == []


def test_verb_inherited_from_intermediate_base_counts():
    findings = run(
        """
        from repro.interop.drivers.base import NetworkDriver

        class TxMixin:
            def execute_transaction(self, invocation):
                return self._submit(invocation)

        class StackedDriver(TxMixin, NetworkDriver):
            supports_transactions = True
        """
    )
    assert findings == []


def test_template_hooks_satisfy_the_transaction_grant():
    # NetworkDriver runs execute_transaction as a template over _submit and
    # _committed_at: a driver defining both implements the verb; one that
    # defines only one of them does not.
    findings = run(
        """
        from repro.interop.drivers.base import NetworkDriver

        class HookDriver(NetworkDriver):
            def enable_transactions(self, invoker):
                self.supports_transactions = True

            def _submit(self, address, query):
                return b"", "tx-1", 1, "VALID"

            def _committed_at(self, attester_id, tx_id):
                return self._identity(attester_id)

        class HalfHookDriver(NetworkDriver):
            supports_transactions = True

            def _submit(self, address, query):
                return b"", "tx-1", 1, "VALID"
        """
    )
    assert [(f.rule, f.symbol) for f in findings] == [("REP501", "HalfHookDriver")]
    assert "execute_transaction" in findings[0].message
