"""REP603 fixture tests: one driver template selects attesters and
attests replies, and no platform driver overrides it."""

import textwrap
from pathlib import Path

from repro.analysis.checkers.driver_template import DriverTemplateChecker
from repro.analysis.core import Project

ROOT = Path(__file__).resolve().parents[2]
QUORUM_DRIVER = ROOT / "src" / "repro" / "interop" / "drivers" / "quorum_driver.py"

BASE = """
from repro.interop.policy import attesters_for
from repro.interop.proofs import attest_reply

class NetworkDriver:
    def execute_query(self, query):
        selection = attesters_for(query.policy, self._attester_pool(), self.network_id)
        return [attest_reply(self._scheme, *self._read(peer)) for peer in selection]
"""


def run(sources):
    project = Project.from_sources(
        {path: textwrap.dedent(source) for path, source in sources.items()}
    )
    return DriverTemplateChecker().run(project)


def test_a_driver_that_supplies_hooks_passes():
    findings = run(
        {
            "src/repro/interop/drivers/base.py": BASE,
            "src/repro/interop/drivers/fixture.py": """
            from repro.interop.drivers.base import NetworkDriver

            class HookDriver(NetworkDriver):
                def _attester_pool(self):
                    return [("org", "peer0")]

                def _read(self, peer):
                    return peer, b"plaintext", None
            """,
        }
    )
    assert findings == []


def test_overriding_the_template_and_calling_its_parts_fire():
    findings = run(
        {
            "src/repro/interop/drivers/base.py": BASE,
            "src/repro/interop/drivers/fixture.py": """
            from repro.interop.drivers.base import NetworkDriver
            from repro.interop.policy import attesters_for as select
            from repro.interop import proofs

            class OwnDriver(NetworkDriver):
                def execute_query(self, query):
                    peers = select(query.policy, [], self.network_id)
                    return [proofs.attest_reply(self._scheme, peer) for peer in peers]

            class GrandchildDriver(OwnDriver):
                def execute_transaction(self, query):
                    return None
            """,
        }
    )
    assert sorted((f.rule, f.symbol) for f in findings) == [
        ("REP603", "GrandchildDriver.execute_transaction"),
        ("REP603", "OwnDriver.execute_query"),
        ("REP603", "OwnDriver.execute_query"),
        ("REP603", "OwnDriver.execute_query"),
    ]
    messages = " ".join(f.message for f in findings)
    assert "calls attesters_for" in messages
    assert "calls attest_reply" in messages
    assert "overrides the driver template's execute_query" in messages


def test_the_defining_modules_may_call_their_own_function():
    source = """
        def attesters_for(policy, available, network_id):
            return list(available)

        def select_all(policy, available):
            return attesters_for(policy, available, "net")
        """
    assert run({"src/repro/interop/policy.py": source}) == []


def test_the_real_quorum_driver_overriding_the_template_is_caught():
    path = "src/repro/interop/drivers/quorum_driver.py"
    source = QUORUM_DRIVER.read_text(encoding="utf-8")
    assert run({path: source}) == []
    mutated = source + textwrap.indent(
        textwrap.dedent(
            """
            def execute_query(self, query):
                return super().execute_query(query)
            """
        ),
        "    ",
    )
    findings = run({path: mutated})
    assert [(f.rule, f.symbol) for f in findings] == [
        ("REP603", "QuorumDriver.execute_query")
    ]
