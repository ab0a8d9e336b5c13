"""REP301 fixture tests: the wire-kind registry is closed, classified,
exported, and every request kind has a dispatch branch."""

import textwrap

from repro.analysis.checkers.wire_kinds import WireKindRegistryChecker
from repro.analysis.core import Project

CLEAN_MESSAGES = """
MSG_KIND_PING = 1
MSG_KIND_POKE = 2
MSG_KIND_PONG = 3

SIDE_EFFECTING_KINDS = frozenset({MSG_KIND_POKE})
READ_ONLY_KINDS = frozenset({MSG_KIND_PING})
REPLY_KINDS = frozenset({MSG_KIND_PONG})
"""

CLEAN_EXPORTS = """
__all__ = [
    "MSG_KIND_PING",
    "MSG_KIND_POKE",
    "MSG_KIND_PONG",
    "SIDE_EFFECTING_KINDS",
    "READ_ONLY_KINDS",
    "REPLY_KINDS",
]
"""

CLEAN_RELAY = """
class RelayService:
    _SERVE_TABLE: dict = {
        MSG_KIND_PING: _ServeRow(Ping, "ping", MSG_KIND_PONG, _serve_ping),
        MSG_KIND_POKE: _ServeRow(Poke, "poke", MSG_KIND_PONG, _serve_poke),
    }
"""


def run(messages=CLEAN_MESSAGES, exports=CLEAN_EXPORTS, relay=CLEAN_RELAY):
    project = Project.from_sources(
        {
            "src/repro/proto/messages.py": textwrap.dedent(messages),
            "src/repro/proto/__init__.py": textwrap.dedent(exports),
            "src/repro/interop/relay.py": textwrap.dedent(relay),
        }
    )
    return WireKindRegistryChecker().run(project)


def test_clean_registry_passes():
    assert run() == []


def test_unclassified_kind_fires():
    findings = run(messages=CLEAN_MESSAGES + "MSG_KIND_STRAY = 4\n")
    messages = [f.message for f in findings]
    assert any("MSG_KIND_STRAY is not classified" in m for m in messages)
    # …and the new kind is also missing from __all__.
    assert any("not exported" in m for m in messages)
    assert all(f.rule == "REP301" for f in findings)


def test_duplicate_wire_value_fires():
    findings = run(
        messages=CLEAN_MESSAGES.replace("MSG_KIND_PONG = 3", "MSG_KIND_PONG = 1")
    )
    assert any("reuses wire value 1" in f.message for f in findings)


def test_double_classification_fires():
    findings = run(
        messages=CLEAN_MESSAGES.replace(
            "READ_ONLY_KINDS = frozenset({MSG_KIND_PING})",
            "READ_ONLY_KINDS = frozenset({MSG_KIND_PING, MSG_KIND_POKE})",
        )
    )
    assert any("classified twice" in f.message for f in findings)


def test_missing_classification_set_fires():
    findings = run(
        messages=CLEAN_MESSAGES.replace(
            "READ_ONLY_KINDS = frozenset({MSG_KIND_PING})", ""
        )
    )
    assert any(
        "READ_ONLY_KINDS is not defined" in f.message for f in findings
    )


def test_unknown_member_in_set_fires():
    findings = run(
        messages=CLEAN_MESSAGES.replace(
            "REPLY_KINDS = frozenset({MSG_KIND_PONG})",
            "REPLY_KINDS = frozenset({MSG_KIND_PONG, MSG_KIND_GHOST})",
        )
    )
    assert any("MSG_KIND_GHOST" in f.message for f in findings)


def test_missing_export_fires():
    findings = run(exports=CLEAN_EXPORTS.replace('    "MSG_KIND_POKE",\n', ""))
    assert any(
        "MSG_KIND_POKE is not exported" in f.message for f in findings
    )


def test_undispatched_request_kind_fires():
    # Route only the read-only kind; the side-effecting one goes dark.
    findings = run(
        relay="""
        class RelayService:
            _SERVE_TABLE = {
                MSG_KIND_PING: _ServeRow(Ping, "ping", MSG_KIND_PONG, _serve_ping),
            }
        """
    )
    assert [f.rule for f in findings] == ["REP301"]
    assert "MSG_KIND_POKE has no dispatch branch" in findings[0].message


def test_reply_kinds_need_no_dispatch():
    # MSG_KIND_PONG is never routed in the clean fixture; that is correct.
    assert run() == []


def test_table_rows_may_share_a_handler():
    # Two keys bound to one row (as the four asset verbs are): each key
    # counts as dispatched.
    findings = run(
        relay="""
        class RelayService:
            _row = _ServeRow(Ping, "ping", MSG_KIND_PONG, _serve_any)
            _SERVE_TABLE = {messages.MSG_KIND_PING: _row, messages.MSG_KIND_POKE: _row}
        """
    )
    assert findings == []


def test_missing_dispatch_table_fires():
    findings = run(relay="class RelayService:\n    pass\n")
    assert [f.rule for f in findings] == ["REP301"]
    assert "no RelayService._SERVE_TABLE dict literal" in findings[0].message
