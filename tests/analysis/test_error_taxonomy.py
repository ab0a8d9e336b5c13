"""REP401 fixture tests: broad except handlers in the protocol layers."""

import textwrap

from repro.analysis.checkers.error_taxonomy import ErrorTaxonomyChecker
from repro.analysis.core import Project


def run(source, path="src/repro/interop/fixture.py"):
    project = Project.from_sources({path: textwrap.dedent(source)})
    return ErrorTaxonomyChecker().run(project)


def test_swallowing_broad_except_fires():
    findings = run(
        """
        def dispatch(envelope):
            try:
                return decode(envelope)
            except Exception:
                return None
        """
    )
    assert [f.rule for f in findings] == ["REP401"]
    assert findings[0].symbol == "dispatch"
    assert findings[0].line == 5


def test_bare_except_fires():
    findings = run(
        """
        def dispatch(envelope):
            try:
                return decode(envelope)
            except:
                pass
        """
    )
    assert [f.rule for f in findings] == ["REP401"]


def test_untyped_reraise_fires():
    # Wrapping in something outside the *Error taxonomy loses the type
    # the failover loop routes on.
    findings = run(
        """
        def dispatch(envelope):
            try:
                return decode(envelope)
            except Exception as exc:
                raise SystemExit(str(exc))
        """
    )
    assert [f.rule for f in findings] == ["REP401"]


def test_bare_reraise_is_allowed():
    findings = run(
        """
        def dispatch(envelope):
            try:
                return decode(envelope)
            except Exception:
                log.warning("dispatch failed")
                raise
        """
    )
    assert findings == []


def test_typed_reraise_is_allowed():
    findings = run(
        """
        def dispatch(envelope):
            try:
                return decode(envelope)
            except Exception as exc:
                raise RelayProtocolError("bad envelope") from exc
        """
    )
    assert findings == []


def test_error_envelope_answer_is_allowed():
    findings = run(
        """
        class RelayService:
            def dispatch(self, envelope):
                try:
                    return self._handle(envelope)
                except Exception as exc:
                    return self._error_envelope(envelope, exc)
        """
    )
    assert findings == []


def test_noqa_with_rationale_is_allowed():
    findings = run(
        """
        def peek(raw):
            try:
                return decode(raw)
            except Exception:  # noqa: BLE001 - adversarial bytes: any parse failure is recorded
                return None
        """
    )
    assert findings == []


def test_bare_noqa_tag_is_itself_a_finding():
    findings = run(
        """
        def peek(raw):
            try:
                return decode(raw)
            except Exception:  # noqa: BLE001
                return None
        """
    )
    assert [f.rule for f in findings] == ["REP401"]
    assert "rationale is mandatory" in findings[0].message


def test_narrow_except_is_out_of_scope():
    findings = run(
        """
        def dispatch(envelope):
            try:
                return decode(envelope)
            except (ValueError, KeyError):
                return None
        """
    )
    assert findings == []


def test_substrate_layers_are_out_of_scope():
    findings = run(
        """
        def poll(client):
            try:
                return client.query()
            except Exception:
                return None
        """,
        path="src/repro/fabric/fixture.py",
    )
    assert findings == []


def test_nested_handler_in_closure_is_scanned():
    findings = run(
        """
        def serve(sock):
            def worker(frame):
                try:
                    return handle(frame)
                except Exception:
                    return None
            return worker
        """
    )
    assert [f.symbol for f in findings] == ["serve.worker"]


# -- REP402: no AttributeError catches in the protocol layers ---------------------


def test_attribute_error_in_a_tuple_fires():
    findings = run(
        """
        def select(query):
            try:
                return parse(query.policy.expression)
            except (PolicyError, AttributeError) as exc:
                return error(f"malformed verification policy: {exc}")
        """
    )
    assert [(f.rule, f.symbol, f.line) for f in findings] == [("REP402", "select", 5)]
    assert "AttributeError" in findings[0].message


def test_attribute_error_alone_fires():
    findings = run(
        """
        def network_of(query):
            try:
                return query.address.network
            except builtins.AttributeError:
                return ""
        """
    )
    assert [f.rule for f in findings] == ["REP402"]


def test_checking_the_missing_field_is_allowed():
    findings = run(
        """
        def select(query):
            if query.policy is None:
                raise PolicyError("request carries no verification policy")
            try:
                return parse(query.policy.expression)
            except PolicyError as exc:
                raise PolicyError(f"malformed verification policy: {exc}") from exc
        """
    )
    assert findings == []


def test_attribute_error_outside_the_layers_is_out_of_scope():
    findings = run(
        """
        def role_of(identity):
            try:
                return identity.role
            except AttributeError:
                return "member"
        """,
        path="src/repro/fabric/fixture.py",
    )
    assert findings == []
