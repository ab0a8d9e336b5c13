"""REP601 fixture tests: certificates meet claims only in the access gate."""

import textwrap

from repro.analysis.checkers.access_gate import AccessGateChecker
from repro.analysis.core import Project


def run(path, source):
    project = Project.from_sources({path: textwrap.dedent(source)})
    return AccessGateChecker().run(project)


def test_org_comparison_outside_the_gate_fires():
    findings = run(
        "src/repro/interop/drivers/fixture.py",
        """
        def check(auth, creator):
            if creator.subject.organization != auth.requesting_org:
                raise AccessDeniedError("wrong org")
        """,
    )
    assert [f.rule for f in findings] == ["REP601"]
    assert findings[0].symbol == "check"
    assert "subject.organization" in findings[0].message


def test_common_name_comparison_on_the_right_fires():
    findings = run(
        "src/repro/assets/fixture.py",
        """
        class Port:
            def _check(self, auth, certificate):
                return auth.requestor == certificate.subject.common_name
        """,
    )
    assert [(f.rule, f.symbol) for f in findings] == [("REP601", "Port._check")]


def test_chain_validation_outside_the_gate_fires():
    findings = run(
        "src/repro/pubchain/fixture.py",
        """
        from repro.crypto.certs import validate_chain

        def authenticate(certificate, root):
            validate_chain(certificate, [root])
        """,
    )
    assert [f.rule for f in findings] == ["REP601"]
    assert "validate" in findings[0].message


def test_the_gate_itself_passes():
    findings = run(
        "src/repro/interop/access.py",
        """
        def authorise(auth, certificate, root):
            if certificate.subject.organization != auth.requesting_org:
                raise AccessDeniedError("wrong org")
            validate_chain(certificate, [root])
        """,
    )
    assert findings == []


def test_proof_validation_may_validate_chains():
    findings = run(
        "src/repro/interop/proofs.py",
        """
        def validate_attestation(certificate, root):
            validate_chain(certificate, [root])
        """,
    )
    assert findings == []


def test_reading_a_subject_field_is_not_a_comparison():
    findings = run(
        "src/repro/interop/proofs.py",
        """
        def signer_org(certificate):
            org_id = certificate.subject.organization
            return org_id
        """,
    )
    assert findings == []


def test_layers_outside_scope_pass():
    findings = run(
        "src/repro/fabric/fixture.py",
        """
        def creator_org(stub, org):
            validate_chain(stub.get_creator(), [])
            return stub.get_creator().subject.organization == org
        """,
    )
    assert findings == []
