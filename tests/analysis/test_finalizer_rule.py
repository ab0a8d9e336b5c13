"""REP604 fixture tests: one finalizer opens replies and binds them to
their requests, for queries and transactions alike."""

import textwrap
from pathlib import Path

from repro.analysis.checkers.finalizer import FinalizerChecker
from repro.analysis.core import Project

ROOT = Path(__file__).resolve().parents[2]
CLIENT = ROOT / "src" / "repro" / "interop" / "client.py"


def run(sources):
    project = Project.from_sources(
        {path: textwrap.dedent(source) for path, source in sources.items()}
    )
    return FinalizerChecker().run(project)


def test_the_one_finalizer_and_the_proofs_module_pass():
    findings = run(
        {
            "src/repro/interop/proofs.py": """
            def check_attested_query(label, metadata, **request):
                return None

            def validate_bundle(bundle, request):
                for attestation in bundle:
                    check_attested_query("a", attestation.metadata(), **request)
            """,
            "src/repro/interop/client.py": """
            from repro.interop.proofs import ReplyOpener, check_attested_query

            class InteropClient:
                def finalize_response(self, prepared, response):
                    opener = ReplyOpener(self._key)
                    for attestation in response.attestations:
                        check_attested_query("a", opener.attestation(attestation).metadata())
            """,
        }
    )
    assert findings == []


def test_a_second_finalizer_fires_even_under_an_alias():
    findings = run(
        {
            "src/repro/interop/transactions.py": """
            from repro.interop import proofs
            from repro.interop.proofs import check_attested_query as bind

            class RemoteTransactionClient:
                def finalize_transaction(self, prepared, response):
                    opener = proofs.ReplyOpener(self._key)
                    bind("a", opener.unseal(response.result_cipher))
            """,
            "src/repro/interop/client.py": """
            from repro.interop.proofs import ReplyOpener

            class InteropClient:
                def _open(self, response):
                    return ReplyOpener(self._key)
            """,
        }
    )
    assert sorted((f.rule, f.path, f.symbol) for f in findings) == [
        ("REP604", "src/repro/interop/client.py", "InteropClient._open"),
        ("REP604", "src/repro/interop/transactions.py", "RemoteTransactionClient.finalize_transaction"),
        ("REP604", "src/repro/interop/transactions.py", "RemoteTransactionClient.finalize_transaction"),
    ]
    messages = " ".join(f.message for f in findings)
    assert "calls ReplyOpener" in messages
    assert "calls check_attested_query" in messages


def test_the_real_client_moving_its_opener_out_is_caught():
    path = "src/repro/interop/client.py"
    source = CLIENT.read_text(encoding="utf-8")
    assert run({path: source}) == []
    mutated = source + textwrap.dedent(
        """

        def open_reply(private_key):
            return ReplyOpener(private_key)
        """
    )
    assert [(f.rule, f.symbol) for f in run({path: mutated})] == [("REP604", "open_reply")]
