"""REP602 fixture tests: replies are sealed and opened only in proofs.py."""

import textwrap

from repro.analysis.checkers.reply_sealing import ReplySealingChecker
from repro.analysis.core import Project


def run(path, source):
    project = Project.from_sources({path: textwrap.dedent(source)})
    return ReplySealingChecker().run(project)


def test_sealing_in_a_driver_fires():
    findings = run(
        "src/repro/interop/drivers/fixture.py",
        """
        from repro.crypto.ecies import ecies_encrypt

        class Driver:
            def seal(self, key, data):
                return ecies_encrypt(key, data)
        """,
    )
    assert [(f.rule, f.symbol) for f in findings] == [("REP602", "Driver.seal")]
    assert "ecies_encrypt" in findings[0].message


def test_opening_and_key_agreement_anywhere_else_fire():
    findings = run(
        "src/repro/interop/client.py",
        """
        from repro.crypto import ecies
        from repro.crypto.ecies import Encapsulation as Agreement

        def finalize(private_key, public_key, box):
            ecies.ecies_decrypt(private_key, box)
            return Agreement(public_key)
        """,
    )
    assert [f.rule for f in findings] == ["REP602", "REP602"]
    assert "ecies_decrypt" in findings[0].message
    assert "Encapsulation" in findings[1].message


def test_the_reply_sealer_and_the_primitives_pass():
    source = """
        from repro.crypto.ecies import Encapsulation, ecies_decrypt, ecies_encrypt

        def seal(key, data):
            return ecies_encrypt(key, data, encapsulation=Encapsulation(key))

        def open_box(private_key, box):
            return ecies_decrypt(private_key, box)
        """
    assert run("src/repro/interop/proofs.py", source) == []
    assert run("src/repro/crypto/fixture.py", source) == []


def test_reexporting_without_calling_passes():
    findings = run(
        "src/repro/fixture/__init__.py",
        """
        from repro.crypto.ecies import ecies_decrypt, ecies_encrypt

        __all__ = ["ecies_decrypt", "ecies_encrypt"]
        """,
    )
    assert findings == []
