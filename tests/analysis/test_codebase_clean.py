"""The meta-test: the shipped tree satisfies its own invariants.

This is the CI tripwire the ISSUE asks for — it runs every checker over
``src/`` exactly the way ``python -m repro.analysis`` does and fails on
any non-baselined finding or stale baseline entry. The sensitivity tests
then *mutate the real sources in memory* and assert the checkers catch
the regression, proving the clean result is earned rather than vacuous.
"""

from pathlib import Path

import textwrap

from repro.analysis.baseline import Baseline
from repro.analysis.core import Project, run_analysis

ROOT = Path(__file__).resolve().parents[2]
BASELINE_PATH = ROOT / "analysis-baseline.json"

MESSAGES = ROOT / "src" / "repro" / "proto" / "messages.py"
PROTO_INIT = ROOT / "src" / "repro" / "proto" / "__init__.py"
RELAY = ROOT / "src" / "repro" / "interop" / "relay.py"
ASSET_PORTS = ROOT / "src" / "repro" / "assets" / "ports.py"
DRIVER_BASE = ROOT / "src" / "repro" / "interop" / "drivers" / "base.py"


def analyze_src():
    project = Project.from_paths([ROOT / "src"], base=ROOT)
    return project, run_analysis(project)


def test_src_tree_is_clean_modulo_baseline():
    project, findings = analyze_src()
    assert project.errors == [], f"unparseable sources: {project.errors}"
    result = Baseline.load(BASELINE_PATH).apply(findings)
    rendered = "\n".join(f.render() for f in result.active)
    assert result.active == [], f"non-baselined invariant violations:\n{rendered}"
    stale = "\n".join(e.symbol for e in result.stale)
    assert result.stale == [], f"stale baseline entries (delete them):\n{stale}"


def test_baseline_is_small_and_justified():
    baseline = Baseline.load(BASELINE_PATH)
    assert len(baseline.entries) <= 10, "the baseline is a waiver list, not a dump"
    for entry in baseline.entries:
        # Load() already enforces non-empty; require a real sentence too.
        assert len(entry.rationale.split()) >= 5, (
            f"baseline entry {entry.key} needs a real rationale, "
            f"not a token: {entry.rationale!r}"
        )


# -- sensitivity: the clean result must be falsifiable ---------------------------


def real_wire_sources():
    return {
        "src/repro/proto/messages.py": MESSAGES.read_text(encoding="utf-8"),
        "src/repro/proto/__init__.py": PROTO_INIT.read_text(encoding="utf-8"),
        "src/repro/interop/relay.py": RELAY.read_text(encoding="utf-8"),
    }


def test_real_wire_registry_is_currently_clean():
    findings = run_analysis(Project.from_sources(real_wire_sources()))
    assert [f for f in findings if f.rule == "REP301"] == []


def test_unclassified_kind_regression_is_caught():
    sources = real_wire_sources()
    sources["src/repro/proto/messages.py"] += "\nMSG_KIND_SMOKE = 999\n"
    findings = run_analysis(Project.from_sources(sources))
    messages = [f.message for f in findings if f.rule == "REP301"]
    assert any("MSG_KIND_SMOKE is not classified" in m for m in messages)
    assert any("MSG_KIND_SMOKE is not exported" in m for m in messages)


def test_undispatched_kind_regression_is_caught():
    # Classify and export the new kind but give it no _route branch: the
    # envelope would answer "unexpected message kind" at runtime.
    sources = real_wire_sources()
    sources["src/repro/proto/messages.py"] = (
        sources["src/repro/proto/messages.py"].replace(
            "MSG_KIND_TRANSACT_REQUEST,",
            "MSG_KIND_TRANSACT_REQUEST,\n        MSG_KIND_SMOKE,",
            1,  # first occurrence = the SIDE_EFFECTING_KINDS literal
        )
        + "\nMSG_KIND_SMOKE = 999\n"
    )
    findings = run_analysis(Project.from_sources(sources))
    messages = [f.message for f in findings if f.rule == "REP301"]
    assert any(
        "MSG_KIND_SMOKE has no dispatch branch" in m for m in messages
    ), messages


def test_lock_across_relay_round_trip_regression_is_caught():
    # Append a module-level helper to the *real* relay module that holds
    # a lock across a full relay round-trip — the exact regression shape
    # REP102 exists to stop.
    sources = real_wire_sources()
    sources["src/repro/interop/relay.py"] += textwrap.dedent(
        """

        def _smoke_regression(service, endpoint, payload):
            with service._idempotency_lock:
                return endpoint.handle_request(payload)
        """
    )
    findings = run_analysis(Project.from_sources(sources))
    regressions = [
        f
        for f in findings
        if f.rule == "REP102" and f.symbol == "_smoke_regression"
    ]
    assert len(regressions) == 1
    assert "handle_request" in regressions[0].message


def test_org_comparison_outside_the_gate_is_caught():
    # Re-insert, into the real asset-ports module, the org check it once
    # held beside the access gate: the drift REP601 exists to stop.
    sources = {"src/repro/assets/ports.py": ASSET_PORTS.read_text(encoding="utf-8")}
    assert [f for f in run_analysis(Project.from_sources(sources)) if f.rule == "REP601"] == []
    sources["src/repro/assets/ports.py"] += textwrap.dedent(
        """

        def _smoke_regression(auth, creator):
            if creator.subject.organization != auth.requesting_org:
                raise AccessDeniedError("certificate org does not match the claim")
        """
    )
    findings = run_analysis(Project.from_sources(sources))
    regressions = [
        f for f in findings if f.rule == "REP601" and f.symbol == "_smoke_regression"
    ]
    assert len(regressions) == 1
    assert "subject.organization" in regressions[0].message


def test_attribute_error_catch_in_a_driver_is_caught():
    # Put back, in the real driver template (the Quorum driver's query
    # procedure), the catch that once answered a request with no policy
    # "'NoneType' object has no attribute ...".
    path = "src/repro/interop/drivers/base.py"
    source = DRIVER_BASE.read_text(encoding="utf-8")
    assert [f for f in run_analysis(Project.from_sources({path: source})) if f.rule == "REP402"] == []
    guarded = "        except PolicyError as exc:\n"
    assert source.count(guarded) == 1
    mutated = source.replace(guarded, "        except (PolicyError, AttributeError) as exc:\n")
    findings = run_analysis(Project.from_sources({path: mutated}))
    regressions = [f for f in findings if f.rule == "REP402"]
    assert [f.symbol for f in regressions] == ["NetworkDriver._admit"]
