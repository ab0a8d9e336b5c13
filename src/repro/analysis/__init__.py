"""AST-based invariant checkers for this repository.

PRs 4-5 made the relay a concurrent, socket-served system whose
correctness rests on invariants that no general-purpose linter knows
about: shared relay state mutates only under its lock, no lock is held
across ``call_next`` or blocking I/O, every wire kind is classified and
dispatched, transport failures stay *typed* so failover engages, and
capability flags fail closed. This package machine-checks them — run
``python -m repro.analysis`` before sending a PR; CI runs it on every
push (see the ``analysis`` job) and ``tests/analysis/`` keeps the
checkers themselves honest with one-passing/one-failing fixtures per
rule.

Rules:

- **REP101** unguarded write to registered shared state
- **REP102** sync lock held across a blocking operation / ``await``
- **REP201** blocking call inside an ``async def`` frame
- **REP301** wire-kind registry: unique, exported, classified, dispatched
- **REP401** broad ``except`` without typed re-raise / error answer /
  rationale tag in the transport/relay/driver layers
- **REP402** an ``except`` naming ``AttributeError`` in those layers
- **REP501** capability flag granted without the full verb set
- **REP601** a certificate bound to a claim, or a requestor's chain
  validated, outside the one access gate (``interop/access.py``)
- **REP602** ``ecies_encrypt`` / ``ecies_decrypt`` / ``Encapsulation``
  called outside ``repro.crypto`` and the one reply sealer
  (``interop/proofs.py``)
- **REP603** ``attesters_for`` / ``attest_reply`` called outside the one
  driver template (``interop/drivers/base.py``), or a ``NetworkDriver``
  subclass overriding ``execute_query`` / ``execute_transaction``
- **REP604** ``ReplyOpener`` / ``check_attested_query`` called outside
  ``interop/proofs.py`` and the one finalizer
  (``InteropClient.finalize_response``)

Intentional violations live in ``analysis-baseline.json`` at the repo
root, each with a mandatory rationale; the checkers/registries are in
:mod:`repro.analysis.checkers` and :mod:`repro.analysis.invariants`.
"""

from repro.analysis.baseline import Baseline, BaselineEntry, BaselineError, BaselineResult
from repro.analysis.core import (
    Checker,
    Finding,
    ModuleSource,
    Project,
    all_checkers,
    register,
    run_analysis,
)

__all__ = [
    "Baseline",
    "BaselineEntry",
    "BaselineError",
    "BaselineResult",
    "Checker",
    "Finding",
    "ModuleSource",
    "Project",
    "all_checkers",
    "register",
    "run_analysis",
]
