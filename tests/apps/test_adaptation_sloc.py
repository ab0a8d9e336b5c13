"""The §5 adaptation cost, measured as added source lines.

The paper reports one-time adaptation costs of ~35 SLOC in the source
chaincode, ~20 SLOC in the destination chaincode and ~80 SLOC in the
destination application. Every interop-added region of this repo's use
case is marked with ``# [interop-begin]`` / ``# [interop-end]``
comments, so the counter below measures the same quantities from the
code itself. Absolute counts differ (Python, not Go or JavaScript); the
shape, tens of lines with the destination application largest, is the
reproduced result.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any

import pytest

from repro.apps.stl.chaincode import TradeLensChaincode
from repro.apps.swt.applications import SwtSellerClient
from repro.apps.swt.chaincode import WeTradeChaincode

_BEGIN = "[interop-begin]"
_END = "[interop-end]"


def count_sloc(source: str) -> int:
    """Count non-blank, non-comment source lines."""
    count = 0
    for line in source.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        count += 1
    return count


def interop_regions(source: str) -> list[str]:
    """Extract the text of every ``[interop-begin] .. [interop-end]`` region."""
    regions: list[str] = []
    current: list[str] | None = None
    for line in source.splitlines():
        if _BEGIN in line:
            if current is not None:
                raise ValueError("nested [interop-begin] markers")
            current = []
            continue
        if _END in line:
            if current is None:
                raise ValueError("[interop-end] without matching begin")
            regions.append("\n".join(current))
            current = None
            continue
        if current is not None:
            current.append(line)
    if current is not None:
        raise ValueError("unterminated [interop-begin] region")
    return regions


def interop_sloc_of(obj: Any) -> int:
    """Total interop-added SLOC across the marked regions of ``obj``'s source."""
    source = inspect.getsource(obj)
    return sum(count_sloc(region) for region in interop_regions(source))


@dataclass(frozen=True)
class AdaptationReport:
    """Interop-added SLOC at each of the paper's three adaptation sites."""

    source_chaincode_sloc: int
    destination_chaincode_sloc: int
    destination_app_sloc: int


def measure_adaptation() -> AdaptationReport:
    """Measure the interop-added SLOC of this repo's STL/SWT adaptation."""
    return AdaptationReport(
        source_chaincode_sloc=interop_sloc_of(TradeLensChaincode),
        destination_chaincode_sloc=interop_sloc_of(WeTradeChaincode),
        destination_app_sloc=interop_sloc_of(SwtSellerClient),
    )


class TestSloc:
    def test_count_ignores_blanks_and_comments(self):
        source = "\n".join(["x = 1", "", "# comment", "   # indented comment", "y = 2"])
        assert count_sloc(source) == 2

    def test_regions_extracted(self):
        source = "\n".join(
            [
                "a = 1",
                "# [interop-begin]",
                "b = 2",
                "c = 3",
                "# [interop-end]",
                "d = 4",
            ]
        )
        regions = interop_regions(source)
        assert len(regions) == 1
        assert count_sloc(regions[0]) == 2

    def test_unterminated_region_rejected(self):
        with pytest.raises(ValueError):
            interop_regions("# [interop-begin]\nx = 1")

    def test_end_without_begin_rejected(self):
        with pytest.raises(ValueError):
            interop_regions("# [interop-end]")

    def test_measured_adaptation_matches_paper_shape(self):
        """The §5 claim: adaptation is tens of lines, one-time."""
        report = measure_adaptation()
        assert 0 < report.source_chaincode_sloc <= 60
        assert 0 < report.destination_chaincode_sloc <= 40
        assert 0 < report.destination_app_sloc <= 120
        # Destination app adaptation is the largest, as in the paper.
        assert report.destination_app_sloc > report.destination_chaincode_sloc

    def test_interop_sloc_of_chaincodes_positive(self):
        from repro.apps.stl.chaincode import TradeLensChaincode
        from repro.apps.swt.chaincode import WeTradeChaincode

        assert interop_sloc_of(TradeLensChaincode) > 0
        assert interop_sloc_of(WeTradeChaincode) > 0
