"""Fast checks of the benchmark's own arithmetic and plumbing (<5 s).

Nothing here runs a workload: ``run.py --smoke`` does that. These pin the
helpers a wrong number would come from — percentiles, block medians,
spread, span self time, the counting proxy, the alias-rebinding tracer —
and that BENCHMARK.json names exactly what the harness reports.
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# -- measure ----------------------------------------------------------------------


def test_percentile_interpolates_between_ranks():
    values = [40.0, 10.0, 30.0, 20.0]  # unsorted on purpose
    assert measure.percentile(values, 0.0) == 10.0
    assert measure.percentile(values, 0.5) == 25.0
    assert measure.percentile(values, 0.9) == pytest.approx(37.0)
    assert measure.percentile(values, 1.0) == 40.0
    assert measure.percentile([7.0], 0.9) == 7.0
    with pytest.raises(ValueError):
        measure.percentile([], 0.5)


def test_blocks_slice_the_window_by_start_time():
    offsets = [0.1, 0.2, 4.9, 5.0, 9.99, 10.0]  # the last op started on the deadline
    assert measure.blocks_by_start(offsets, window=10.0, blocks=4) == [
        [0, 1],  # [0, 2.5)
        [2],  # [2.5, 5)
        [3],  # [5, 7.5)
        [4, 5],  # [7.5, 10], the deadline clamped into the last block
    ]
    assert measure.blocks_by_start([0.5], window=8.0, blocks=8) == [[0]] + [[]] * 7


def test_quiet_quartile_ignores_a_slow_phase_and_empty_blocks():
    quiet = [10.0, 10.2, 10.1, 10.3]
    slow_phase = [14.0, 15.0, 13.0]  # three of eight blocks hit by the machine
    latencies = [*quiet, *slow_phase, None]  # and one block a long op spanned
    assert measure.quiet_quartile(latencies, "lower") == pytest.approx(10.15)
    throughputs = [100.0, 99.0, 98.0, 97.0, 70.0, 65.0, 75.0, None]
    assert measure.quiet_quartile(throughputs, "higher") == pytest.approx(98.5)
    # a slowdown the program causes is in every block, so it is reported
    assert measure.quiet_quartile([value * 1.2 for value in quiet], "lower") > 12.0


def test_spread_is_interquartile_distance_over_median():
    values = [float(v) for v in range(1, 11)]
    # statistics.quantiles(1..10, n=4) -> [2.75, 5.5, 8.25]
    assert measure.spread(values) == pytest.approx((8.25 - 2.75) / 5.5)
    assert measure.spread([3.0] * 10) == 0.0


# -- span arithmetic --------------------------------------------------------------


def _span(seam, parent, start, end, op=0, size=0):
    return [seam, parent, op, start, end, size]


def test_self_time_subtracts_the_union_of_child_intervals():
    root = _span(spans.OP_SEAM, None, 0, 100)
    outer = _span("layer.outer", root, 10, 90)
    first = _span("layer.inner", outer, 20, 50)
    overlapping = _span("layer.inner", outer, 40, 60)  # another thread, overlaps `first`
    overhanging = _span("layer.inner", outer, 80, 95)  # ends after its parent
    tree = [root, outer, first, overlapping, overhanging]
    assert spans.self_times(tree) == [
        100 - 80,  # root: outer covers [10, 90]
        80 - (40 + 10),  # outer: children cover [20, 60] and [80, 90]
        30,
        20,
        15,
    ]


def test_layer_table_reports_per_op_and_coverage():
    tree = []
    for op in range(2):
        base = op * 1_000_000_000
        root = _span(spans.OP_SEAM, None, base, base + 10_000_000, op)
        seal = _span("crypto.aead.seal", root, base + 1_000_000, base + 4_000_000, op, size=100)
        mult = _span("crypto.ec.scalar_mult", root, base + 4_000_000, base + 9_000_000, op)
        tree += [root, seal, mult]
    table = spans.layer_table(tree)
    assert table["crypto.aead.seal"] == {"calls": 1.0, "bytes": 100.0, "ms": 3.0, "wall_ms": 3.0}
    assert table[spans.OP_SEAM]["ms"] == 2.0
    metrics = spans.layer_metrics(table)
    assert metrics["crypto.aead.calls"] == {"value": 1.0, "unit": "count"}
    assert metrics["crypto.aead.bytes"] == {"value": 100.0, "unit": "bytes"}
    assert metrics["crypto.ec.scalar_mult_ms"] == {"value": 5.0, "unit": "ms"}
    assert metrics["store.apply_calls"]["value"] == 0.0  # a layer this "workload" never entered
    assert metrics["trace.coverage_pct"]["value"] == pytest.approx(80.0)


# -- the tracer -------------------------------------------------------------------


@pytest.fixture
def fake_package():
    """``e2efake.lib`` defines things; ``e2efake.user`` imports one by name."""
    lib = types.ModuleType("e2efake.lib")
    exec(
        "import threading\n"
        "def primitive(x):\n    return x * 2\n"
        "def served(x):\n"
        "    worker = threading.Thread(target=primitive, args=(x,))\n"
        "    worker.start()\n    worker.join(timeout=5)\n    return x\n"
        "class Base:\n"
        "    def work(self, x):\n        return primitive(x) + 1\n"
        "class Child(Base):\n"
        "    def work(self, x):\n        return super().work(x) + 10\n"
        "    @classmethod\n"
        "    def parse(cls, data):\n        return len(data)\n",
        lib.__dict__,
    )
    user = types.ModuleType("e2efake.user")
    user.primitive = lib.primitive  # `from e2efake.lib import primitive`
    user.call = lambda x: user.primitive(x)
    modules = {"e2efake": types.ModuleType("e2efake"), "e2efake.lib": lib, "e2efake.user": user}
    sys.modules.update(modules)
    yield lib, user
    for name in modules:
        del sys.modules[name]


def test_tracer_rebinds_aliases_wraps_overrides_and_reports_absent(fake_package):
    lib, user = fake_package
    tracer = spans.Tracer(
        [
            spans.Seam("lib.primitive", "e2efake.lib:primitive"),
            spans.Seam("lib.work", "e2efake.lib:Base.work"),
            spans.Seam("lib.parse", "e2efake.lib:Child.parse", lambda args, result: len(args[1])),
            spans.Seam("lib.gone", "e2efake.lib:deleted_function"),
            spans.Seam("gone.module", "e2efake.deleted_module:anything"),
            spans.Seam("lib.gone_method", "e2efake.lib:Base.deleted_method"),
        ]
    )
    tracer.install()
    assert tracer.absent == [
        "e2efake.lib:deleted_function",
        "e2efake.deleted_module:anything",
        "e2efake.lib:Base.deleted_method",
    ]

    assert user.call(3) == 6  # installed but inactive: plain pass-through
    assert tracer.spans == []

    tracer.begin_op(0)
    assert user.call(3) == 6  # reached through the by-name alias
    assert lib.Child().work(1) == 13  # override and base both wrapped
    assert lib.Child.parse(b"abcd") == 4  # classmethod stays a classmethod
    tracer.end_op()

    names = [span[spans.SEAM] for span in tracer.spans]
    assert names == [spans.OP_SEAM, "lib.primitive", "lib.work", "lib.work", "lib.primitive", "lib.parse"]
    root, aliased, override, base, nested, parse = tracer.spans
    assert aliased[spans.PARENT] is root
    assert base[spans.PARENT] is override and nested[spans.PARENT] is base
    assert parse[spans.SIZE] == 4
    assert all(span[spans.END] >= span[spans.START] > 0 for span in tracer.spans)


def test_a_span_on_a_serve_thread_adopts_the_blocked_callers_span(fake_package):
    lib, _ = fake_package
    tracer = spans.Tracer(
        [
            spans.Seam("lib.served", "e2efake.lib:served"),
            spans.Seam("lib.primitive", "e2efake.lib:primitive"),
        ]
    )
    tracer.install()
    tracer.begin_op(7)
    lib.served(2)  # runs `primitive` on a thread of its own and waits for it
    tracer.end_op()
    root, caller_side, serve_side = tracer.spans
    assert serve_side[spans.SEAM] == "lib.primitive"
    assert serve_side[spans.PARENT] is caller_side and serve_side[spans.OP] == 7


def test_every_real_seam_resolves_on_this_tree():
    """No seam is absent today; one that goes absent later is reported, not fatal
    (covered above), but it should be a conscious edit of SEAMS, so flag it here."""
    for seam in spans.SEAMS:
        assert spans.Tracer._owners(seam.target), seam.target


# -- the counting proxy -----------------------------------------------------------


def test_counting_endpoint_counts_request_and_reply_bytes():
    class StubEndpoint:
        def handle_request(self, data: bytes) -> bytes:
            return data * 3

    tally = workloads.WireTally()
    endpoint = workloads.CountingEndpoint(StubEndpoint(), tally)
    assert endpoint.handle_request(b"ab") == b"ababab"
    assert endpoint.handle_request(b"") == b""
    assert (tally.round_trips, tally.bytes) == (2, 8)


def test_counting_endpoint_does_not_count_a_failed_round_trip():
    class DeadEndpoint:
        def handle_request(self, data: bytes) -> bytes:
            raise ConnectionError("down")

    tally = workloads.WireTally()
    with pytest.raises(ConnectionError):
        workloads.CountingEndpoint(DeadEndpoint(), tally).handle_request(b"abc")
    assert (tally.round_trips, tally.bytes) == (0, 0)


# -- BENCHMARK.json ---------------------------------------------------------------


def test_benchmark_json_names_exactly_what_the_harness_reports():
    contract = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in contract["workloads"]] == list(workloads.WORKLOADS) == [
        "bl_query",
        "bulk_query_16k",
        "transact_durable",
        "swap_2party",
    ]
    assert [m["name"] for m in contract["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in contract["per_layer"]] == [
        *spans.METRICS,
        "trace.coverage_pct",
        "trace.overhead_pct",
    ]
    units = {m["name"]: m["unit"] for m in contract["per_layer"]}
    for metric, (_, kind) in spans.METRICS.items():
        assert units[metric] == spans.UNITS[kind], metric
    for metric in contract["end_to_end"]:
        assert metric["unit"] == run.END_TO_END[metric["name"]]
        assert 0 < metric["bound"] <= 0.25 and metric["better"] in ("lower", "higher")
    assert contract["paths"] == ["benchmarks/e2e"]
    assert contract["command"] == ["python3", "benchmarks/e2e/run.py"]
