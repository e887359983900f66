"""The JSONL request loop behind ``mpicollpred serve``."""

from __future__ import annotations

import io
import json
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.zoo import tiny_testbed
from repro.serve import ModelRegistry, PredictionService, handle_request, serve_lines

from tests.serve.conftest import make_rules_text


def run_lines(service, lines: list[str]) -> list[dict]:
    out = io.StringIO()
    serve_lines(partial(handle_request, service), lines, out)
    return [json.loads(line) for line in out.getvalue().splitlines()]


class TestHandleRequest:
    def test_recommend_echoes_id(self, service):
        response = handle_request(
            service,
            {"id": 7, "collective": "bcast", "nodes": 4, "ppn": 2,
             "msize": 64},
        )
        assert response["ok"] and response["id"] == 7
        assert response["algid"] >= 0 and response["source"] == "model"

    def test_msize_accepts_unit_strings(self, service):
        response = handle_request(
            service,
            {"collective": "bcast", "nodes": 4, "ppn": 2, "msize": "64K"},
        )
        assert response["ok"] and response["msize"] == 65536

    def test_recommend_many(self, service):
        response = handle_request(
            service,
            {
                "op": "recommend_many",
                "instances": [
                    {"collective": "bcast", "nodes": n, "ppn": 1, "msize": 64}
                    for n in (2, 4, 8)
                ],
            },
        )
        assert response["ok"]
        assert [r["nodes"] for r in response["results"]] == [2, 4, 8]

    def test_reload_ok_and_rejected(
        self, service, library, tmp_path
    ):
        good = tmp_path / "good.conf"
        good.write_text(make_rules_text(library, "bcast", 4, 2, [(0, 0)]))
        response = handle_request(service, {"op": "reload", "path": str(good)})
        assert response["ok"] and response["collective"] == "bcast"
        bad = handle_request(
            service, {"op": "reload", "path": str(tmp_path / "missing.conf")}
        )
        assert not bad["ok"] and "ReloadError" in bad["error"]

    def test_stats_op(self, service):
        response = handle_request(service, {"op": "stats"})
        assert response["ok"] and "l1" in response["stats"]

    def test_missing_fields_do_not_raise(self, service):
        response = handle_request(service, {"collective": "bcast"})
        assert not response["ok"]

    def test_unknown_op(self, service):
        response = handle_request(service, {"op": "compress"})
        assert not response["ok"] and "unknown op" in response["error"]

    def test_unknown_collective(self, service):
        response = handle_request(
            service,
            {"collective": "scan", "nodes": 2, "ppn": 1, "msize": 8},
        )
        assert not response["ok"]


#: msizes as the JSONL loop receives them: raw ints, numeric strings,
#: and the unit suffixes parse_bytes accepts (binary multipliers)
_msizes = st.one_of(
    st.integers(min_value=0, max_value=1 << 22),
    st.sampled_from(
        ["64KiB", "1M", "512", "4K", "2M", "65536", "0", "262144", "1MiB"]
    ),
)


class TestRecommendManyParity:
    """Batch and scalar JSONL answers agree for any msize spelling."""

    @settings(max_examples=20, deadline=None)
    @given(
        msizes=st.lists(_msizes, min_size=1, max_size=12),
        compiled=st.booleans(),
    )
    def test_recommend_many_matches_scalar(
        self, library, tuned_bcast, msizes, compiled
    ):
        registry = ModelRegistry(tiny_testbed, library)
        registry.publish(tuned_bcast.servable(), tag="t")
        service = PredictionService(registry, compiled=compiled)
        instances = [
            {"collective": "bcast", "nodes": 2 + (i % 3) * 2, "ppn": 1,
             "msize": m}
            for i, m in enumerate(msizes)
        ]
        batch = handle_request(
            service, {"op": "recommend_many", "instances": instances}
        )
        assert batch["ok"]
        fields = ("algid", "algorithm", "params", "label", "msize",
                  "source", "version")
        for inst, got in zip(instances, batch["results"], strict=True):
            scalar = handle_request(service, dict(inst))
            assert scalar["ok"]
            assert {f: got[f] for f in fields} == {
                f: scalar[f] for f in fields
            }


class TestServeLines:
    def test_bad_lines_keep_the_loop_alive(self, service):
        responses = run_lines(
            service,
            [
                "not json at all",
                "",
                '{"collective": "bcast", "nodes": 2, "ppn": 1, "msize": 8}',
                '[1, 2, 3]',
            ],
        )
        # blank line skipped; bad lines answered; good line served
        assert [r["ok"] for r in responses] == [False, True, False]

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("nodes", 0),
            ("ppn", -2),
            ("msize", -64),
            ("msize", 64.9),
            ("msize", "-64"),
            ("nodes", True),
            ("ppn", 1.5),
        ],
    )
    def test_out_of_range_instance_rejected(self, service, field, bad):
        good = {"collective": "bcast", "nodes": 2, "ppn": 1, "msize": 64}
        responses = run_lines(
            service, [json.dumps({**good, field: bad}), json.dumps(good)]
        )
        assert [r["ok"] for r in responses] == [False, True]
        assert field in responses[0]["error"]

    def test_quit_stops_early(self, service):
        responses = run_lines(
            service,
            [
                '{"op": "quit"}',
                '{"collective": "bcast", "nodes": 2, "ppn": 1, "msize": 8}',
            ],
        )
        assert len(responses) == 1 and responses[0]["bye"]

    def test_responses_mirror_requests_in_order(self, service):
        lines = [
            json.dumps(
                {"id": i, "collective": "bcast", "nodes": 2 + i, "ppn": 1,
                 "msize": 64}
            )
            for i in range(5)
        ]
        responses = run_lines(service, lines)
        assert [r["id"] for r in responses] == list(range(5))
