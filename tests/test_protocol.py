"""The transport-agnostic serving protocol (repro.serving.protocol).

One decode/encode codepath is shared by corpus serving, the stdin loop,
and the socket server; these tests pin its contract transport-free:
record shapes, error answers (with the historical loop-mode byte shapes),
the ``"id"`` correlation echo, and the admin plane against a live
gateway.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.annotator import AnnotatedTable
from repro.datasets.tables import Column, Table
from repro.io import table_to_dict
from repro.serving import (
    AnnotationEngine,
    AnnotationGateway,
    AnnotationOptions,
    AnnotationRequest,
    AnnotationResult,
    protocol,
)
from repro.serving.diskcache import decode_annotation, encode_annotation


def _table_record(table, **extra):
    record = table_to_dict(table)
    record.update(extra)
    return record


def _line(payload) -> str:
    return json.dumps(payload) + "\n"


@pytest.mark.smoke
class TestDecode:
    def test_blank_and_dataset_records_are_skipped(self):
        assert protocol.decode_record("") is None
        assert protocol.decode_record("   \n") is None
        assert protocol.decode_record(_line({"kind": "dataset", "name": "x"})) is None

    def test_table_record_decodes_with_route_and_id(self, shared_tiny_annotator):
        table = shared_tiny_annotator.trainer.dataset.tables[0]
        options = AnnotationOptions(top_k=2)
        record = protocol.decode_record(
            _line(_table_record(table, model="canary", id=41)), options
        )
        assert isinstance(record, protocol.RequestRecord)
        assert record.record_id == 41
        assert record.request.model == "canary"
        assert record.request.options is options
        assert record.request.table.table_id == table.table_id

    def test_bytes_lines_decode_like_str(self, shared_tiny_annotator):
        table = shared_tiny_annotator.trainer.dataset.tables[0]
        record = protocol.decode_record(_line(_table_record(table)).encode("utf-8"))
        assert record.request.table.table_id == table.table_id

    def test_broken_json_raises_protocol_error(self):
        with pytest.raises(protocol.ProtocolError) as info:
            protocol.decode_record("this is not json\n")
        answer = info.value.answer()
        assert set(answer) == {"error"}
        assert "Expecting value" in answer["error"]

    def test_non_table_payload_keeps_legacy_error_shape(self):
        """Pre-protocol loop mode answered non-dict payloads with the raw
        AttributeError text; the shared codepath must keep those bytes."""
        with pytest.raises(protocol.ProtocolError) as info:
            protocol.decode_record("5\n")
        # (The historical rendering strips the outer quote characters the
        # exception text happens to start/end with — bytes over beauty.)
        assert info.value.answer() == {
            "error": "int' object has no attribute 'get"
        }

    def test_zero_column_table_error_carries_id_and_table_id(self):
        with pytest.raises(protocol.ProtocolError) as info:
            protocol.decode_record(
                _line({"kind": "table", "table_id": "t", "columns": [], "id": "c-9"})
            )
        answer = info.value.answer()
        assert "no columns" in answer["error"]
        assert answer["table_id"] == "t"  # salvaged identity
        assert answer["id"] == "c-9"
        # The id echoes as the LAST key of every answer.
        assert list(answer)[-1] == "id"

    def test_pathologically_nested_line_is_an_error_answer(self):
        """'['*N blows json's recursion limit; the server must see a bad
        record, not a RecursionError escaping the protocol layer."""
        with pytest.raises(protocol.ProtocolError, match="nested too deeply"):
            protocol.decode_record("[" * 100000)

    def test_admin_record_requires_admin_transport(self):
        with pytest.raises(protocol.ProtocolError, match="not allowed"):
            protocol.decode_record(_line({"op": "stats"}), admin=False)
        record = protocol.decode_record(_line({"op": "stats"}), admin=True)
        assert isinstance(record, protocol.AdminRecord)
        assert record.op == "stats"

    def test_unknown_admin_op_rejected(self):
        with pytest.raises(protocol.ProtocolError, match="unknown admin op"):
            protocol.decode_record(_line({"op": "reboot", "id": 1}), admin=True)

    def test_admin_payload_and_id_survive_decode(self):
        record = protocol.decode_record(
            _line({"op": "health", "verbose": True, "id": 5}),
            admin=True,
        )
        assert record.payload == {"verbose": True}
        assert record.record_id == 5


@pytest.mark.smoke
class TestEncode:
    def test_error_answer_key_order(self):
        answer = protocol.error_answer("boom", record_id=3, table_id="t", op="x")
        assert list(answer) == ["table_id", "op", "error", "id"]
        assert protocol.error_answer("boom") == {"error": "boom"}

    def test_format_error_strips_quotes(self):
        assert protocol.format_error(KeyError("no model")) == "no model"
        assert protocol.format_error(ValueError("bad")) == "bad"

    def test_encode_result_id_echo_is_last_key(self, shared_tiny_annotator):
        table = shared_tiny_annotator.trainer.dataset.tables[0]
        engine = AnnotationEngine(shared_tiny_annotator.trainer)
        result = engine.annotate(table)
        bare = protocol.encode_result(result)
        assert "id" not in bare
        tagged = protocol.encode_result(result, record_id={"k": 1})
        assert list(tagged)[-1] == "id"
        assert tagged["id"] == {"k": 1}
        tagged.pop("id")
        assert tagged == bare  # the echo adds a key, never perturbs bytes

    def test_encode_line_is_one_json_line(self):
        line = protocol.encode_line({"a": 1})
        assert line.endswith("\n")
        assert json.loads(line) == {"a": 1}


# ---------------------------------------------------------------------------
# Stored payload -> wire record, without the object graph
# ---------------------------------------------------------------------------

_LABELS = ["city", "country", "née", "a b", "zz"]
# Few distinct values, so ties in the ranking are the common case; some are
# float32 widened to float64, which is what a model's scores look like.
_SCORES = [
    0.0, 0.25, 0.5, 1.0, 1e-7, 0.9999995, 0.123456789,
    float(np.float32(0.3)), float(np.float32(0.7)),
]
_label_lists = st.lists(st.sampled_from(_LABELS), max_size=3, unique=True)


@st.composite
def _annotations(draw):
    """``(annotated table, the asker's table, record id)``: any products a
    model could emit, and a content-compatible table under another name."""
    width = draw(st.integers(1, 4))
    headers = st.one_of(st.none(), st.just(""), st.text(max_size=6))

    def table():
        return Table(
            columns=[
                Column(values=["x"], header=draw(headers)) for _ in range(width)
            ],
            table_id=draw(st.text(max_size=8)),
        )

    full = draw(st.booleans())  # top_k=None: the whole vocabulary, in order
    type_scores = []
    for _ in range(width):
        names = _LABELS if full else draw(
            st.lists(st.sampled_from(_LABELS), max_size=3, unique=True)
        )
        type_scores.append({n: draw(st.sampled_from(_SCORES)) for n in names})
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, width - 1), st.integers(0, width - 1)),
            max_size=4,
            unique=True,
        )
    )
    annotated = AnnotatedTable(
        table=table(),
        coltypes=[draw(_label_lists) for _ in range(width)],
        colrels={pair: draw(_label_lists) for pair in pairs},
        type_scores=type_scores,
        requested_pairs=list(pairs),
    )
    record_id = draw(
        st.one_of(st.none(), st.integers(), st.text(max_size=4),
                  st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))
    )
    return annotated, table(), record_id


def _stored(annotated):
    """The payload as the store hands it back: encoded, written, re-read."""
    result = AnnotationResult(
        request=AnnotationRequest(table=annotated.table), annotated=annotated
    )
    return json.loads(json.dumps(encode_annotation(result), ensure_ascii=False))


@pytest.mark.smoke
class TestEncodeStored:
    @settings(max_examples=150, deadline=None)
    @given(_annotations())
    def test_line_equals_the_decoded_path(self, drawn):
        """Byte for byte the line of ``decode_annotation`` -> result ->
        ``encode_result``, under the asker's own table id and headers."""
        annotated, asker, record_id = drawn
        payload = _stored(annotated)
        request = AnnotationRequest(table=asker)
        decoded = AnnotationResult(
            request=request,
            annotated=decode_annotation(request, payload),
            from_disk=True,
        )
        want = protocol.encode_line(
            protocol.encode_result(decoded, record_id=record_id)
        )
        got = protocol.encode_line(
            protocol.encode_stored(payload, asker, record_id)
        )
        assert got == want
        answer = json.loads(got)
        assert answer["table_id"] == asker.table_id
        assert [c["header"] for c in answer["columns"]] == [
            c.header for c in asker.columns
        ]

    def test_a_payload_with_embeddings_is_declined(self):
        table = Table(columns=[Column(values=["x"])], table_id="t")
        annotated = AnnotatedTable(
            table=table,
            coltypes=[["city"]],
            colemb=np.ones((1, 4), dtype=np.float32),
            type_scores=[{"city": 0.5}],
        )
        assert protocol.encode_stored(_stored(annotated), table) is None


@pytest.mark.smoke
class TestAdminPlane:
    @pytest.fixture()
    def gateway(self, shared_tiny_annotator):
        gateway = AnnotationGateway.for_engine(
            AnnotationEngine(shared_tiny_annotator.trainer), name="primary"
        )
        with gateway:
            yield gateway

    def _admin(self, gateway, op, **payload):
        record_id = payload.pop("id", None)
        record = protocol.AdminRecord(op=op, payload=payload, record_id=record_id)
        return protocol.handle_admin(record, gateway)

    def test_health(self, gateway):
        answer = self._admin(gateway, "health", id=7)
        assert answer["ok"] is True
        assert answer["models"] == ["primary"]
        assert answer["live"] == ["primary"]
        assert answer["default"] == "primary"
        assert answer["id"] == 7

    def test_stats_is_json_serializable(self, gateway, shared_tiny_annotator):
        gateway.annotate(shared_tiny_annotator.trainer.dataset.tables[0])
        answer = self._admin(gateway, "stats")
        rendered = json.loads(json.dumps(answer))
        assert rendered["gateway"]["completed"] == 1
        assert rendered["gateway"]["models"]["primary"]["completed"] == 1
        assert "padding_waste" in rendered["gateway"]["engines"]["primary"]
        assert rendered["registry"]["registered"] == 1

    @pytest.mark.parametrize("op", ["register", "repoint", "unregister"])
    def test_model_mutation_ops_are_refused(self, op):
        """The served weights are fixed at start: the ops that once loaded
        a server-side path or dropped a model are unknown records, whose
        error answer still correlates."""
        line = _line({"op": op, "name": "m", "path": "/p", "id": 4})
        with pytest.raises(protocol.ProtocolError, match="unknown admin op") as caught:
            protocol.decode_record(line, admin=True)
        answer = caught.value.answer()
        assert "expected one of: health, shutdown, stats" in answer["error"]
        assert answer["id"] == 4

    def test_shutdown_is_acknowledged_only(self, gateway, shared_tiny_annotator):
        assert self._admin(gateway, "shutdown") == {"ok": True, "op": "shutdown"}
        # The protocol layer acknowledges; the transport performs.  The
        # gateway must still be serving.
        assert gateway.annotate(
            shared_tiny_annotator.trainer.dataset.tables[0]
        ).coltypes


@pytest.mark.smoke
class TestCorpusStrictness:
    def test_admin_record_in_a_corpus_is_an_input_error(self, tmp_path):
        from repro.cli import main

        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(_line({"op": "stats"}))
        code = main(["serve", str(tmp_path / "missing"), str(corpus)])
        assert code == 1  # no bundle AND strict corpus: clean CLI error
