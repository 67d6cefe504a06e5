"""Transport-agnostic wire protocol of the annotation serving stack.

Every serving face of the toolbox — ``repro serve`` over a corpus file,
the stdin/stdout loop mode, and the asyncio socket server
(:mod:`repro.serving.server`) — speaks the same newline-delimited JSON
protocol.  This module is that protocol's single implementation: one
codepath parses wire records into :class:`~repro.serving.request.AnnotationRequest`
objects or admin operations, one codepath renders results and errors back
to JSON-serializable answer dicts.  Transports add nothing but bytes in
motion, which is what keeps the stdin loop byte-identical to the socket
server for the same traffic.

Record shapes (one JSON object per line):

* **Table record** — the :func:`repro.io.table_to_dict` shape
  (``{"kind": "table", "table_id": ..., "columns": [...]}``), optionally
  extended with a ``"model"`` route (the served model's name or
  fingerprint; any other route is an error answer) and an ``"id"``
  correlation token.  Answered with the
  :meth:`~repro.serving.request.AnnotationResult.to_dict` record.
* **Dataset header** — ``{"kind": "dataset", ...}`` records are skipped,
  so a whole corpus file can be piped through unchanged.
* **Admin record** — ``{"op": ...}`` with one of :data:`ADMIN_OPS`
  (``health``, ``stats``, ``shutdown``), answered with ``{"ok": true, "op": ...}`` payloads (see
  :func:`handle_admin`).  Admin records are live-traffic only
  (``decode_record(admin=True)``); a static corpus row carrying ``"op"``
  is an input error.
* **Error answer** — anything that cannot be served (broken JSON, a
  zero-column table, an unknown route, a per-request annotation failure)
  is answered with ``{"error": ...}``, never with a dead connection.

Correlation: a client-supplied ``"id"`` field (any JSON value) is echoed
back as the last key of the matching answer — including error answers —
so clients multiplexing one connection can correlate out-of-order or
interleaved traffic.  Records without an ``"id"`` get byte-identical
answers to the pre-``id`` protocol.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Union

from ..datasets.tables import Table
from ..io import table_from_dict
from .request import (
    AnnotationOptions,
    AnnotationRequest,
    AnnotationResult,
    wire_record,
)

#: Admin operations the protocol understands, in wire-name order.
ADMIN_OPS = ("health", "shutdown", "stats")


def format_error(error: object) -> str:
    """The wire rendering of an exception: its message, unquoted.

    ``KeyError`` stringifies with quotes around the message; stripping
    them keeps error answers readable (and is the historical loop-mode
    rendering, so existing clients see unchanged bytes).
    """
    return str(error).strip("'\"")


def error_answer(
    message: str,
    record_id: Optional[Any] = None,
    table_id: Optional[str] = None,
    op: Optional[str] = None,
) -> Dict:
    """One ``{"error": ...}`` answer record.

    ``table_id`` names the table whose annotation failed; ``op`` names the
    admin operation that failed; ``record_id`` is the client correlation
    token (echoed last, like every answer).
    """
    answer: Dict = {}
    if table_id is not None:
        answer["table_id"] = table_id
    if op is not None:
        answer["op"] = op
    answer["error"] = message
    if record_id is not None:
        answer["id"] = record_id
    return answer


class ProtocolError(ValueError):
    """A wire record that cannot become a request or admin operation.

    Carries what little identity could be salvaged from the broken record
    (``record_id``, ``table_id``) so the error answer still correlates.
    Lenient transports (the stdin loop, the socket server) emit
    :meth:`answer`; strict ones (corpus files) let it propagate — it *is*
    a ``ValueError``, so the CLI's input-error handling applies.
    """

    def __init__(
        self,
        message: str,
        record_id: Optional[Any] = None,
        table_id: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.record_id = record_id
        self.table_id = table_id

    def answer(self) -> Dict:
        """The ready-to-emit ``{"error": ...}`` record for this failure."""
        return error_answer(
            str(self), record_id=self.record_id, table_id=self.table_id
        )


@dataclass
class RequestRecord:
    """One decoded table record: the request plus its correlation id."""

    request: AnnotationRequest
    record_id: Optional[Any] = None


@dataclass
class AdminRecord:
    """One decoded admin record: the op, its arguments, its correlation id."""

    op: str
    payload: Dict = field(default_factory=dict)
    record_id: Optional[Any] = None


DecodedRecord = Union[RequestRecord, AdminRecord]


def decode_record(
    line: Union[str, bytes, Dict],
    options: Optional[AnnotationOptions] = None,
    admin: bool = False,
) -> Optional[DecodedRecord]:
    """Decode one wire line (or an already-parsed payload).

    Returns ``None`` for blank lines and dataset-header records, a
    :class:`RequestRecord` for table records, or — with ``admin=True`` —
    an :class:`AdminRecord` for ``{"op": ...}`` records.  Anything else
    raises :class:`ProtocolError` (broken JSON, a non-table payload, a
    zero-column table, an unknown or disallowed admin op), carrying the
    record's ``"id"`` when one could be read.

    ``options`` becomes the request's per-request knobs; the transport
    owns them (CLI flags, server configuration), not the wire record.
    """
    if isinstance(line, (bytes, bytearray)):
        line = line.decode("utf-8", errors="replace")
    if isinstance(line, str):
        text = line.strip()
        if not text:
            return None
        try:
            payload = json.loads(text)
        except ValueError as error:
            raise ProtocolError(format_error(error)) from error
        except RecursionError as error:
            # A pathologically nested line ('['*10000) blows the parser's
            # stack, not ours: still just a bad record, never a dead
            # server.
            raise ProtocolError("record is nested too deeply") from error
    else:
        payload = line
    record_id: Optional[Any] = None
    try:
        if isinstance(payload, dict):
            record_id = payload.pop("id", None)
            if "op" in payload:
                return _decode_admin(payload, record_id, admin)
        if payload.get("kind") == "dataset":
            return None
        model = payload.pop("model", None)
        request = AnnotationRequest(
            table=table_from_dict(payload),
            options=options or AnnotationOptions(),
            model=model,
        )
    except ProtocolError:
        raise
    except (ValueError, KeyError, TypeError, AttributeError) as error:
        # Salvage what identity the broken record still offers so the
        # error answer correlates even without an "id".
        table_id = (
            payload.get("table_id") if isinstance(payload, dict) else None
        )
        if not isinstance(table_id, str):
            table_id = None
        raise ProtocolError(
            format_error(error), record_id=record_id, table_id=table_id
        ) from error
    return RequestRecord(request=request, record_id=record_id)


def _decode_admin(
    payload: Dict, record_id: Optional[Any], admin: bool
) -> AdminRecord:
    op = payload.pop("op")
    if not admin:
        # Covers both refusal contexts accurately: a strict corpus row
        # (admin records are live traffic) and a live transport started
        # with admin disabled (`--no-admin`).
        raise ProtocolError(
            f"admin op {op!r} is not allowed here (this transport does "
            "not accept admin records)",
            record_id=record_id,
        )
    if not isinstance(op, str) or op not in ADMIN_OPS:
        raise ProtocolError(
            f"unknown admin op {op!r} (expected one of: {', '.join(ADMIN_OPS)})",
            record_id=record_id,
        )
    return AdminRecord(op=op, payload=payload, record_id=record_id)


def encode_result(
    result: AnnotationResult,
    with_embeddings: bool = False,
    record_id: Optional[Any] = None,
) -> Dict:
    """The answer record for one annotation result (id echoed last)."""
    return result.to_dict(with_embeddings=with_embeddings, record_id=record_id)


def encode_stored(
    payload: Dict, table: Table, record_id: Optional[Any] = None
) -> Optional[Dict]:
    """The answer record for a result-store payload, from its stored form.

    Equal, key for key, to ``encode_result`` of the
    :class:`~repro.serving.request.AnnotationResult` that
    :func:`~repro.serving.diskcache.decode_annotation` would rebuild for
    ``table`` — both end in :func:`~repro.serving.request.wire_record` —
    without building that result: the socket server answers store hits
    with it.  ``table`` is the asker's own (its ``table_id`` and headers
    are echoed; the store's key covers neither ``table_id`` nor the
    difference between a missing and an empty header).  Returns ``None``
    for a payload carrying embeddings, which only the decoded path renders.
    """
    if payload["colemb"] is not None:
        return None
    relations = {
        (int(i), int(j)): labels for i, j, labels in payload["colrels"]
    }
    return wire_record(
        table,
        payload["coltypes"],
        payload["type_scores"],
        sorted(relations.items()),
        record_id=record_id,
    )


def encode_line(record: Dict) -> str:
    """Render one answer record as its wire line (newline-terminated)."""
    return json.dumps(record) + "\n"


def handle_admin(record: AdminRecord, gateway) -> Dict:
    """Execute one admin operation against a gateway; return the answer.

    Never raises: a failed operation answers ``{"op": ..., "error": ...}``
    — the admin plane must outlive its worst client line exactly like the
    data plane.  ``shutdown`` is acknowledged here but *performed* by the
    transport (the stdin loop breaks, the socket server drains and
    stops): the protocol layer has no connections to close.
    """
    op, record_id = record.op, record.record_id
    registry = gateway.registry
    try:
        if op == "health":
            name = registry.default_name
            answer = {
                "ok": True,
                "op": op,
                "models": [name] if name is not None else [],
                "live": [name] if registry.live else [],
                "default": name,
            }
        elif op == "stats":
            answer = {
                "ok": True,
                "op": op,
                "gateway": gateway.stats.to_dict(),
                "registry": registry.stats.to_dict(),
            }
        else:  # op == "shutdown" (decode_record admitted only ADMIN_OPS)
            answer = {"ok": True, "op": op}
    except Exception as error:  # noqa: BLE001 - answered, never fatal
        return error_answer(format_error(error), record_id=record_id, op=op)
    if record_id is not None:
        answer["id"] = record_id
    return answer
