"""Command-line interface for the DODUO toolbox.

The paper releases DODUO "as a toolbox, which can be used with just a few
lines of Python code"; this module is the zero-lines-of-Python counterpart::

    repro generate wikitable --num-tables 200 --out corpus.jsonl
    repro train corpus.jsonl --out model/ --epochs 10
    repro annotate model/ table.csv
    repro annotate model/ corpus.jsonl --batch-size 16 --out results.jsonl
    repro serve model/ corpus.jsonl --cache-dir anno-cache/
    repro serve model/ --listen 127.0.0.1:9000
    repro stats 127.0.0.1:9000
    repro cache compact anno-cache/ --max-bytes 100000000
    repro evaluate model/ corpus.jsonl

``annotate`` has two modes: a CSV table is annotated one-off and printed; a
``.jsonl`` corpus is streamed through the batched
:class:`~repro.serving.AnnotationEngine` (one padded encoder pass per batch)
and emitted as one JSON record per table — the serving entry point.
``--cache-dir`` adds the persistent result-cache tier, so re-annotating the
same corpus later performs zero encoder passes.

``serve`` is the front end over one model bundle, loaded at startup:
tables flow through an :class:`~repro.serving.EngineWorker` (a bounded
queue, a batching worker, cross-request dedup), from a ``.jsonl``
corpus, from a stdin loop (``-``), or — with ``--listen HOST:PORT`` —
over TCP via the asyncio :class:`~repro.serving.AnnotationServer`.  All
three faces speak the one wire protocol of :mod:`repro.serving.protocol`
(same records, same ``{"error": ...}`` answers, same optional ``"id"``
correlation echo), and the live faces (loop, socket) also carry the
admin plane: ``{"op": "stats"}``, ``{"op": "health"}`` and
``{"op": "shutdown"}``.
``repro stats HOST:PORT`` is the one-shot admin client.  A record's
optional ``"model"`` field must name the served model (``default``) or its
fingerprint; any other route is an error answer.  ``--cache-dir`` keeps
the store in the model fingerprint's subdirectory (a pre-existing flat
cache keeps its layout).  SIGINT/SIGTERM drain in-flight requests and
flush the disk cache before exiting.

All subcommands are pure functions of their arguments (deterministic under
``--seed``), and :func:`main` takes an ``argv`` list so the tests can drive
the CLI in-process.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import fields, replace
from typing import Optional, Sequence

from .core import Doduo, DoduoConfig, DoduoTrainer, ProbeBudget, ProbePlanner
from .core.persistence import load_annotator, save_annotator
from .core.trainer import RELATION_TASK, TYPE_TASK
from .core.wide import annotate_wide
from .datasets import (
    generate_enterprise_dataset,
    generate_viznet_dataset,
    generate_wikitable_dataset,
    split_dataset,
)
from .evaluation import render_table
from .io import (
    iter_tables_jsonl,
    load_dataset_jsonl,
    read_table_csv,
    save_dataset_jsonl,
)
from .nn import TransformerConfig
from .serving import (
    AnnotationEngine,
    AnnotationOptions,
    EngineConfig,
    EngineWorker,
    GatewayStats,
    PoolConfig,
    QueueConfig,
    ServingPool,
    load_engine,
    protocol,
    store_directory,
)
from .text import train_wordpiece

GENERATORS = {
    "wikitable": generate_wikitable_dataset,
    "viznet": generate_viznet_dataset,
}


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.corpus == "enterprise":
        dataset = generate_enterprise_dataset(seed=args.seed)
    else:
        dataset = GENERATORS[args.corpus](
            num_tables=args.num_tables, seed=args.seed
        )
    save_dataset_jsonl(dataset, args.out)
    print(
        f"wrote {len(dataset.tables)} tables "
        f"({dataset.num_types} types, {dataset.num_relations} relations) "
        f"to {args.out}"
    )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    dataset = load_dataset_jsonl(args.dataset)
    if not dataset.tables:
        print("error: dataset contains no tables", file=sys.stderr)
        return 1
    splits = split_dataset(dataset, seed=args.seed)
    tokenizer = train_wordpiece(
        splits.train.all_cell_text(), vocab_size=args.vocab_size
    )
    encoder_config = TransformerConfig(
        vocab_size=tokenizer.vocab_size,
        hidden_dim=args.hidden_dim,
        num_layers=args.layers,
        num_heads=args.heads,
        ffn_dim=2 * args.hidden_dim,
        max_position=args.max_position,
        num_segments=12,
        dropout=args.dropout,
    )
    has_relations = dataset.num_relations > 0
    tasks = (TYPE_TASK, RELATION_TASK) if has_relations else (TYPE_TASK,)
    config = DoduoConfig(
        tasks=tasks,
        multi_label=has_relations if args.multi_label is None else args.multi_label,
        max_tokens_per_column=args.max_tokens_per_column,
        value_order=args.value_order,
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        seed=args.seed,
    )
    trainer = DoduoTrainer(splits.train, tokenizer, encoder_config, config)
    trainer.train(valid_dataset=splits.valid, verbose=args.verbose)
    annotator = Doduo(trainer)
    scores = trainer.evaluate(splits.test)
    for task, prf in scores.items():
        print(f"test {task} micro-F1: {prf.f1:.4f}")
    save_annotator(annotator, args.out)
    print(f"saved model bundle to {args.out}")
    return 0


def _cmd_annotate(args: argparse.Namespace) -> int:
    config = _engine_config(args)
    annotator = load_annotator(args.model)
    if args.table.endswith(".jsonl"):
        csv_only = [
            name
            for name, used in (
                ("--json", args.json),
                ("--no-header", args.no_header),
                ("--max-columns", bool(args.max_columns)),
                ("--wide-strategy", args.wide_strategy is not None),
            )
            if used
        ]
        if csv_only:
            print(
                f"error: {', '.join(csv_only)} only apply to CSV input, "
                "not .jsonl serving mode",
                file=sys.stderr,
            )
            return 1
        return _annotate_jsonl_batch(annotator, config, args)
    # CSV mode builds no engine: of its knobs only the probe policy applies.
    jsonl_only = [
        name
        for name, used in (
            ("--out", args.out is not None),
            ("--top-k", args.top_k is not None),
            ("--threshold", args.threshold is not None),
            ("--embeddings", args.embeddings),
            ("--cache-dir", args.cache_dir is not None),
        )
        if used
    ] + [
        knob.metadata["flags"][0]
        for knob in fields(EngineConfig)
        if knob.metadata["flags"]
        and knob.name not in ("probe_mode", "probe_budget")
        and getattr(args, knob.name, None) is not None
    ]
    if jsonl_only:
        print(
            f"error: {', '.join(jsonl_only)} only apply to .jsonl serving "
            "mode, not CSV input",
            file=sys.stderr,
        )
        return 1
    table = read_table_csv(args.table, has_header=not args.no_header)
    planner = None
    if config.probe_mode == "planned":
        planner = ProbePlanner(ProbeBudget(max_pairs=config.probe_budget))
    if args.max_columns and table.num_columns > args.max_columns:
        annotated = annotate_wide(
            annotator, table, max_columns=args.max_columns,
            strategy=args.wide_strategy or "contiguous",
            probe_planner=planner,
        )
    elif planner is not None:
        annotated = annotator.engine.annotate(
            table, pairs=planner.plan_pairs(table)
        ).annotated
    else:
        annotated = annotator.annotate(table)
    if args.json:
        payload = {
            "table_id": table.table_id,
            "columns": [
                {
                    "header": col.header,
                    "predicted_types": annotated.coltypes[c],
                }
                for c, col in enumerate(table.columns)
            ],
            "relations": [
                {"columns": list(pair), "predicted_relations": labels}
                for pair, labels in sorted(annotated.colrels.items())
            ],
        }
        print(json.dumps(payload, indent=2))
        return 0
    rows = [
        (c, col.header or "", ", ".join(annotated.coltypes[c]))
        for c, col in enumerate(table.columns)
    ]
    print(render_table(("col", "header", "predicted types"), rows,
                       title=f"column types: {table.table_id}"))
    if annotated.colrels:
        rel_rows = [
            (f"{i}-{j}", ", ".join(labels))
            for (i, j), labels in sorted(annotated.colrels.items())
        ]
        print(render_table(("pair", "predicted relations"), rel_rows,
                           title="column relations"))
    return 0


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    """The flags :class:`EngineConfig`'s knobs declare; :func:`_engine_config`
    reads them back."""
    for knob in fields(EngineConfig):
        meta = knob.metadata
        if not meta["flags"]:
            continue
        if isinstance(knob.default, bool):
            kind = {"action": "store_true"}
        elif meta["enumerated"]:
            kind = {"choices": meta["values"]}
        else:
            kind = {"type": int, "metavar": "N"}
        default = f" (default {knob.default})" if knob.default else ""
        parser.add_argument(
            *meta["flags"], dest=knob.name, default=None,
            help=meta["help"] + default, **kind,
        )


def _engine_config(args: argparse.Namespace) -> EngineConfig:
    """The :class:`EngineConfig` the given engine flags spell; omitted ones
    keep their defaults, and a refused combination raises ``ValueError``."""
    return EngineConfig(**{
        knob.name: getattr(args, knob.name)
        for knob in fields(EngineConfig)
        if knob.metadata["flags"] and getattr(args, knob.name, None) is not None
    })


def _add_option_flags(parser: argparse.ArgumentParser) -> None:
    """The per-request options ``annotate`` (.jsonl mode) and ``serve`` fix
    for every table; :func:`_options` reads them back."""
    parser.add_argument("--top-k", type=int, default=None,
                        help="type scores kept per column (default 3)")
    parser.add_argument("--threshold", type=float, default=None,
                        help="multi-label decision threshold")
    parser.add_argument("--embeddings", action="store_true",
                        help="include column embeddings in records")


def _options(args: argparse.Namespace) -> AnnotationOptions:
    return AnnotationOptions(
        with_embeddings=args.embeddings,
        top_k=3 if args.top_k is None else args.top_k,
        score_threshold=args.threshold,
    )


def _annotate_jsonl_batch(
    annotator: Doduo, config: EngineConfig, args: argparse.Namespace
) -> int:
    """Batch-serve a .jsonl corpus through the AnnotationEngine.

    Tables are streamed lazily from the file (one chunk in memory at a
    time), so arbitrarily large corpora can be served.
    """
    if args.cache_dir is not None:
        # Answers `repro serve` stored here are found where it put them
        # (the model fingerprint's sub-directory); a new directory
        # gets this command's flat layout, which `serve` honours in turn.
        fingerprint = AnnotationEngine(annotator.trainer, config).model_fingerprint
        directory = store_directory(args.cache_dir, fingerprint) or args.cache_dir
        config = replace(config, cache_dir=str(directory))
    engine = AnnotationEngine(annotator.trainer, config)
    options = _options(args)
    out_handle = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    count = 0
    try:
        for result in engine.annotate_stream(iter_tables_jsonl(args.table), options):
            record = result.to_dict(with_embeddings=args.embeddings)
            out_handle.write(json.dumps(record) + "\n")
            count += 1
    except BrokenPipeError:
        # Downstream consumer (e.g. `... | head`) closed the pipe: stop
        # streaming quietly.  Redirect stdout to devnull so the interpreter's
        # shutdown flush does not raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    finally:
        if args.out:
            out_handle.close()
    if count == 0:
        print("error: corpus contains no tables", file=sys.stderr)
        return 1
    stats = engine.stats.to_dict()
    disk = (
        f", {stats['disk_hits']} disk hits" if args.cache_dir is not None else ""
    )
    print(
        f"annotated {count} tables in {stats['batches']} batches "
        f"({stats['encoder_passes']} encoder passes, "
        f"{stats['cache_hits']} cache hits{disk})"
        + (f" -> {args.out}" if args.out else ""),
        file=sys.stderr if not args.out else sys.stdout,
    )
    return 0


def _iter_stdin_records(options, admin=True):
    """Yield decoded records from stdin, one JSON record per line.

    The loop-mode face of the serving protocol
    (:mod:`repro.serving.protocol`): each line may carry a ``"model"``
    route, an ``"id"`` correlation token, or — unless the operator
    disabled the admin plane (``--no-admin``) — an admin ``{"op": ...}``.
    Dataset-header records are skipped so a whole corpus file can be
    piped in unchanged; blank lines are ignored so interactive sessions
    can breathe.

    A line that cannot become a record — broken JSON, a record missing
    table fields, a zero-column table, a refused admin op — yields its
    ``{"error": ...}`` answer dict instead of raising: a long-running
    loop server must outlive its worst client line (exceptions would end
    the generator for good).
    """
    for line in sys.stdin:
        try:
            record = protocol.decode_record(line, options, admin=admin)
        except protocol.ProtocolError as error:
            yield error.answer()
            continue
        if record is not None:
            yield record


def _iter_corpus_records(path, options):
    """Yield decoded request records from a ``.jsonl`` corpus file.

    Same record shape as loop mode — including per-record ``"model"``
    routes and ``"id"`` tokens — but strict: a malformed record (or an
    admin op, which is live traffic, not a corpus row) raises — a static
    corpus with a broken line is an input error, not traffic to survive.
    """
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = protocol.decode_record(line, options, admin=False)
            if record is not None:
                yield record


def _parse_serve_args(args: argparse.Namespace) -> Optional[str]:
    """`repro serve BUNDLE [CORPUS]`: check the bundle, return the corpus.

    With ``--listen`` there is no corpus, and ``None`` comes back.
    """
    if not os.path.exists(os.path.join(args.model, "bundle.json")):
        raise ValueError(
            f"{args.model} is not a model bundle directory (no bundle.json)"
        )
    if args.listen is None:
        if args.corpus is None:
            raise ValueError("no corpus: pass a .jsonl path, or '-' for stdin")
        return args.corpus
    if args.corpus is not None:
        raise ValueError(
            "--listen runs a socket server: drop the corpus argument "
            f"({args.corpus!r})"
        )
    if args.out is not None:
        raise ValueError("--out does not apply to --listen (answers go to clients)")
    return None


def _parse_listen(spec: str):
    """``HOST:PORT`` → ``(host, port)`` (an empty host means loopback)."""
    host, sep, port_text = spec.rpartition(":")
    if not sep or not port_text.isdigit():
        raise ValueError(f"--listen expects HOST:PORT, got {spec!r}")
    port = int(port_text)
    if port > 65535:
        raise ValueError(f"port must be 0-65535, got {port}")
    return host or "127.0.0.1", port


@contextlib.contextmanager
def _graceful_signals():
    """Translate SIGINT/SIGTERM into ``KeyboardInterrupt`` for the scope.

    `repro serve` uses it so a Ctrl-C or a supervisor's TERM lands as an
    exception at a record boundary: the worker context then drains
    in-flight requests and flushes/closes the persistent disk cache
    instead of the process dying mid-batch.  Off the main thread (where
    signals cannot be installed) this is a no-op.
    """
    import signal

    def _raise(signum, frame):
        raise KeyboardInterrupt

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, _raise)
        except ValueError:  # not the main thread
            pass
    try:
        yield
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serving: one model, loaded here, behind a bounded queue, a batching
    worker and dedup.  ``--listen HOST:PORT`` swaps the stdin/stdout
    transport for the asyncio TCP server — same protocol, same answers.
    """
    engine_config = _engine_config(args)
    options = _options(args)
    corpus = _parse_serve_args(args)
    if args.workers is not None:
        # Multi-process pool: the parent owns the address and each worker
        # builds its own stack — nothing below applies to the parent.
        if args.listen is None:
            raise ValueError("--workers requires --listen (the pool serves "
                             "TCP; corpus/stdin serving is single-process)")
        if args.workers < 1:
            raise ValueError(f"--workers must be >= 1: {args.workers}")
        return _serve_pool(args, engine_config, options)
    worker = EngineWorker(
        load_engine(args.model, engine_config, cache_dir=args.cache_dir),
        QueueConfig(max_batch=engine_config.batch_size),
    )
    if args.listen is not None:
        return _serve_listen(args, worker, options)
    loop_mode = corpus == "-"
    records = (
        _iter_stdin_records(options, admin=not args.no_admin)
        if loop_mode
        else _iter_corpus_records(corpus, options)
    )
    out_handle = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    count = 0
    admin_answers = 0
    interrupted = False

    def emit(record) -> None:
        out_handle.write(protocol.encode_line(record))
        out_handle.flush()

    try:
        with worker, _graceful_signals():
            if loop_mode:
                # Loop mode answers each record as it arrives (stdin is
                # serial anyway) and must survive bad records: malformed
                # lines (already turned into error answers by the record
                # iterator), a route naming other weights, or a per-request
                # annotation failure each get an error record on stdout —
                # never a dead server.  Admin records ({"op": ...}) are
                # the same plane the socket server exposes: stats/health
                # introspection; {"op": "shutdown"} ends the loop
                # gracefully.
                for record in records:
                    if isinstance(record, dict):  # un-parseable line
                        emit(record)
                        continue
                    if isinstance(record, protocol.AdminRecord):
                        answer = protocol.handle_admin(record, worker)
                        emit(answer)
                        if answer.get("ok"):
                            # Only successful ops count as session work —
                            # an all-errors session must still exit 1.
                            admin_answers += 1
                        if record.op == "shutdown" and answer.get("ok"):
                            break
                        continue
                    request = record.request
                    try:
                        result = worker.annotate(request, options)
                    except Exception as error:  # noqa: BLE001 - server survives
                        # Whatever one request's annotation raised — bad
                        # route, invalid pairs, a pathological table deep
                        # in the forward pass — belongs to that request.
                        emit(protocol.error_answer(
                            protocol.format_error(error),
                            record_id=record.record_id,
                            table_id=request.table.table_id,
                        ))
                        continue
                    emit(protocol.encode_result(
                        result,
                        with_embeddings=args.embeddings,
                        record_id=record.record_id,
                    ))
                    count += 1
            else:
                # Corpus mode keeps a batch-sized window in flight so the
                # workers can dedup and batch; results come back in
                # submission order, so correlation ids realign by FIFO.
                from collections import deque

                record_ids: deque = deque()

                def requests():
                    for record in records:
                        record_ids.append(record.record_id)
                        yield record.request

                for result in worker.annotate_stream(requests(), options):
                    emit(protocol.encode_result(
                        result,
                        with_embeddings=args.embeddings,
                        record_id=record_ids.popleft(),
                    ))
                    count += 1
    except KeyboardInterrupt:
        # SIGINT/SIGTERM: the worker context already drained in-flight
        # requests and flushed/closed the disk cache on the way out.
        interrupted = True
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    finally:
        if args.out:
            out_handle.close()
    # An empty (or all-errors) session is a failure; a session that did
    # real work — tables, admin introspection, a clean remote shutdown —
    # or was interrupted mid-drain is not.
    if count == 0 and admin_answers == 0 and not interrupted:
        print("error: no tables were served", file=sys.stderr)
        return 1
    note = "interrupted: drained in-flight requests; " if interrupted else ""
    stats = worker.stats_sections()["gateway"].to_dict()
    _print_serve_summary(stats, count, args, note=note)
    if interrupted and not loop_mode:
        # Corpus (batch) mode: partial output must not look like success
        # to a pipeline gating on the exit status.  (The interactive
        # stdin loop exits 0 — Ctrl-C is how a session *ends*.)
        return 130
    return 0


def _print_serve_summary(stats, count, args, note="", workers=None) -> None:
    """The `repro serve` stats epilogue, shared by every transport and
    topology; ``stats`` is the rendered ``"gateway"`` section of the
    stats answer (one process's, or a pool's merged one)."""
    out = getattr(args, "out", None)
    disk = f", {stats['disk_hits']} disk hits" if args.cache_dir is not None else ""
    over = f" over {workers} workers" if workers is not None else ""
    print(
        f"{note}served {count} tables in {stats['batches']} queue batches{over} "
        f"({stats['dedup_hits']} dedup hits, "
        f"{stats['encoder_passes']} encoder passes{disk})"
        + (f" -> {out}" if out else ""),
        file=sys.stderr if not out else sys.stdout,
    )


def _serve_listen(args, worker, options) -> int:
    """`repro serve --listen HOST:PORT`: the asyncio TCP front door.

    Runs until SIGINT/SIGTERM or a client's ``{"op": "shutdown"}``; both
    paths drain accepted requests to their clients, then close the
    worker — which drains its queue and flushes/closes the
    persistent disk cache — before exiting.
    """
    import asyncio
    import signal

    from .serving.server import AnnotationServer

    host, port = _parse_listen(args.listen)

    async def _run() -> None:
        server = AnnotationServer(
            worker,
            options,
            host=host,
            port=port,
            with_embeddings=args.embeddings,
            admin=not args.no_admin,
        )
        await server.start()
        loop = asyncio.get_running_loop()
        interrupt = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, interrupt.set)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # platform or thread without signal support
        bound_host, bound_port = server.address
        print(f"listening on {bound_host}:{bound_port}",
              file=sys.stderr, flush=True)
        waiters = [
            asyncio.ensure_future(interrupt.wait()),
            asyncio.ensure_future(server.shutdown_requested.wait()),
        ]
        try:
            await asyncio.wait(waiters, return_when=asyncio.FIRST_COMPLETED)
        finally:
            for waiter in waiters:
                waiter.cancel()
            await server.stop()

    try:
        asyncio.run(_run())
    except OSError as error:
        # Bind failures (port in use, unresolvable host) are input
        # errors, not tracebacks.
        print(f"error: cannot listen on {host}:{port}: {error}",
              file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # Platforms without add_signal_handler deliver Ctrl-C here after
        # asyncio.run has cancelled _run (whose finally stopped the
        # server); fall through to the drained-and-flushed exit.
        pass
    finally:
        worker.close()  # drain the queue, flush/close the disk cache
    stats = worker.stats_sections()["gateway"].to_dict()
    _print_serve_summary(stats, stats["completed"], args)
    return 0


def _serve_pool(args: argparse.Namespace, engine_config, options) -> int:
    """`repro serve --listen HOST:PORT --workers N`: the process pool.

    The parent binds the address, spawns the workers, hands each accepted
    connection to one of them, and supervises until SIGINT/SIGTERM or a
    client's ``{"op": "shutdown"}`` — then every worker drains its
    accepted requests before exiting.
    """
    host, port = _parse_listen(args.listen)
    config = PoolConfig(
        bundle=args.model,
        host=host,
        port=port,
        workers=args.workers,
        cache_dir=args.cache_dir,
        engine=engine_config,
        options=options,
        admin=not args.no_admin,
    )
    pool = ServingPool(config)
    try:
        bound_host, bound_port = pool.start()
    except OSError as error:  # the bind, or the arena build before it
        print(f"error: cannot start the pool on {host}:{port}: {error}",
              file=sys.stderr)
        return 1
    print(
        f"listening on {bound_host}:{bound_port} ({args.workers} workers)",
        file=sys.stderr, flush=True,
    )
    try:
        with _graceful_signals():
            pool.wait()
    except KeyboardInterrupt:
        pass
    finally:
        pool.stop()
    # final_stats is None only when the post-drain collection itself failed.
    stats = (pool.final_stats or {}).get("gateway") or GatewayStats().to_dict()
    _print_serve_summary(
        stats, stats["completed"], args, workers=args.workers
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """One-shot admin client: ask a running server for its stats."""
    import socket as _socket

    host, port = _parse_listen(args.address)
    record = {"op": "stats"}
    try:
        with _socket.create_connection((host, port), timeout=args.timeout) as sock:
            with sock.makefile("rw", encoding="utf-8", newline="\n") as stream:
                stream.write(json.dumps(record) + "\n")
                stream.flush()
                line = stream.readline()
    except OSError as error:
        print(f"error: cannot reach {host}:{port}: {error}", file=sys.stderr)
        return 1
    if not line:
        print("error: the server closed the connection without answering",
              file=sys.stderr)
        return 1
    try:
        answer = json.loads(line)
    except ValueError:
        print(
            f"error: {host}:{port} answered a non-JSON line "
            "(is it a repro serve --listen server?)",
            file=sys.stderr,
        )
        return 1
    print(json.dumps(answer, indent=2, sort_keys=True))
    return 0 if "error" not in answer else 1


def _cache_directories(root):
    """The cache directories under ``root``: itself (flat layout — `repro
    annotate --cache-dir`) plus any model-fingerprint subdirectory
    `repro serve --cache-dir` created."""
    from pathlib import Path

    from .serving import is_cache_directory

    root = Path(root)
    found = [root] if is_cache_directory(root) else []
    found += sorted(
        child
        for child in root.iterdir()
        if child.is_dir() and is_cache_directory(child)
    )
    return found or [root]


def _cmd_cache_compact(args: argparse.Namespace) -> int:
    """Compact persistent result-cache directories (drop dead space).

    Lock-aware: a running `repro annotate`/`repro serve` (or a whole
    pool) may be live on the directory — the compaction joins it as a
    throwaway writer (its own lock releases on close), merges only
    quiescent writers' segments and leaves live ones in place.
    ``--dry-run`` reports what compaction *would* reclaim, byte-for-byte,
    touching nothing.
    """
    from .serving import CacheLockedError, FabricCache

    if not os.path.isdir(args.directory):
        print(f"error: {args.directory} is not a directory", file=sys.stderr)
        return 1
    verb = "would compact" if args.dry_run else "compacted"
    skipped = 0
    for directory in _cache_directories(args.directory):
        try:
            with FabricCache(directory, writer="cli-compact") as cache:
                result = cache.compact(
                    dry_run=args.dry_run, max_bytes=args.max_bytes
                )
        except CacheLockedError as error:
            print(f"skipped {directory}: {error}")
            skipped += 1
            continue
        notes = []
        if result.skipped_segments:
            notes.append(
                f"{result.skipped_segments} live-writer segments left in place"
            )
        if result.corrupt_records:
            notes.append(f"{result.corrupt_records} corrupt records dropped")
        if result.evicted_records:
            notes.append(
                f"{result.evicted_records} records evicted by --max-bytes"
            )
        if result.reaped_locks:
            notes.append(
                f"{result.reaped_locks} dead writer locks "
                f"{'reapable' if args.dry_run else 'reaped'}"
            )
        suffix = f" ({', '.join(notes)})" if notes else ""
        print(
            f"{verb} {directory}: {result.records} live records, "
            f"{result.bytes_before} -> {result.bytes_after} bytes "
            f"({result.reclaimed_bytes} reclaim{'able' if args.dry_run else 'ed'})"
            f"{suffix}"
        )
    if skipped:
        print(
            f"{skipped} director{'y' if skipped == 1 else 'ies'} skipped "
            "(another compaction is running; re-run after it exits)"
        )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    annotator = load_annotator(args.model)
    dataset = load_dataset_jsonl(args.dataset)
    scores = annotator.trainer.evaluate(dataset)
    rows = [
        (task, f"{prf.precision:.4f}", f"{prf.recall:.4f}", f"{prf.f1:.4f}")
        for task, prf in sorted(scores.items())
    ]
    print(render_table(("task", "precision", "recall", "micro-F1"), rows,
                       title=f"evaluation on {dataset.name or args.dataset}"))
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    annotator = load_annotator(args.model)
    trainer = annotator.trainer
    config = trainer.model.config
    num_params = sum(p.size for p in trainer.model.parameters())
    print(f"model bundle: {args.model}")
    print(f"  encoder: {config.num_layers} layers, hidden {config.hidden_dim}, "
          f"{config.num_heads} heads, vocab {config.vocab_size}")
    print(f"  parameters: {num_params}")
    print(f"  tasks: {', '.join(trainer.config.tasks)}")
    print(f"  type vocabulary: {trainer.dataset.num_types} labels")
    print(f"  relation vocabulary: {trainer.dataset.num_relations} labels")
    print(f"  trained on: {trainer.dataset.name or '(unknown)'}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    # Deferred import: the checker is pure stdlib and must stay usable
    # (e.g. in CI) without importing the numpy-heavy toolbox modules.
    from .analysis.contracts.runner import main as check_main

    argv: List[str] = list(args.paths)
    argv += ["--format", args.format]
    for rule_id in args.rules or ():
        argv += ["--rule", rule_id]
    if args.list:
        argv.append("--list")
    return check_main(argv)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DODUO column annotation toolbox (SIGMOD 2022 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic benchmark corpus")
    gen.add_argument("corpus", choices=sorted(GENERATORS) + ["enterprise"])
    gen.add_argument("--num-tables", type=int, default=200)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output .jsonl path")
    gen.set_defaults(func=_cmd_generate)

    train = sub.add_parser("train", help="fine-tune a model on a .jsonl corpus")
    train.add_argument("dataset", help="input .jsonl corpus")
    train.add_argument("--out", required=True, help="output bundle directory")
    train.add_argument("--epochs", type=int, default=10)
    train.add_argument("--batch-size", type=int, default=8)
    train.add_argument("--learning-rate", type=float, default=1e-3)
    train.add_argument("--vocab-size", type=int, default=2048)
    train.add_argument("--hidden-dim", type=int, default=64)
    train.add_argument("--layers", type=int, default=2)
    train.add_argument("--heads", type=int, default=4)
    train.add_argument("--max-position", type=int, default=256)
    train.add_argument("--max-tokens-per-column", type=int, default=8)
    train.add_argument("--value-order", default="head",
                       choices=("head", "distinct", "random"),
                       help="which cells spend the per-column token budget")
    train.add_argument("--dropout", type=float, default=0.1)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--multi-label", action="store_true", default=None,
                       help="force multi-label mode (default: inferred)")
    train.add_argument("--verbose", action="store_true")
    train.set_defaults(func=_cmd_train)

    annotate = sub.add_parser(
        "annotate", help="annotate a CSV table or batch-serve a .jsonl corpus"
    )
    annotate.add_argument("model", help="model bundle directory")
    annotate.add_argument("table", help="CSV table or .jsonl corpus to annotate")
    annotate.add_argument("--no-header", action="store_true",
                          help="the CSV has no header row")
    annotate.add_argument("--json", action="store_true",
                          help="emit JSON instead of a text table")
    annotate.add_argument("--max-columns", type=int, default=0,
                          help="split tables wider than this before annotating")
    annotate.add_argument("--wide-strategy", default=None,
                          choices=("contiguous", "similarity"))
    annotate.add_argument("--out", default=None,
                          help="write .jsonl results here instead of stdout")
    _add_option_flags(annotate)  # these and the engine flags: .jsonl mode
    _add_engine_flags(annotate)
    annotate.add_argument("--cache-dir", default=None,
                          help="persistent result-cache directory (.jsonl mode)")
    annotate.set_defaults(func=_cmd_annotate)

    serve = sub.add_parser(
        "serve",
        help="serve a corpus, stdin ('-'), or a TCP socket (--listen) "
             "through one batching worker",
    )
    serve.add_argument("model",
                       help="model bundle directory (served as 'default')")
    serve.add_argument("corpus", nargs="?", default=None,
                       help=".jsonl corpus, or '-' to loop over stdin "
                            "records")
    _add_engine_flags(serve)
    _add_option_flags(serve)
    serve.add_argument("--cache-dir", default=None,
                       help="persistent result-cache root (the store "
                            "lives in the model fingerprint's subdirectory "
                            "unless the root already holds a flat store)")
    serve.add_argument("--out", default=None,
                       help="write .jsonl results here instead of stdout")
    serve.add_argument("--listen", default=None, metavar="HOST:PORT",
                       help="serve the same protocol over TCP instead of "
                            "a corpus/stdin (port 0 binds an ephemeral "
                            "port, printed to stderr)")
    serve.add_argument("--workers", type=int, default=None, metavar="N",
                       help="with --listen: serve through N worker "
                            "processes that the parent hands connections "
                            "to, mapping one shared weight arena and "
                            "(with --cache-dir) a cross-process cache "
                            "fabric; {\"op\": \"stats\"} then answers the "
                            "merged pool-wide view")
    serve.add_argument("--no-admin", action="store_true",
                       help="refuse admin records ({\"op\": ...}) on the "
                            "live transports (socket and stdin loop): no "
                            "stats/health introspection, no remote "
                            "shutdown")
    serve.set_defaults(func=_cmd_serve)

    stats = sub.add_parser(
        "stats",
        help="print a running `repro serve --listen` server's stats as JSON",
    )
    stats.add_argument("address", metavar="HOST:PORT",
                       help="where the server is listening")
    stats.add_argument("--timeout", type=float, default=10.0,
                       help="connect/read timeout in seconds")
    stats.set_defaults(func=_cmd_stats)

    cache = sub.add_parser("cache", help="manage persistent result caches")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    compact = cache_sub.add_parser(
        "compact",
        help="rewrite a cache directory keeping only live records",
    )
    compact.add_argument("directory", help="result-cache directory (--cache-dir)")
    compact.add_argument(
        "--max-bytes", type=int, default=None,
        help="drop the oldest records until the compacted generation "
             "fits this size; applies to EACH cache directory found (a "
             "root with N fingerprint subdirectories is bounded at "
             "N x this)",
    )
    compact.add_argument(
        "--dry-run", action="store_true",
        help="report live records and reclaimable bytes per directory "
             "without rewriting anything (works against live writers)",
    )
    compact.set_defaults(func=_cmd_cache_compact)

    evaluate = sub.add_parser("evaluate", help="score a model on a .jsonl corpus")
    evaluate.add_argument("model", help="model bundle directory")
    evaluate.add_argument("dataset", help=".jsonl corpus with gold labels")
    evaluate.set_defaults(func=_cmd_evaluate)

    info = sub.add_parser("info", help="describe a model bundle")
    info.add_argument("model", help="model bundle directory")
    info.set_defaults(func=_cmd_info)

    check = sub.add_parser(
        "check",
        help="statically enforce the serving contracts (see docs/checks.md)",
    )
    check.add_argument(
        "paths",
        nargs="*",
        help="files or directories to check (default: src/ if present)",
    )
    check.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    check.add_argument(
        "--rule", action="append", dest="rules", metavar="RULE-ID",
        help="run only this rule (repeatable)",
    )
    check.add_argument(
        "--list", action="store_true", help="list registered rules and exit"
    )
    check.set_defaults(func=_cmd_check)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, IsADirectoryError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - module execution
    sys.exit(main())
