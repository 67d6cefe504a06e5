"""The fixed corpora: what the tables are, and what goes on the wire.

Generated once from ``CORPUS_SEED`` by :mod:`fixtures`, which stores each
table's wire line, held-out gold and reference answer.  A wire record is
the table with ``type_labels``, ``relation_labels`` and ``metadata``
stripped (:func:`wire_record`): ``table_to_dict`` ships the gold labels,
and ``default_relation_pairs`` would then probe the *gold* pairs instead of
TURL's ``(0, j)`` convention — label leakage real traffic never has.  The
gold stays on the harness side for the F1 guards.

Layout of the narrow corpus: ``[0, NARROW_COLD)`` is the cycle of
``cold_narrow`` and ``bursty_dup``, its first ``NARROW_HOT`` tables are the
hot set of ``warm_repeat``, and ``[NARROW_COLD, NARROW_TABLES)`` is the
pool of never-seen tables.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

CORPUS_SEED = 1007
NARROW_COLD = 2048    # cold_narrow / bursty_dup cycle; > the 512-entry LRU
NARROW_HOT = 1024     # warm_repeat hot set = the first 1024 of the cycle
NARROW_FRESH = 2048   # warm_repeat never-seen pool, after the cycle
NARROW_TABLES = NARROW_COLD + NARROW_FRESH
WIDE_TABLES = 576     # > the 512-entry plan and encoding LRUs
WIDE_SCHEMAS = ("films_crew", "rosters", "albums")  # 3 x 4 = 12 columns
WIDE_ROWS = 6
POOL_COLUMNS = 64
POOL_SHARE = 0.3


def wire_record(table) -> Dict:
    """The table as real traffic carries it: ids, headers and cells only."""
    return {
        "kind": "table",
        "table_id": table.table_id,
        "columns": [
            {"values": list(column.values), "header": column.header}
            for column in table.columns
        ],
    }


def gold_of(table) -> Dict:
    """The held-out labels of one table, JSON-shaped."""
    return {
        "types": [list(column.type_labels) for column in table.columns],
        "relations": {
            f"{i}-{j}": list(labels)
            for (i, j), labels in sorted(table.relation_labels.items())
        },
    }


def narrow_corpus(kb) -> List:
    """``NARROW_TABLES`` content-distinct WikiTable-style tables."""
    from repro.datasets import generate_wikitable_dataset
    from repro.encoding import table_fingerprint

    dataset = generate_wikitable_dataset(
        num_tables=NARROW_TABLES + 256, seed=CORPUS_SEED, kb=kb
    )
    seen, tables = set(), []
    for table in dataset.tables:
        fingerprint = table_fingerprint(table)
        if fingerprint not in seen:
            seen.add(fingerprint)
            tables.append(table)
    if len(tables) < NARROW_TABLES:
        raise RuntimeError(
            f"only {len(tables)} distinct narrow tables, need {NARROW_TABLES}"
        )
    return tables[:NARROW_TABLES]


def wide_corpus(kb) -> List:
    """``WIDE_TABLES`` 12-column tables stitched from three schemas.

    Each schema contributes its subject and attribute columns side by side
    (as ``bench_probe_planning.stitch_wide_table``), so the gold pairs are
    each schema's subject against its own attributes, offset-shifted.
    ``POOL_SHARE`` of the columns are then replaced verbatim by a column of
    the shared pool drawn for the same slot: the type label stays valid,
    and the column cache sees content it has seen in *other* tables.
    """
    from repro.datasets import Column, Table
    from repro.datasets.wikitable import SCHEMAS, generate_table

    by_name = {schema.name: schema for schema in SCHEMAS}
    rng = np.random.default_rng(CORPUS_SEED + 1)

    def stitch(index: int) -> Table:
        columns, relations = [], {}
        for name in WIDE_SCHEMAS:
            piece = generate_table(
                kb, by_name[name], rng, min_rows=WIDE_ROWS, max_rows=WIDE_ROWS,
                table_id=f"{name}-{index}",
            )
            offset = len(columns)
            for (i, j), labels in piece.relation_labels.items():
                relations[(i + offset, j + offset)] = list(labels)
            columns.extend(
                Column(values=list(c.values), type_labels=list(c.type_labels),
                       header=c.header)
                for c in piece.columns
            )
        return Table(columns=columns, table_id=f"wide-{index}",
                     relation_labels=relations)

    width = stitch(0).num_columns
    pool: List[List] = [[] for _ in range(width)]
    for k in range(POOL_COLUMNS):
        donor = stitch(-1 - k)
        pool[k % width].append(donor.columns[k % width])
    tables = []
    for index in range(WIDE_TABLES):
        table = stitch(index)
        for slot in np.flatnonzero(rng.random(width) < POOL_SHARE):
            choices = pool[slot]
            donor = choices[int(rng.integers(len(choices)))]
            table.columns[slot] = Column(
                values=list(donor.values),
                type_labels=list(table.columns[slot].type_labels),
                header=donor.header,
            )
        tables.append(table)
    return tables
