"""End-to-end tests for the command-line interface (repro.cli)."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.core import load_annotator, save_annotator
from repro.datasets import generate_viznet_dataset
from repro.io import load_dataset_jsonl, save_dataset_jsonl, write_table_csv


@pytest.fixture(scope="module")
def bundle_dir(shared_tiny_annotator, tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli-bundle")
    save_annotator(shared_tiny_annotator, directory)
    return directory


@pytest.fixture()
def sample_csv(shared_tiny_annotator, tmp_path):
    table = shared_tiny_annotator.trainer.dataset.tables[0]
    path = tmp_path / "sample.csv"
    write_table_csv(table, path)
    return path


def _documented_commands():
    """Every ``repro ...`` line inside a fenced block of the docs."""
    import shlex

    root = Path(__file__).resolve().parent.parent
    files = sorted((root / "docs").glob("*.md"))
    files += [root / "README.md", root / "benchmarks" / "README.md"]
    for path in files:
        fenced, pending = False, ""
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if line.lstrip().startswith("```"):
                fenced = not fenced
                continue
            text = pending + line.strip()
            pending = text[:-1] + " " if text.endswith("\\") else ""
            if fenced and not pending and text.startswith("repro "):
                yield pytest.param(
                    shlex.split(text, comments=True)[1:],
                    id=f"{path.name}:{number}",
                )


@pytest.mark.parametrize("argv", _documented_commands())
def test_documented_commands_parse(argv):
    build_parser().parse_args(argv)  # argparse exits on a line it refuses


class TestGenerate:
    @pytest.mark.parametrize("corpus", ["wikitable", "viznet"])
    def test_generates_jsonl(self, corpus, tmp_path, capsys):
        out = tmp_path / f"{corpus}.jsonl"
        code = main(["generate", corpus, "--num-tables", "8", "--out", str(out)])
        assert code == 0
        dataset = load_dataset_jsonl(out)
        assert len(dataset.tables) == 8
        assert "wrote 8 tables" in capsys.readouterr().out

    def test_generates_enterprise(self, tmp_path):
        out = tmp_path / "hr.jsonl"
        assert main(["generate", "enterprise", "--out", str(out)]) == 0
        dataset = load_dataset_jsonl(out)
        assert dataset.tables

    def test_deterministic_under_seed(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["generate", "viznet", "--num-tables", "5", "--seed", "3", "--out", str(a)])
        main(["generate", "viznet", "--num-tables", "5", "--seed", "3", "--out", str(b)])
        assert a.read_text() == b.read_text()


class TestTrainAnnotateEvaluate:
    @pytest.fixture(scope="class")
    def trained_bundle(self, tmp_path_factory):
        """Train a minuscule model through the CLI itself."""
        root = tmp_path_factory.mktemp("cli-train")
        corpus = root / "corpus.jsonl"
        dataset = generate_viznet_dataset(num_tables=30, seed=5)
        save_dataset_jsonl(dataset, corpus)
        bundle = root / "model"
        code = main([
            "train", str(corpus), "--out", str(bundle),
            "--epochs", "1", "--vocab-size", "600",
            "--hidden-dim", "32", "--layers", "1", "--heads", "2",
        ])
        assert code == 0
        return root, corpus, bundle

    def test_train_writes_bundle(self, trained_bundle):
        _, _, bundle = trained_bundle
        assert (bundle / "bundle.json").exists()
        assert (bundle / "weights.npz").exists()

    def test_annotate_text_output(self, trained_bundle, tmp_path, capsys):
        root, corpus, bundle = trained_bundle
        dataset = load_dataset_jsonl(corpus)
        csv_path = tmp_path / "t.csv"
        write_table_csv(dataset.tables[0], csv_path)
        assert main(["annotate", str(bundle), str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "predicted types" in out

    def test_annotate_json_output(self, trained_bundle, tmp_path, capsys):
        root, corpus, bundle = trained_bundle
        dataset = load_dataset_jsonl(corpus)
        csv_path = tmp_path / "t.csv"
        write_table_csv(dataset.tables[1], csv_path)
        assert main(["annotate", str(bundle), str(csv_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["columns"]) == dataset.tables[1].num_columns
        assert all(c["predicted_types"] for c in payload["columns"])

    def test_evaluate_prints_scores(self, trained_bundle, capsys):
        _, corpus, bundle = trained_bundle
        assert main(["evaluate", str(bundle), str(corpus)]) == 0
        out = capsys.readouterr().out
        assert "micro-F1" in out
        assert "type" in out

    def test_info(self, trained_bundle, capsys):
        _, _, bundle = trained_bundle
        assert main(["info", str(bundle)]) == 0
        out = capsys.readouterr().out
        assert "parameters" in out
        assert "type vocabulary" in out


@pytest.mark.smoke
class TestAnnotateJsonlBatch:
    """The serving mode: `repro annotate model corpus.jsonl --batch-size N`."""

    @pytest.fixture(scope="class")
    def corpus(self, shared_tiny_annotator, tmp_path_factory):
        from repro.datasets import TableDataset

        dataset = shared_tiny_annotator.trainer.dataset
        subset = TableDataset(
            tables=dataset.tables[:6],
            type_vocab=list(dataset.type_vocab),
            relation_vocab=list(dataset.relation_vocab),
            name="serve-me",
        )
        path = tmp_path_factory.mktemp("serve") / "corpus.jsonl"
        save_dataset_jsonl(subset, path)
        return path

    def test_batch_annotate_to_file(self, bundle_dir, corpus, tmp_path, capsys):
        out = tmp_path / "results.jsonl"
        code = main([
            "annotate", str(bundle_dir), str(corpus),
            "--batch-size", "4", "--out", str(out),
        ])
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 6
        for record in records:
            assert record["columns"]
            assert all(c["predicted_types"] for c in record["columns"])
            # default --top-k is 3
            assert all(len(c["type_scores"]) <= 3 for c in record["columns"])
        assert "annotated 6 tables" in capsys.readouterr().out

    def test_batch_annotate_to_stdout(self, bundle_dir, corpus, capsys):
        assert main(["annotate", str(bundle_dir), str(corpus)]) == 0
        captured = capsys.readouterr()
        records = [json.loads(line) for line in captured.out.splitlines()]
        assert len(records) == 6
        assert "annotated 6 tables" in captured.err

    def test_batch_annotate_with_embeddings(self, bundle_dir, corpus, tmp_path):
        out = tmp_path / "emb.jsonl"
        code = main([
            "annotate", str(bundle_dir), str(corpus),
            "--embeddings", "--out", str(out),
        ])
        assert code == 0
        record = json.loads(out.read_text().splitlines()[0])
        assert record["embedding_dim"] > 0
        assert len(record["columns"][0]["embedding"]) == record["embedding_dim"]

    def test_empty_corpus_errors(self, bundle_dir, tmp_path, capsys):
        from repro.datasets import TableDataset

        empty = tmp_path / "empty.jsonl"
        save_dataset_jsonl(TableDataset(tables=[], type_vocab=["t"]), empty)
        assert main(["annotate", str(bundle_dir), str(empty)]) == 1
        assert "no tables" in capsys.readouterr().err

    def test_csv_only_flags_rejected(self, bundle_dir, corpus, capsys):
        code = main([
            "annotate", str(bundle_dir), str(corpus),
            "--max-columns", "2", "--json",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "--json" in err and "--max-columns" in err
        assert "CSV input" in err

    def test_jsonl_only_flags_rejected_for_csv(self, bundle_dir, sample_csv,
                                               tmp_path, capsys):
        code = main([
            "annotate", str(bundle_dir), str(sample_csv),
            "--out", str(tmp_path / "r.jsonl"), "--embeddings",
            "--kernels", "fast",  # an engine flag, even spelling its default
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "--out" in err and "--embeddings" in err and "--kernels" in err
        assert ".jsonl serving mode" in err


@pytest.mark.smoke
class TestCacheDirAndServe:
    """PR-2 serving tiers through the CLI: --cache-dir and `repro serve`."""

    @pytest.fixture(scope="class")
    def corpus(self, shared_tiny_annotator, tmp_path_factory):
        from repro.datasets import TableDataset

        dataset = shared_tiny_annotator.trainer.dataset
        subset = TableDataset(
            tables=dataset.tables[:5],
            type_vocab=list(dataset.type_vocab),
            relation_vocab=list(dataset.relation_vocab),
            name="serve-queue",
        )
        path = tmp_path_factory.mktemp("serve-queue") / "corpus.jsonl"
        save_dataset_jsonl(subset, path)
        return path

    def test_cache_dir_warm_run_zero_passes(self, bundle_dir, corpus,
                                            tmp_path, capsys):
        cache_dir = tmp_path / "anno-cache"
        cold = tmp_path / "cold.jsonl"
        warm = tmp_path / "warm.jsonl"
        assert main([
            "annotate", str(bundle_dir), str(corpus),
            "--cache-dir", str(cache_dir), "--out", str(cold),
        ]) == 0
        assert "0 disk hits" in capsys.readouterr().out
        assert main([
            "annotate", str(bundle_dir), str(corpus),
            "--cache-dir", str(cache_dir), "--out", str(warm),
        ]) == 0
        out = capsys.readouterr().out
        assert "0 encoder passes" in out and "5 disk hits" in out
        assert cold.read_text() == warm.read_text()  # byte-identical records

    def test_cache_dir_rejected_for_csv(self, bundle_dir, sample_csv,
                                        tmp_path, capsys):
        code = main([
            "annotate", str(bundle_dir), str(sample_csv),
            "--cache-dir", str(tmp_path / "c"),
        ])
        assert code == 1
        assert "--cache-dir" in capsys.readouterr().err

    def test_serve_corpus_matches_annotate(self, bundle_dir, corpus,
                                           tmp_path, capsys):
        annotate_out = tmp_path / "annotate.jsonl"
        serve_out = tmp_path / "serve.jsonl"
        assert main([
            "annotate", str(bundle_dir), str(corpus),
            "--batch-size", "1", "--out", str(annotate_out),
        ]) == 0
        assert main([
            "serve", str(bundle_dir), str(corpus), "--out", str(serve_out),
        ]) == 0
        # Exact mode: queue-served records match single-table annotate runs.
        assert serve_out.read_text() == annotate_out.read_text()
        assert "served 5 tables" in capsys.readouterr().out

    def test_serve_with_cache_dir(self, bundle_dir, corpus, tmp_path, capsys):
        cache_dir = tmp_path / "serve-cache"
        assert main([
            "serve", str(bundle_dir), str(corpus),
            "--cache-dir", str(cache_dir),
            "--out", str(tmp_path / "a.jsonl"),
        ]) == 0
        capsys.readouterr()
        assert main([
            "serve", str(bundle_dir), str(corpus),
            "--cache-dir", str(cache_dir),
            "--out", str(tmp_path / "b.jsonl"),
        ]) == 0
        out = capsys.readouterr().out
        assert "0 encoder passes" in out and "5 disk hits" in out

    def test_serve_stdin_loop_mode(self, bundle_dir, corpus, capsys,
                                   monkeypatch):
        import io
        import sys as _sys

        monkeypatch.setattr(
            _sys, "stdin", io.StringIO(corpus.read_text())
        )
        assert main(["serve", str(bundle_dir), "-"]) == 0
        captured = capsys.readouterr()
        records = [json.loads(line) for line in captured.out.splitlines()]
        assert len(records) == 5
        assert all(r["columns"] for r in records)
        assert "served 5 tables" in captured.err

    def test_dtype_is_a_second_spelling_of_precision(
        self, bundle_dir, corpus, tmp_path, capsys
    ):
        """One float64 engine, one cache partition, however it is spelled
        — and never float32's."""
        cache_dir = tmp_path / "cache"

        def run(*flags):
            assert main([
                "annotate", str(bundle_dir), str(corpus),
                "--cache-dir", str(cache_dir),
                "--out", str(tmp_path / "out.jsonl"), *flags,
            ]) == 0
            return capsys.readouterr().out

        assert "0 disk hits" in run("--dtype", "float64")
        warm = run("--precision", "float64")
        assert "0 encoder passes" in warm and "5 disk hits" in warm
        assert "0 disk hits" in run()
        # Three runs, two partitions, one flat store: a cache directory
        # holds answers only, never a process's kernel verdicts.
        assert [p.name for p in cache_dir.iterdir() if p.is_dir()] == []

    def test_serve_empty_input_errors(self, bundle_dir, capsys, monkeypatch):
        import io
        import sys as _sys

        monkeypatch.setattr(_sys, "stdin", io.StringIO(""))
        assert main(["serve", str(bundle_dir), "-"]) == 1
        assert "no tables" in capsys.readouterr().err


@pytest.mark.smoke
class TestServeMultiModel:
    """The gateway CLI over one bundle: `repro serve BUNDLE [CORPUS]`,
    per-record routes (the model's name or fingerprint; anything else is
    an error answer) and cache layouts."""

    @pytest.fixture(scope="class")
    def second_bundle(self, tmp_path_factory):
        """A second, differently-weighted model over the same label space:
        its fingerprint is a route to other weights."""
        from repro.core import Doduo, DoduoConfig, DoduoTrainer
        from repro.datasets import generate_wikitable_dataset
        from repro.nn import TransformerConfig
        from repro.text import train_wordpiece

        dataset = generate_wikitable_dataset(num_tables=30, seed=17, max_rows=4)
        tokenizer = train_wordpiece(dataset.all_cell_text(), vocab_size=800)
        encoder_config = TransformerConfig(
            vocab_size=tokenizer.vocab_size,
            hidden_dim=32,
            num_layers=2,
            num_heads=2,
            ffn_dim=64,
            max_position=160,
            num_segments=8,
            dropout=0.0,
        )
        config = DoduoConfig(epochs=1, batch_size=8, learning_rate=1e-3,
                             seed=5, keep_best_checkpoint=False)
        trainer = DoduoTrainer(dataset, tokenizer, encoder_config, config)
        trainer.train()
        directory = tmp_path_factory.mktemp("cli-second-bundle")
        save_annotator(Doduo(trainer), directory)
        return directory

    @pytest.fixture(scope="class")
    def corpus(self, shared_tiny_annotator, tmp_path_factory):
        from repro.datasets import TableDataset

        dataset = shared_tiny_annotator.trainer.dataset
        subset = TableDataset(
            tables=dataset.tables[:4],
            type_vocab=list(dataset.type_vocab),
            relation_vocab=list(dataset.relation_vocab),
            name="serve-multi",
        )
        path = tmp_path_factory.mktemp("serve-multi") / "corpus.jsonl"
        save_dataset_jsonl(subset, path)
        return path

    @staticmethod
    def _routed(corpus, route):
        """The corpus's lines with every table record routed to ``route``."""
        lines = []
        for line in corpus.read_text().splitlines():
            payload = json.loads(line)
            if payload.get("kind") != "dataset":
                payload["model"] = route
            lines.append(json.dumps(payload))
        return lines

    def test_named_models_default_route_matches_single_model(
        self, bundle_dir, corpus, tmp_path, shared_tiny_annotator
    ):
        """Records naming the served model — by its name or its
        fingerprint — get the unrouted bytes."""
        single = tmp_path / "single.jsonl"
        assert main([
            "serve", str(bundle_dir), str(corpus), "--out", str(single),
        ]) == 0
        fingerprint = shared_tiny_annotator.trainer.annotation_fingerprint()
        for route in ("default", fingerprint):
            routed_corpus = tmp_path / "routed.jsonl"
            routed_corpus.write_text("\n".join(self._routed(corpus, route)) + "\n")
            routed = tmp_path / "routed-out.jsonl"
            assert main([
                "serve", str(bundle_dir), str(routed_corpus),
                "--out", str(routed),
            ]) == 0
            assert routed.read_text() == single.read_text()

    def test_stdin_records_route_by_model_field(
        self, bundle_dir, second_bundle, corpus, capsys, monkeypatch
    ):
        """Over stdin, a record routed to other weights (another bundle's
        fingerprint) or an unknown name gets an error answer and costs no
        encoder pass; the records around it are served."""
        import io
        import sys as _sys

        from repro.core import load_annotator as load

        other = load(second_bundle).trainer.annotation_fingerprint()
        lines = [
            line for line in corpus.read_text().splitlines()
            if json.loads(line).get("kind") != "dataset"
        ]
        refused = [
            self._routed(corpus, route)[1] for route in (other, "canary")
        ]

        def session(stdin_lines):
            monkeypatch.setattr(
                _sys, "stdin", io.StringIO("\n".join(stdin_lines) + "\n")
            )
            assert main(["serve", str(bundle_dir), "-"]) == 0
            captured = capsys.readouterr()
            return (
                [json.loads(line) for line in captured.out.splitlines()],
                captured.err,
            )

        plain, plain_err = session(lines)
        mixed, mixed_err = session(lines[:2] + refused + lines[2:])
        assert len(mixed) == len(plain) + 2
        for answer in mixed[2:4]:
            assert "no model registered" in answer["error"]
        assert mixed[:2] + mixed[4:] == plain
        assert "served 4 tables" in mixed_err
        # Same encoder passes with and without the refused records.
        passes = [
            err.split("dedup hits, ", 1)[1].split(" encoder passes", 1)[0]
            for err in (plain_err, mixed_err)
        ]
        assert passes[0] == passes[1]

    def test_corpus_records_route_by_model_field(
        self, bundle_dir, corpus, tmp_path, shared_tiny_annotator
    ):
        """Corpus mode honors per-record {"model": ...} routes exactly like
        stdin loop mode — same file, same model, same bytes."""
        fingerprint = shared_tiny_annotator.trainer.annotation_fingerprint()
        routed_corpus = tmp_path / "routed.jsonl"
        routed_corpus.write_text(
            "\n".join(self._routed(corpus, fingerprint)) + "\n"
        )
        routed_out = tmp_path / "routed-out.jsonl"
        plain_out = tmp_path / "plain-out.jsonl"
        assert main([
            "serve", str(bundle_dir), str(routed_corpus),
            "--out", str(routed_out),
        ]) == 0
        assert main([
            "serve", str(bundle_dir), str(corpus), "--out", str(plain_out),
        ]) == 0
        assert routed_out.read_text() == plain_out.read_text()

    def test_bad_model_spec_errors(self, corpus, tmp_path, capsys):
        assert main(["serve", str(tmp_path), str(corpus)]) == 1
        assert "not a model bundle directory" in capsys.readouterr().err

    def test_missing_model_errors(self, corpus, capsys):
        assert main(["serve", str(corpus)]) == 1
        err = capsys.readouterr().err
        assert "no model" in err or "bundle" in err

    def test_missing_corpus_errors_accurately(self, bundle_dir, capsys):
        # `repro serve model/` — the user passed a bundle, not a corpus;
        # the error must say what is actually missing.
        assert main(["serve", str(bundle_dir)]) == 1
        assert "no corpus" in capsys.readouterr().err

    def test_flat_cache_layout_stays_warm_under_serve(
        self, bundle_dir, corpus, tmp_path, capsys
    ):
        """A cache directory populated by `repro annotate --cache-dir`
        (flat segment files) must keep serving hits when the same
        directory is handed to single-model `repro serve`."""
        cache_dir = tmp_path / "flat-cache"
        assert main([
            "annotate", str(bundle_dir), str(corpus),
            "--cache-dir", str(cache_dir), "--out", str(tmp_path / "a.jsonl"),
        ]) == 0
        capsys.readouterr()
        assert main([
            "serve", str(bundle_dir), str(corpus),
            "--cache-dir", str(cache_dir), "--out", str(tmp_path / "b.jsonl"),
        ]) == 0
        out = capsys.readouterr().out
        assert "0 encoder passes" in out and "4 disk hits" in out

    def test_serve_filled_directory_stays_warm_under_annotate(
        self, bundle_dir, corpus, tmp_path, capsys
    ):
        """The other direction: `repro serve` roots a new directory's store
        in its registry's per-fingerprint sub-directory, and `repro
        annotate` must find it there — not recompute everything into a
        second, flat copy that the next `serve` would then prefer."""
        cache_dir = tmp_path / "served-cache"
        assert main([
            "serve", str(bundle_dir), str(corpus),
            "--cache-dir", str(cache_dir), "--out", str(tmp_path / "a.jsonl"),
        ]) == 0
        capsys.readouterr()
        assert main([
            "annotate", str(bundle_dir), str(corpus),
            "--cache-dir", str(cache_dir), "--out", str(tmp_path / "b.jsonl"),
        ]) == 0
        out = capsys.readouterr().out
        assert "0 encoder passes" in out and "4 disk hits" in out
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
        holders = {path.parent for path in cache_dir.rglob("segment-*")}
        assert len(holders) == 1 and holders != {cache_dir}

    @pytest.mark.parametrize("producer", ["annotate", "serve"])
    def test_plain_segment_directories_stay_warm(
        self, producer, bundle_dir, corpus, tmp_path, capsys
    ):
        """Directories as the releases with a separate single-writer store
        left them — plain ``segment-NNNNNN.jsonl`` plus a ``writer.lock``,
        flat (`annotate`) or per-fingerprint (`serve`) — are served 100 %
        warm with no operator step."""
        cache_dir = tmp_path / "old-cache"
        assert main([
            producer, str(bundle_dir), str(corpus),
            "--cache-dir", str(cache_dir), "--out", str(tmp_path / "a.jsonl"),
        ]) == 0
        segments = list(cache_dir.rglob("segment-*.jsonl"))
        assert len(segments) == 1
        flat = segments[0].parent == cache_dir
        assert flat == (producer == "annotate")
        segments[0].rename(segments[0].with_name("segment-000000.jsonl"))
        for lock in cache_dir.rglob("writer-*.lock"):
            lock.rename(lock.with_name("writer.lock"))
        capsys.readouterr()
        assert main([
            "serve", str(bundle_dir), str(corpus),
            "--cache-dir", str(cache_dir), "--out", str(tmp_path / "b.jsonl"),
        ]) == 0
        out = capsys.readouterr().out
        assert "0 encoder passes" in out and "4 disk hits" in out
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_compacted_flat_cache_stays_warm_under_serve(
        self, bundle_dir, corpus, tmp_path, capsys
    ):
        """Regression: a flat directory that `repro cache compact` left
        with only a generation (no ``segment-*`` file) was taken for
        empty and served cold out of a new fingerprint subdirectory."""
        cache_dir = tmp_path / "flat-cache"
        assert main([
            "annotate", str(bundle_dir), str(corpus),
            "--cache-dir", str(cache_dir), "--out", str(tmp_path / "a.jsonl"),
        ]) == 0
        assert main(["cache", "compact", str(cache_dir)]) == 0
        assert not list(cache_dir.glob("segment-*.jsonl"))
        assert (cache_dir / "fabric-index.json").exists()
        capsys.readouterr()
        assert main([
            "serve", str(bundle_dir), str(corpus),
            "--cache-dir", str(cache_dir), "--out", str(tmp_path / "b.jsonl"),
        ]) == 0
        out = capsys.readouterr().out
        assert "0 encoder passes" in out and "4 disk hits" in out
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
        # Nothing was served out of (or written to) a fingerprint subdirectory.
        assert [p.name for p in cache_dir.iterdir() if p.is_dir()] == []

    def test_loop_mode_survives_malformed_records(self, bundle_dir, corpus,
                                                  capsys, monkeypatch):
        """Non-JSON lines and invalid tables get error records; the
        server keeps answering subsequent lines."""
        import io
        import sys as _sys

        good = corpus.read_text().splitlines()[1]
        stdin = "\n".join([
            "this is not json",
            json.dumps({"table_id": "empty", "columns": []}),
            good,
        ]) + "\n"
        monkeypatch.setattr(_sys, "stdin", io.StringIO(stdin))
        assert main(["serve", str(bundle_dir), "-"]) == 0
        captured = capsys.readouterr()
        records = [json.loads(line) for line in captured.out.splitlines()]
        assert len(records) == 3
        assert "error" in records[0] and "error" in records[1]
        assert records[2]["columns"]
        assert "served 1 tables" in captured.err

    def test_unknown_stdin_route_answered_not_fatal(self, bundle_dir, corpus,
                                                    capsys, monkeypatch):
        """A long-running loop server must survive a record naming an
        unknown model: that record gets an error line, the next records
        keep being served."""
        import io
        import sys as _sys

        lines = corpus.read_text().splitlines()
        bad = json.loads(lines[1])
        bad["model"] = "nope"
        stdin = "\n".join([json.dumps(bad), lines[2]]) + "\n"
        monkeypatch.setattr(_sys, "stdin", io.StringIO(stdin))
        assert main(["serve", str(bundle_dir), "-"]) == 0
        captured = capsys.readouterr()
        records = [json.loads(line) for line in captured.out.splitlines()]
        assert len(records) == 2
        assert "no model registered" in records[0]["error"]
        assert records[1]["columns"]  # the good record was still served
        assert "served 1 tables" in captured.err

    def test_only_bad_routes_is_an_error_exit(self, bundle_dir, corpus,
                                              capsys, monkeypatch):
        import io
        import sys as _sys

        payload = json.loads(corpus.read_text().splitlines()[1])
        payload["model"] = "nope"
        monkeypatch.setattr(
            _sys, "stdin", io.StringIO(json.dumps(payload) + "\n")
        )
        assert main(["serve", str(bundle_dir), "-"]) == 1
        captured = capsys.readouterr()
        assert "no model registered" in captured.out  # the error record
        assert "no tables" in captured.err


@pytest.mark.smoke
class TestServeProtocolFeatures:
    """PR-5 protocol features on the CLI transports: the "id" correlation
    echo, loop-mode admin records, and graceful interrupt draining."""

    @pytest.fixture(scope="class")
    def corpus(self, shared_tiny_annotator, tmp_path_factory):
        from repro.datasets import TableDataset

        dataset = shared_tiny_annotator.trainer.dataset
        subset = TableDataset(
            tables=dataset.tables[:3],
            type_vocab=list(dataset.type_vocab),
            relation_vocab=list(dataset.relation_vocab),
            name="serve-protocol",
        )
        path = tmp_path_factory.mktemp("serve-protocol") / "corpus.jsonl"
        save_dataset_jsonl(subset, path)
        return path

    def test_loop_mode_echoes_ids_in_answers_and_errors(
        self, bundle_dir, corpus, capsys, monkeypatch
    ):
        import io
        import sys as _sys

        table_lines = corpus.read_text().splitlines()[1:]
        lines = []
        for i, line in enumerate(table_lines):
            payload = json.loads(line)
            payload["id"] = f"req-{i}"
            lines.append(json.dumps(payload))
        bad = json.loads(table_lines[0])
        bad["id"] = "bad-route"
        bad["model"] = "nope"
        lines.append(json.dumps(bad))
        monkeypatch.setattr(_sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
        assert main(["serve", str(bundle_dir), "-"]) == 0
        records = [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]
        assert [r["id"] for r in records[:-1]] == [
            f"req-{i}" for i in range(len(table_lines))
        ]
        # The id is the LAST key of every answer, errors included.
        assert all(list(r)[-1] == "id" for r in records)
        assert records[-1]["id"] == "bad-route"
        assert "no model registered" in records[-1]["error"]

    def test_records_without_id_stay_byte_identical(
        self, bundle_dir, corpus, capsys, monkeypatch
    ):
        """The correlation echo is strictly additive: the same corpus
        without ids serves the exact bytes it did before the feature."""
        import io
        import sys as _sys

        monkeypatch.setattr(_sys, "stdin", io.StringIO(corpus.read_text()))
        assert main(["serve", str(bundle_dir), "-"]) == 0
        plain = capsys.readouterr().out
        assert '"id"' not in plain

    def test_corpus_mode_echoes_ids(self, bundle_dir, corpus, tmp_path):
        tagged = tmp_path / "tagged.jsonl"
        lines = []
        for line in corpus.read_text().splitlines():
            payload = json.loads(line)
            if payload.get("kind") != "dataset":
                payload["id"] = {"client": payload["table_id"]}
            lines.append(json.dumps(payload))
        tagged.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out.jsonl"
        assert main([
            "serve", str(bundle_dir), str(tagged), "--out", str(out),
        ]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert all(r["id"] == {"client": r["table_id"]} for r in records)

    def test_loop_mode_admin_stats_health_and_shutdown(
        self, bundle_dir, corpus, capsys, monkeypatch
    ):
        """The stdin loop carries the same admin plane as the socket:
        introspection mid-stream, and {"op": "shutdown"} ends the loop
        before later lines are read."""
        import io
        import sys as _sys

        good = corpus.read_text().splitlines()[1]
        lines = [
            good,
            json.dumps({"op": "health", "id": 1}),
            json.dumps({"op": "stats"}),
            json.dumps({"op": "shutdown"}),
            good,  # after shutdown: must never be served
        ]
        monkeypatch.setattr(_sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
        assert main(["serve", str(bundle_dir), "-"]) == 0
        captured = capsys.readouterr()
        records = [json.loads(line) for line in captured.out.splitlines()]
        assert len(records) == 4  # table + health + stats + shutdown ack
        assert records[0]["columns"]
        assert records[1] == {
            "ok": True, "op": "health", "models": ["default"],
            "live": ["default"], "default": "default", "id": 1,
        }
        assert records[2]["gateway"]["completed"] == 1
        assert records[3] == {"ok": True, "op": "shutdown"}
        assert "served 1 tables" in captured.err

    def test_loop_mode_hot_register_and_unregister(
        self, bundle_dir, corpus, capsys, monkeypatch
    ):
        """The served weights are fixed at start: register / repoint /
        unregister records get error answers, and the loop keeps serving
        the one model."""
        import io
        import sys as _sys

        good = corpus.read_text().splitlines()[1]
        lines = []
        for op in ("register", "repoint", "unregister"):
            lines.append(json.dumps({"op": op, "name": "default",
                                     "path": str(bundle_dir), "id": op}))
            lines.append(good)
        monkeypatch.setattr(_sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
        assert main(["serve", str(bundle_dir), "-"]) == 0
        captured = capsys.readouterr()
        records = [json.loads(line) for line in captured.out.splitlines()]
        assert len(records) == 6
        for refused, op in zip(records[0::2], ("register", "repoint", "unregister")):
            assert "unknown admin op" in refused["error"]
            assert refused["id"] == op
        assert all(answer["columns"] for answer in records[1::2])
        assert "served 3 tables" in captured.err

    def test_all_failed_admin_session_exits_1(
        self, bundle_dir, capsys, monkeypatch
    ):
        """Failed admin ops are answers, not work: a session producing
        only admin errors exits 1 like an all-errors table session."""
        import io
        import sys as _sys

        monkeypatch.setattr(
            _sys, "stdin",
            io.StringIO(json.dumps({"op": "register"}) + "\n"),
        )
        assert main(["serve", str(bundle_dir), "-"]) == 1
        captured = capsys.readouterr()
        assert "unknown admin op" in captured.out
        assert "no tables" in captured.err

    def test_admin_only_loop_session_exits_cleanly(
        self, bundle_dir, capsys, monkeypatch
    ):
        """A session that only introspects (or just sends a clean remote
        shutdown) did real work: exit 0, not 'no tables were served'."""
        import io
        import sys as _sys

        lines = [json.dumps({"op": "stats"}), json.dumps({"op": "shutdown"})]
        monkeypatch.setattr(_sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
        assert main(["serve", str(bundle_dir), "-"]) == 0
        captured = capsys.readouterr()
        records = [json.loads(line) for line in captured.out.splitlines()]
        assert records[0]["ok"] and records[1] == {"ok": True, "op": "shutdown"}
        assert "no tables" not in captured.err

    def test_listen_port_out_of_range_errors(self, bundle_dir, capsys):
        assert main([
            "serve", str(bundle_dir), "--listen", "127.0.0.1:99999",
        ]) == 1
        assert "0-65535" in capsys.readouterr().err

    def test_loop_mode_no_admin_refuses_ops(
        self, bundle_dir, corpus, capsys, monkeypatch
    ):
        """--no-admin disables the admin plane on the stdin loop too: ops
        get error answers, tables keep being served, and a piped
        {"op": "shutdown"} cannot stop the server."""
        import io
        import sys as _sys

        good = corpus.read_text().splitlines()[1]
        lines = [
            json.dumps({"op": "stats"}),
            json.dumps({"op": "shutdown"}),
            good,  # must still be served: shutdown was refused
        ]
        monkeypatch.setattr(_sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
        assert main(["serve", str(bundle_dir), "-", "--no-admin"]) == 0
        captured = capsys.readouterr()
        records = [json.loads(line) for line in captured.out.splitlines()]
        assert len(records) == 3
        assert "not allowed" in records[0]["error"]
        assert "not allowed" in records[1]["error"]
        assert records[2]["columns"]
        assert "served 1 tables" in captured.err

    def test_interrupt_drains_and_flushes_cache(
        self, bundle_dir, corpus, tmp_path, capsys, monkeypatch
    ):
        """SIGINT/SIGTERM land as KeyboardInterrupt at a record boundary:
        the gateway drains, the DiskCache is flushed and closed, the exit
        is clean (code 0) — not a mid-batch death."""
        import sys as _sys

        lines = corpus.read_text().splitlines()

        class InterruptingStdin:
            """One good record, then the signal arrives."""

            def __iter__(self):
                yield lines[1] + "\n"
                raise KeyboardInterrupt

        cache_dir = tmp_path / "cache"
        monkeypatch.setattr(_sys, "stdin", InterruptingStdin())
        assert main([
            "serve", str(bundle_dir), "-", "--cache-dir", str(cache_dir),
        ]) == 0
        captured = capsys.readouterr()
        records = [json.loads(line) for line in captured.out.splitlines()]
        assert len(records) == 1 and records[0]["columns"]
        assert "interrupted" in captured.err
        assert "served 1 tables" in captured.err
        # The drained annotation reached the persistent tier: a fresh
        # serve over the same cache answers with zero encoder passes.
        monkeypatch.setattr(
            _sys, "stdin", __import__("io").StringIO(lines[1] + "\n")
        )
        assert main([
            "serve", str(bundle_dir), "-", "--cache-dir", str(cache_dir),
        ]) == 0
        assert "0 encoder passes" in capsys.readouterr().err

    def test_corpus_mode_interrupt_exits_130_after_draining(
        self, bundle_dir, corpus, tmp_path, capsys, monkeypatch
    ):
        """Batch (corpus) serving interrupted mid-stream drains and
        flushes like loop mode but exits 130: partial output must never
        read as success to a pipeline gating on the exit status."""
        import repro.cli as cli_module

        real_iter = cli_module._iter_corpus_records

        def interrupting_iter(path, options):
            iterator = real_iter(path, options)
            yield next(iterator)
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_module, "_iter_corpus_records", interrupting_iter)
        out = tmp_path / "partial.jsonl"
        cache_dir = tmp_path / "cache"
        code = main([
            "serve", str(bundle_dir), str(corpus), "--out", str(out),
            "--cache-dir", str(cache_dir),
        ])
        assert code == 130
        assert "interrupted" in capsys.readouterr().out
        # The in-flight request was drained INTO THE CACHE on the way out
        # (output completeness is what the 130 exit code disclaims).
        from repro.serving import DiskCache

        subdirs = [p for p in cache_dir.iterdir() if p.is_dir()]
        assert len(subdirs) == 1
        assert len(DiskCache(subdirs[0])) == 1

    def test_loop_mode_survives_deeply_nested_line(
        self, bundle_dir, corpus, capsys, monkeypatch
    ):
        """A pathologically nested JSON line is answered with an error
        record; the loop keeps serving (RecursionError must not escape)."""
        import io
        import sys as _sys

        good = corpus.read_text().splitlines()[1]
        stdin = "[" * 100000 + "\n" + good + "\n"
        monkeypatch.setattr(_sys, "stdin", io.StringIO(stdin))
        assert main(["serve", str(bundle_dir), "-"]) == 0
        captured = capsys.readouterr()
        records = [json.loads(line) for line in captured.out.splitlines()]
        assert "nested too deeply" in records[0]["error"]
        assert records[1]["columns"]
        assert "served 1 tables" in captured.err

    def test_graceful_signal_handlers_install_and_restore(self):
        """Inside the scope SIGINT/SIGTERM raise KeyboardInterrupt; the
        previous handlers come back afterwards."""
        import signal

        from repro.cli import _graceful_signals

        before = signal.getsignal(signal.SIGTERM)
        with _graceful_signals():
            handler = signal.getsignal(signal.SIGTERM)
            assert handler is not before
            with pytest.raises(KeyboardInterrupt):
                handler(signal.SIGTERM, None)
        assert signal.getsignal(signal.SIGTERM) is before


class TestAnnotateWideAndErrors:
    def test_wide_annotation_path(self, bundle_dir, sample_csv, capsys):
        code = main([
            "annotate", str(bundle_dir), str(sample_csv),
            "--max-columns", "1",
        ])
        assert code == 0
        assert "predicted types" in capsys.readouterr().out

    def test_wide_similarity_strategy(self, bundle_dir, sample_csv, capsys):
        code = main([
            "annotate", str(bundle_dir), str(sample_csv),
            "--max-columns", "2", "--wide-strategy", "similarity",
        ])
        assert code == 0
        assert "predicted types" in capsys.readouterr().out

    def test_annotate_no_header_csv(self, bundle_dir, shared_tiny_annotator,
                                     tmp_path, capsys):
        from repro.io import write_table_csv

        table = shared_tiny_annotator.trainer.dataset.tables[1]
        path = tmp_path / "raw.csv"
        write_table_csv(table, path, include_header=False)
        assert main(["annotate", str(bundle_dir), str(path), "--no-header"]) == 0

    def test_missing_model_errors(self, sample_csv, tmp_path, capsys):
        code = main(["annotate", str(tmp_path), str(sample_csv)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_table_errors(self, bundle_dir, tmp_path, capsys):
        code = main(["annotate", str(bundle_dir), str(tmp_path / "nope.csv")])
        assert code == 1

    def test_empty_dataset_train_errors(self, tmp_path, capsys):
        corpus = tmp_path / "empty.jsonl"
        corpus.write_text(json.dumps({
            "kind": "dataset", "version": 1, "name": "x",
            "type_vocab": ["a"], "relation_vocab": [],
        }) + "\n")
        code = main(["train", str(corpus), "--out", str(tmp_path / "m")])
        assert code == 1
        assert "no tables" in capsys.readouterr().err


class TestParser:
    def test_cache_compact(self, tmp_path, capsys):
        from repro.serving import DiskCache

        cache_dir = tmp_path / "cache"
        with DiskCache(cache_dir) as cache:
            for i in range(4):
                cache.put(f"k{i}", {"i": i})
        assert main(["cache", "compact", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "4 live records" in out
        assert DiskCache(cache_dir).get("k2") == {"i": 2}

    def test_cache_compact_with_max_bytes(self, tmp_path, capsys):
        from repro.serving import DiskCache

        cache_dir = tmp_path / "cache"
        with DiskCache(cache_dir, max_segment_records=1) as cache:
            for i in range(6):
                cache.put(f"k{i}", {"i": i})
            total = cache.total_bytes
        code = main(
            ["cache", "compact", str(cache_dir), "--max-bytes", str(total // 2)]
        )
        assert code == 0
        assert "evicted" in capsys.readouterr().out
        survivor = DiskCache(cache_dir)
        assert len(survivor) < 6
        assert survivor.get("k5") == {"i": 5}

    def test_cache_compact_missing_directory(self, tmp_path, capsys):
        code = main(["cache", "compact", str(tmp_path / "nope")])
        assert code == 1
        assert "not a directory" in capsys.readouterr().err

    def test_cache_compact_dry_run_mutates_nothing(self, tmp_path, capsys):
        from repro.serving import DiskCache

        cache_dir = tmp_path / "cache"
        with DiskCache(cache_dir, max_segment_records=2) as cache:
            for i in range(6):
                cache.put(f"k{i}", {"i": i})
        before = sorted((p.name, p.stat().st_size)
                        for p in cache_dir.glob("*.jsonl"))
        assert main(["cache", "compact", str(cache_dir), "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "would compact" in out
        assert "6 live records" in out
        assert "reclaimable" in out
        after = sorted((p.name, p.stat().st_size)
                       for p in cache_dir.glob("*.jsonl"))
        assert before == after

    def test_cache_compact_works_around_live_writer(self, tmp_path, capsys):
        from repro.serving import DiskCache

        cache_dir = tmp_path / "cache"
        live = DiskCache(cache_dir)  # holds its writer lock
        try:
            live.put("k", {"v": 1})
            assert main(["cache", "compact", str(cache_dir)]) == 0
            out = capsys.readouterr().out
            assert "0 live records" in out
            assert "1 live-writer segments left in place" in out
            # The live writer's data was not touched.
            assert list(cache_dir.glob("segment-*.jsonl"))
            assert live.get("k") == {"v": 1}
        finally:
            live.close()
        # Writer gone: the same command now merges its segment.
        assert main(["cache", "compact", str(cache_dir)]) == 0
        assert "1 live records" in capsys.readouterr().out
        assert not list(cache_dir.glob("segment-*.jsonl"))

    def test_cache_compact_skips_directory_being_compacted(
        self, tmp_path, capsys
    ):
        from repro.serving import DiskCache, FileLock

        cache_dir = tmp_path / "cache"
        with DiskCache(cache_dir) as cache:
            cache.put("k", {"v": 1})
        with FileLock(cache_dir / "compact.lock"):
            assert main(["cache", "compact", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "skipped" in out
        assert "another compaction is running" in out
        assert list(cache_dir.glob("segment-*.jsonl"))

    def test_cache_compact_fabric_directory(self, tmp_path, capsys):
        from repro.serving import FabricCache

        cache_dir = tmp_path / "cache"
        live = FabricCache(cache_dir, writer="live")
        try:
            live.put("live-k", {"v": 1})
            with FabricCache(cache_dir, writer="done") as done:
                done.put("done-k", {"v": 2})
            # A live fabric writer does not block compaction — its
            # segments are skipped, the quiescent writer's merge.
            assert main(["cache", "compact", str(cache_dir)]) == 0
            out = capsys.readouterr().out
            assert "compacted" in out
            assert "live-writer segments left in place" in out
        finally:
            live.close()
        with FabricCache(cache_dir, writer="check") as check:
            assert check.get("live-k") == {"v": 1}
            assert check.get("done-k") == {"v": 2}

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "viznet"])

    def test_unknown_corpus_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["generate", "imagenet", "--out", "x"])
