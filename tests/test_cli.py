"""Exit codes and output of the four subcommands, driven through click's
test runner against real files in temporary directories."""

import gc
import json

import pytest
import yaml
from click.testing import CliRunner

from memstream import cli, gateway, records, text
from memstream.cli import main
from memstream.stores.base import _rrf_weights


@pytest.fixture()
def runner():
    return CliRunner()


def make_stream(runner_env, tmp_path, name="stream.jsonl", **synth_args):
    args = ["synth", "--out", str(tmp_path / name),
            "--facts", "10", "--rounds", "2", "--queries-per-round", "2"]
    for key, value in synth_args.items():
        args.extend([f"--{key.replace('_', '-')}", str(value)])
    result = runner_env.invoke(main, args)
    assert result.exit_code == 0, result.output
    return tmp_path / name


def make_config(tmp_path, stream, out_name="results", **extra):
    cfg = {
        "store": {"backend": "fifo_queue"},
        "checkpoint": {"fraction": 0.5},
        "gateway": {"embed_dim": 32},
        "dataset": str(stream),
        "output_dir": str(tmp_path / out_name),
    }
    cfg.update(extra)
    path = tmp_path / "experiment.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


# ----------------------------------------------------------------------
# synth
# ----------------------------------------------------------------------

def test_synth_writes_stream_and_key(runner, tmp_path):
    out = tmp_path / "w.jsonl"
    result = runner.invoke(main, ["synth", "--out", str(out), "--facts", "6",
                                  "--rounds", "2", "--queries-per-round", "2"])
    assert result.exit_code == 0
    assert "wrote" in result.output
    assert out.exists()
    key = json.loads((tmp_path / "w.jsonl.key.json").read_text())
    assert set(key) == {"r1q0", "r1q1", "r2q0", "r2q1"}


def test_synth_same_seed_same_bytes(runner, tmp_path):
    a = make_stream(runner, tmp_path, "a.jsonl", seed=5)
    b = make_stream(runner, tmp_path, "b.jsonl", seed=5)
    assert a.read_bytes() == b.read_bytes()
    assert ((tmp_path / "a.jsonl.key.json").read_text()
            == (tmp_path / "b.jsonl.key.json").read_text())


def test_synth_rejects_bad_spec(runner, tmp_path):
    result = runner.invoke(main, ["synth", "--out", str(tmp_path / "x.jsonl"),
                                  "--update-rate", "1.5"])
    assert result.exit_code == 2
    assert "invalid spec" in result.output


def test_synth_rejects_malformed_depths(runner, tmp_path):
    result = runner.invoke(main, ["synth", "--out", str(tmp_path / "x.jsonl"),
                                  "--depths", "3,zebra"])
    assert result.exit_code == 2
    assert "--depths" in result.output


def test_synth_rejects_negative_depth(runner, tmp_path):
    # a negative distance points past the round's last insert
    result = runner.invoke(main, ["synth", "--out", str(tmp_path / "x.jsonl"),
                                  "--depths=-1"])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.output.startswith("invalid spec: needle_depths")
    assert not (tmp_path / "x.jsonl").exists()


@pytest.mark.parametrize("blocked", ["stream", "key"])
def test_synth_unwritable_output_is_io_error(runner, tmp_path, blocked):
    out = tmp_path / "s.jsonl"
    if blocked == "stream":
        out = tmp_path / "missing_dir" / "s.jsonl"
    else:
        (tmp_path / "s.jsonl.key.json").mkdir()  # a directory where the key goes
    result = runner.invoke(main, ["synth", "--out", str(out), "--facts", "6"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.output.startswith("io error: ")


# ----------------------------------------------------------------------
# validate
# ----------------------------------------------------------------------

def test_validate_ok_stream(runner, tmp_path):
    stream = make_stream(runner, tmp_path)
    result = runner.invoke(main, ["validate", str(stream)])
    assert result.exit_code == 0
    assert result.output.startswith("ok: ")


def test_validate_reports_violations(runner, tmp_path):
    stream = make_stream(runner, tmp_path)
    lines = stream.read_text().splitlines()
    stream.write_text("\n".join(reversed(lines)) + "\n")
    result = runner.invoke(main, ["validate", str(stream)])
    assert result.exit_code == 2
    assert "violation" in result.output
    assert "[" in result.output and "] index " in result.output


def test_validate_missing_file_is_io_error(runner, tmp_path):
    result = runner.invoke(main, ["validate", str(tmp_path / "nope.jsonl")])
    assert result.exit_code == 1
    assert "io error" in result.output


def test_validate_garbage_file(runner, tmp_path):
    path = tmp_path / "garbage.jsonl"
    path.write_text("{not json\n")
    result = runner.invoke(main, ["validate", str(path)])
    assert result.exit_code == 2
    assert "invalid stream" in result.output


@pytest.mark.parametrize("key, value", [("context", 5), ("query", ["what"]),
                                        ("gold_answer", 5), ("session_id", 7)])
def test_validate_names_the_line_of_a_non_string_text_field(runner, tmp_path, key, value):
    stream = make_stream(runner, tmp_path)
    lines = stream.read_text().splitlines()
    kind = "insert" if key in ("context", "session_id") else "retrieve"
    at = next(i for i, line in enumerate(lines) if json.loads(line)["kind"] == kind)
    row = json.loads(lines[at])
    row[key] = value
    lines[at] = json.dumps(row)
    stream.write_text("\n".join(lines) + "\n")
    result = runner.invoke(main, ["validate", str(stream)])
    assert result.exit_code == 2, result.output
    assert f"invalid stream: line {at + 1}: bad {kind} payload: {key} must be a string" \
        in result.output


def test_validate_names_the_line_of_a_fractional_timestamp(runner, tmp_path):
    # truncated to 2, the third line's ts once read as a ts_order violation
    stream = make_stream(runner, tmp_path)
    lines = stream.read_text().splitlines()
    row = json.loads(lines[2])
    row["ts_us"] = 2.5
    lines[2] = json.dumps(row)
    stream.write_text("\n".join(lines) + "\n")
    result = runner.invoke(main, ["validate", str(stream)])
    assert result.exit_code == 2, result.output
    assert "invalid stream: line 3: ts_us must be an integer, got float" in result.output


def check_timestamp_fails_validate_and_run(runner, tmp_path, ts):
    """A stream whose second and third requests sit at ``ts`` and ``ts + 1``
    fails ``validate`` and ``run`` with exit 2, naming the range."""
    rows = [
        {"seq": 0, "ts_us": 0, "kind": "insert", "session_id": "s", "turn_index": 0,
         "context": "alice lives in paris"},
        {"seq": 1, "ts_us": ts, "kind": "insert", "session_id": "s", "turn_index": 1,
         "context": "bob eats pears"},
        {"seq": 2, "ts_us": ts + 1, "kind": "retrieve", "session_id": "s",
         "query": "where does alice live", "gold_answer": "paris", "category": "single_hop",
         "query_id": "q0"},
    ]
    stream = tmp_path / "stream.jsonl"
    stream.write_text("".join(json.dumps(row) + "\n" for row in rows))
    result = runner.invoke(main, ["validate", str(stream)])
    assert result.exit_code == 2, result.output
    assert f"[ts_range] index 1: ts {ts} outside" in result.output
    config = make_config(tmp_path, stream, store={"backend": "inverted_vector"})
    result = runner.invoke(main, ["run", "-c", str(config)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "[ts_range] index 1" in result.output
    assert not (tmp_path / "results").exists()


def test_a_timestamp_outside_int64_fails_validate_and_run(runner, tmp_path):
    # once accepted by validate, it then broke the run on the stores' int64 column
    check_timestamp_fails_validate_and_run(runner, tmp_path, 2 ** 63)


def test_a_timestamp_past_year_9999_fails_validate_and_run(runner, tmp_path):
    # inside int64, but once accepted by validate, the run failed to print
    # its ISO stamp on a bundle line
    check_timestamp_fails_validate_and_run(runner, tmp_path, 253402300800000000)


def test_validate_reads_a_byte_order_mark_like_its_absence(runner, tmp_path):
    stream = make_stream(runner, tmp_path)
    bom = tmp_path / "bom.jsonl"
    bom.write_bytes(b"\xef\xbb\xbf" + stream.read_bytes())
    plain = runner.invoke(main, ["validate", str(stream)])
    marked = runner.invoke(main, ["validate", str(bom)])
    assert (marked.exit_code, marked.output) == (plain.exit_code, plain.output)
    assert plain.output.startswith("ok: ")


def test_a_line_that_is_not_utf8_fails_validate_and_run_naming_it(runner, tmp_path):
    stream = make_stream(runner, tmp_path)
    lines = stream.read_bytes().splitlines(keepends=True)
    lines[2] = lines[2].replace(b'"context": "', b'"context": "\xe9', 1)
    assert b"\xe9" in lines[2]
    stream.write_bytes(b"".join(lines))
    result = runner.invoke(main, ["validate", str(stream)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "invalid stream: line 3: not valid UTF-8: " in result.output
    config = make_config(tmp_path, stream)
    result = runner.invoke(main, ["run", "-c", str(config)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"dataset error ({stream}): line 3: not valid UTF-8: " in result.output


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------

def test_run_single_experiment(runner, tmp_path):
    stream = make_stream(runner, tmp_path)
    config = make_config(tmp_path, stream)
    result = runner.invoke(main, ["run", "-c", str(config)])
    assert result.exit_code == 0, result.output
    assert "base: complete ->" in result.output
    out = tmp_path / "results"
    for name in ("checkpoints.jsonl", "queries.jsonl", "summary.json",
                 "actions.log"):
        assert (out / name).exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "complete"
    assert summary["counts"]["inserts"] == 10


def test_run_refuses_overwrite_without_force(runner, tmp_path):
    stream = make_stream(runner, tmp_path)
    config = make_config(tmp_path, stream)
    assert runner.invoke(main, ["run", "-c", str(config)]).exit_code == 0
    rerun = runner.invoke(main, ["run", "-c", str(config)])
    assert rerun.exit_code == 2
    assert "use --force" in rerun.output
    forced = runner.invoke(main, ["run", "-c", str(config), "--force"])
    assert forced.exit_code == 0


def test_run_missing_config(runner, tmp_path):
    result = runner.invoke(main, ["run", "-c", str(tmp_path / "absent.yaml")])
    assert result.exit_code == 2
    assert "config error" in result.output


def test_run_missing_dataset(runner, tmp_path):
    config = make_config(tmp_path, tmp_path / "absent.jsonl")
    result = runner.invoke(main, ["run", "-c", str(config)])
    assert result.exit_code == 2
    assert "dataset error" in result.output


def test_run_dataset_that_is_a_directory_is_dataset_error(runner, tmp_path):
    folder = tmp_path / "folder"
    folder.mkdir()
    config = make_config(tmp_path, folder)
    result = runner.invoke(main, ["run", "-c", str(config)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"dataset error ({folder}): Is a directory" in result.output


def test_run_locomo_file_that_is_not_json_is_dataset_error(runner, tmp_path):
    corpus = tmp_path / "corpus.json"
    corpus.write_text('[{"sample_id": ')
    config = make_config(tmp_path, f"locomo:{corpus}")
    result = runner.invoke(main, ["run", "-c", str(config)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"dataset error (locomo:{corpus}): {corpus}: not valid JSON: " in result.output


def test_run_locomo_blank_question_is_dataset_error(runner, tmp_path):
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps([{
        "sample_id": "conv7",
        "conversation": {
            "session_1": [{"speaker": "Ana", "dia_id": "D1:0", "text": "I adopted a kitten."}],
            "session_1_date_time": "1:56 pm on 8 May, 2023",
        },
        "qa": [{"question": "  ", "answer": "a kitten", "evidence": ["D1:0"]}],
    }]))
    config = make_config(tmp_path, f"locomo:{corpus}")
    result = runner.invoke(main, ["run", "-c", str(config)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert (f"dataset error (locomo:{corpus}): {corpus}: conv7 qa 0 question is null or blank"
            in result.output)


def test_run_with_a_fraction_whose_reciprocal_overflows_checkpoints_every_insert(runner, tmp_path):
    stream = make_stream(runner, tmp_path)
    config = make_config(tmp_path, stream, checkpoint={"fraction": 1.0e-320})
    result = runner.invoke(main, ["run", "-c", str(config)])
    assert result.exit_code == 0, result.output
    assert result.exception is None and "Traceback" not in result.output
    checkpoints = (tmp_path / "results" / "checkpoints.jsonl").read_text().splitlines()
    assert len(checkpoints) == 10  # one per insert


def test_run_config_that_is_not_utf8_is_config_error(runner, tmp_path):
    stream = make_stream(runner, tmp_path)
    config = make_config(tmp_path, stream)
    config.write_bytes(config.read_bytes() + b"# caf\xe9\n")
    result = runner.invoke(main, ["run", "-c", str(config)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"config error ({config}): not valid UTF-8: " in result.output


@pytest.mark.parametrize("grid", [False, True])
def test_run_output_dir_that_is_a_file_fails_like_an_existing_sink(runner, tmp_path, grid,
                                                                   monkeypatch):
    # the file itself, or a grid variant's directory beneath it; no variant runs
    stream = make_stream(runner, tmp_path)
    extra = {"ablate": {"store.backend": ["fifo_queue", "inverted_vector"]}} if grid else {}
    config = make_config(tmp_path, stream, **extra)
    blocker = tmp_path / "results"
    blocker.write_text("not a directory\n")
    runs = []
    run_experiment = cli.run_experiment

    def counted_run(*args):
        runs.append(args)
        return run_experiment(*args)

    monkeypatch.setattr(cli, "run_experiment", counted_run)
    result = runner.invoke(main, ["run", "-c", str(config)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    target = blocker / "backend-fifo_queue" if grid else blocker
    assert f"cannot create result directory {target}: " in result.output
    assert blocker.read_text() == "not a directory\n"
    assert runs == []


def test_every_variant_of_a_grid_starts_with_cold_memos(runner, tmp_path, monkeypatch):
    # the process-wide memos are emptied before each variant, so a variant
    # does not bill less for running after another
    stream = make_stream(runner, tmp_path)
    config = make_config(tmp_path, stream,
                         ablate={"store.backend": ["inverted_vector", "fifo_queue"]})
    memos = (text._word, gateway._token_codes, records.ts_to_iso, _rrf_weights)
    sizes = []
    run_experiment = cli.run_experiment

    def sized_run(*args):
        sizes.append([memo.cache_info().currsize for memo in memos])
        return run_experiment(*args)

    monkeypatch.setattr(cli, "run_experiment", sized_run)
    result = runner.invoke(main, ["run", "-c", str(config)])
    assert result.exit_code == 0, result.output
    assert sizes == [[0, 0, 0, 0], [0, 0, 0, 0]]


def test_run_unknown_backend_lists_valid_names(runner, tmp_path):
    stream = make_stream(runner, tmp_path)
    config = make_config(tmp_path, stream, store={"backend": "holographic"})
    result = runner.invoke(main, ["run", "-c", str(config)])
    assert result.exit_code == 2
    assert "store error" in result.output
    assert "fifo_queue" in result.output and "inverted_vector" in result.output


def test_run_store_level_strength_gain_is_store_error(runner, tmp_path):
    # retention parameters live under operators.consolidate only
    stream = make_stream(runner, tmp_path)
    config = make_config(
        tmp_path, stream,
        store={"backend": "fifo_queue", "params": {"strength_gain": 5}})
    result = runner.invoke(main, ["run", "-c", str(config)])
    assert result.exit_code == 2
    assert "store error" in result.output and "strength_gain" in result.output
    assert not (tmp_path / "results" / "summary.json").exists()


# each is one store error line at build: a fraction or a bool once ran as
# a truncated capacity, a bad rrf_k or summary_max_sentences failed with a
# traceback at the first query or merge, embed_dim or lsh_hash's dim aborted
# the run at the first insert (exit 3), and lsh_hash's seed overrode the run's
BAD_STORE_PARAMS = [
    ("inverted_vector", {"rrf_k": -1}),
    ("inverted_vector", {"rrf_k": "x"}),
    ("summary_vector", {"summary_max_sentences": "x"}),
    ("fifo_queue", {"capacity": 2.5}),
    ("fifo_queue", {"capacity": True}),
    ("fifo_queue", {"embed_dim": 32}),
    ("lsh_hash", {"dim": 32}),
    ("lsh_hash", {"seed": 3}),
]


@pytest.mark.parametrize("backend, params", BAD_STORE_PARAMS,
                         ids=[f"{b}-{k}-{v}" for b, p in BAD_STORE_PARAMS for k, v in p.items()])
def test_run_bad_store_param_is_a_store_error(runner, tmp_path, backend, params):
    stream = make_stream(runner, tmp_path)
    config = make_config(tmp_path, stream, store={"backend": backend, "params": params},
                         gateway={"embed_dim": 16})
    result = runner.invoke(main, ["run", "-c", str(config)])
    assert result.exit_code == 2, result.output
    (key,) = params
    (line,) = result.output.splitlines()
    assert "store error" in line and key in line, line
    assert not (tmp_path / "results" / "summary.json").exists()


def test_run_mid_stream_store_failure_exits_3(runner, tmp_path):
    stream = make_stream(runner, tmp_path)
    config = make_config(
        tmp_path, stream,
        store={"backend": "fifo_queue",
               "params": {"capacity": 2, "overflow": "error"}})
    result = runner.invoke(main, ["run", "-c", str(config)])
    assert result.exit_code == 3
    assert "aborted" in result.output
    assert "CapacityExceeded" in result.output
    # partial results still land on disk
    assert (tmp_path / "results" / "summary.json").exists()


def test_run_set_overrides_apply(runner, tmp_path):
    stream = make_stream(runner, tmp_path)
    config = make_config(tmp_path, stream)
    result = runner.invoke(main, [
        "run", "-c", str(config),
        "--set", "operators.k=2",
        "--set", "checkpoint.fraction=1.0",
        "--set", "operators.integrate.score_threshold=1",  # an int fits a float field
    ])
    assert result.exit_code == 0, result.output
    summary = json.loads((tmp_path / "results" / "summary.json").read_text())
    assert summary["config"]["operators"]["k"] == 2
    assert summary["config"]["operators"]["integrate"]["score_threshold"] == 1
    assert summary["counts"]["checkpoints"] == 1


@pytest.mark.parametrize("option", [
    "operators.k=-3",
    # values of the wrong type name their key
    "operators.k=abc",
    "operators.k=2.5",
    "operators.integrate.budget_tokens=1e3",  # YAML reads 1e3 as a string
    "seed=abc",
    "seed=2.5",
])
def test_run_bad_override_is_config_error(runner, tmp_path, option):
    stream = make_stream(runner, tmp_path)
    config = make_config(tmp_path, stream)
    result = runner.invoke(main, ["run", "-c", str(config), "--set", option])
    assert result.exit_code == 2
    assert "config error" in result.output
    assert option.split("=")[0] in result.output


def test_run_config_file_with_a_removed_key_is_config_error(runner, tmp_path):
    stream = make_stream(runner, tmp_path)
    config = make_config(tmp_path, stream, buffer_capacity=64)
    result = runner.invoke(main, ["run", "-c", str(config)])
    assert result.exit_code == 2
    assert "config error" in result.output
    assert "unknown config key buffer_capacity" in result.output
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("force", [False, True], ids=["plain", "force"])
def test_run_duplicate_variant_names_is_config_error(runner, tmp_path, force):
    # both variants would be named backend-fifo_queue and share one directory
    stream = make_stream(runner, tmp_path)
    config = make_config(tmp_path, stream,
                         ablate={"store.backend": ["fifo_queue", "fifo_queue"]})
    result = runner.invoke(main, ["run", "-c", str(config)] + (["--force"] if force else []))
    assert result.exit_code == 2
    assert "config error" in result.output and "backend-fifo_queue" in result.output
    assert not (tmp_path / "results").exists()


def test_run_non_string_ablate_key_is_config_error(runner, tmp_path):
    stream = make_stream(runner, tmp_path)
    config = make_config(tmp_path, stream, ablate={1: ["a"]})
    result = runner.invoke(main, ["run", "-c", str(config)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert "config error" in result.output and "ablate key 1" in result.output
    assert not (tmp_path / "results").exists()


def test_run_dataset_grid_writes_one_directory_per_variant(runner, tmp_path, monkeypatch):
    # a value holding '/' must not name a nested directory that report cannot read
    monkeypatch.chdir(tmp_path)
    for sub in ("d1", "d2"):
        (tmp_path / sub).mkdir()
        make_stream(runner, tmp_path, name=f"{sub}/s.jsonl")
    config = make_config(tmp_path, "unused",
                         ablate={"dataset": ["d1/s.jsonl", "d2/s.jsonl"]})
    result = runner.invoke(main, ["run", "-c", str(config)])
    assert result.exit_code == 0, result.output
    out = tmp_path / "results"
    assert sorted(d.name for d in out.iterdir()) == [
        "dataset-d1_s.jsonl", "dataset-d2_s.jsonl"]
    report = runner.invoke(main, ["report", str(out)])
    assert report.exit_code == 0, report.output
    assert "| dataset-d1_s.jsonl | complete |" in report.output
    assert "| dataset-d2_s.jsonl | complete |" in report.output


def test_run_store_error_in_a_later_variant_names_it(runner, tmp_path):
    # fifo_queue takes a capacity, inverted_vector does not
    stream = make_stream(runner, tmp_path)
    config = make_config(tmp_path, stream,
                         store={"backend": "fifo_queue", "params": {"capacity": 8}},
                         ablate={"store.backend": ["fifo_queue", "inverted_vector"]})
    result = runner.invoke(main, ["run", "-c", str(config)])
    assert result.exit_code == 2
    out = tmp_path / "results"
    assert f"backend-fifo_queue: complete -> {out / 'backend-fifo_queue'}" in result.output
    assert "variant backend-inverted_vector: store error: bad parameters" in result.output
    assert (out / "backend-fifo_queue" / "summary.json").exists()
    assert not (out / "backend-inverted_vector").exists()


def strip_latency(obj):
    if isinstance(obj, dict):
        return {k: strip_latency(v) for k, v in obj.items() if k != "latency"}
    if isinstance(obj, list):
        return [strip_latency(v) for v in obj]
    return obj


def variant_results(variant_dir):
    """A variant's result files outside ``latency`` keys, less its output path."""
    summary = strip_latency(json.loads((variant_dir / "summary.json").read_text()))
    del summary["config"]["output_dir"]
    jsonl = {name: [strip_latency(json.loads(line))
                    for line in (variant_dir / name).read_text().splitlines()]
             for name in ("checkpoints.jsonl", "queries.jsonl")}
    return summary, jsonl, (variant_dir / "actions.log").read_bytes()


def test_run_ablation_grid(runner, tmp_path):
    stream = make_stream(runner, tmp_path)
    config = make_config(
        tmp_path, stream,
        ablate={"store.backend": ["fifo_queue", "inverted_vector"],
                "operators.k": [2, 4]})
    out = tmp_path / "grid"
    result = runner.invoke(main, ["run", "-c", str(config), "--set", f"output_dir={out}"])
    assert result.exit_code == 0, result.output
    assert result.output.count("complete ->") == 4
    variant_dirs = sorted(out.iterdir())
    assert [d.name for d in variant_dirs] == [
        "k-2_backend-fifo_queue", "k-2_backend-inverted_vector",
        "k-4_backend-fifo_queue", "k-4_backend-inverted_vector"]
    # each run turns the collector off and back on
    assert gc.isenabled()
    # a variant run after others writes what it writes when run alone
    for variant_dir in variant_dirs:
        summary = json.loads((variant_dir / "summary.json").read_text())
        alone = tmp_path / f"alone-{variant_dir.name}"
        single = make_config(tmp_path, stream, out_name=alone.name,
                             store={"backend": summary["config"]["store"]["backend"]},
                             operators={"k": summary["config"]["operators"]["k"]})
        result = runner.invoke(main, ["run", "-c", str(single)])
        assert result.exit_code == 0, result.output
        assert variant_results(alone) == variant_results(variant_dir)


def test_run_has_no_jobs_option(runner, tmp_path):
    stream = make_stream(runner, tmp_path)
    config = make_config(tmp_path, stream)
    result = runner.invoke(main, ["run", "-c", str(config), "--jobs", "2"])
    assert result.exit_code == 2
    assert "No such option" in result.output
    assert not (tmp_path / "results").exists()


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------

def finished_run(runner, tmp_path):
    stream = make_stream(runner, tmp_path)
    config = make_config(tmp_path, stream)
    assert runner.invoke(main, ["run", "-c", str(config)]).exit_code == 0
    return tmp_path / "results"


def test_report_markdown_and_csv_agree(runner, tmp_path):
    results = finished_run(runner, tmp_path)
    md = runner.invoke(main, ["report", str(results)])
    assert md.exit_code == 0
    assert "## Token F1 by round" in md.output
    assert "## Stage latency" in md.output
    assert "## Cost by side" in md.output
    csv = runner.invoke(main, ["report", str(results), "--format", "csv"])
    assert csv.exit_code == 0
    md_cells = [c.strip() for c in md.output.splitlines()
                if c.startswith("|") and "F1" not in c and "---" not in c]
    # every numeric cell printed in csv shows up in the md table too
    csv_rows = [line for line in csv.output.splitlines() if line.startswith("run,")]
    assert csv_rows  # header rows for all three tables
    assert "run,status,us_per_insert," in csv.output
    cost_md = [line for line in md.output.splitlines()
               if line.startswith("| run | complete |")]
    cost_csv = [line for line in csv.output.splitlines()
                if line.startswith("run,complete,")]
    assert len(cost_md) == 1
    assert ["| " + " | ".join(line.split(",")) + " |" for line in cost_csv] == cost_md
    summary = json.loads((results / "summary.json").read_text())
    mean = f"{summary['mean_f1']:.3f}"
    assert any(mean in line for line in md.output.splitlines())
    assert any(mean in line for line in csv.output.splitlines())


def test_report_missing_directory(runner, tmp_path):
    result = runner.invoke(main, ["report", str(tmp_path / "void")])
    assert result.exit_code == 2


@pytest.mark.parametrize("name", ["summary.json", "checkpoints.jsonl"])
def test_report_names_a_result_file_that_is_not_json(runner, tmp_path, name):
    results = finished_run(runner, tmp_path)
    (results / name).write_text("{truncated\n")
    result = runner.invoke(main, ["report", str(results)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"{results / name}: not valid JSON: " in result.output


@pytest.mark.parametrize("summary, field", [
    ([], "the top level is not an object"),
    ({"mean_f1": "x", "round_mean_f1": [0.5]}, "mean_f1 is not a number or null"),
    ({"latency": {"stages": {"PreIns": 5}}}, "latency.stages.PreIns is not an object"),
    ({"round_mean_f1": [0.5, "x"]}, "round_mean_f1[1] is not a number or null"),
    ({"latency": {"stages": {"PreIns": {"count": 2, "mean_us": None}}}},
     "latency.stages.PreIns.mean_us is not a number"),
    ({"counts": {"retrieves": 1},
      "latency": {"gateway_chat_us_by_stage": {"Generation": "x"}}},
     "latency.gateway_chat_us_by_stage.Generation is not a number"),
    ({"counts": {"inserts": "3"}}, "counts.inserts is not a number"),
    ({"flags": 5}, "flags is not an object"),
    ({"status": 5}, "status is not a string"),
], ids=["list", "text-mean", "int-stage", "text-round", "null-mean-us", "text-wall",
        "text-count", "int-flags", "int-status"])
def test_report_names_a_summary_field_it_cannot_read(runner, tmp_path, summary, field):
    results = finished_run(runner, tmp_path)
    (results / "summary.json").write_text(json.dumps(summary))
    result = runner.invoke(main, ["report", str(results)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output == f"{results / 'summary.json'}: {field}\n"


def test_report_aggregates_grid_variants(runner, tmp_path):
    stream = make_stream(runner, tmp_path)
    config = make_config(tmp_path, stream,
                         ablate={"operators.k": [2, 4]})
    assert runner.invoke(main, ["run", "-c", str(config)]).exit_code == 0
    result = runner.invoke(main, ["report", str(tmp_path / "results")])
    assert result.exit_code == 0
    assert "k-2" in result.output and "k-4" in result.output


def write_run(run_dir, **summary):
    run_dir.mkdir(parents=True)
    (run_dir / "checkpoints.jsonl").write_text("")
    (run_dir / "summary.json").write_text(json.dumps(summary))


def test_report_cost_by_side_arithmetic(runner, tmp_path):
    stages = {"PreIns": (4, 10.0), "StateUpdate": (4, 2.5), "PostIns": (2, 7.0),
              "PreRet": (2, 3.0), "Search": (2, 20.0), "PostRet": (2, 1.5),
              "Generation": (2, 50.0)}
    write_run(tmp_path / "grid" / "a", status="complete", mean_f1=0.4567,
              counts={"inserts": 4, "retrieves": 2},
              flags={"embed_failed": 1, "bundle_truncated": 2},
              latency={"stages": {stage: {"count": count, "mean_us": mean}
                                  for stage, (count, mean) in stages.items()},
                       "gateway_chat_us_by_stage": {"Generation": 90.0, "PostIns": 2.0},
                       "gateway_embed_us_by_stage": {"PreIns": 8.0, "PreRet": 3.0}})
    # no retrieves: the query side has nothing to divide by
    write_run(tmp_path / "grid" / "b", status="aborted", mean_f1=0.0,
              counts={"inserts": 2, "retrieves": 0}, flags={},
              latency={"stages": {"PreIns": {"count": 2, "mean_us": 5.0}},
                       "gateway_chat_us_by_stage": {},
                       "gateway_embed_us_by_stage": {}})
    md = runner.invoke(main, ["report", str(tmp_path / "grid")])
    assert md.exit_code == 0, md.output
    assert md.output.endswith(
        "## Cost by side\n"
        "| run | status | us_per_insert | gateway_us_per_insert | us_per_query"
        " | gateway_us_per_query | mean_f1 | flags |\n"
        "| --- | --- | --- | --- | --- | --- | --- | --- |\n"
        "| a | complete | 16.0 | 2.5 | 74.5 | 46.5 | 0.457 | bundle_truncated;embed_failed |\n"
        "| b | aborted | 5.0 | 0.0 | - | - | 0.000 | - |\n")
    csv = runner.invoke(main, ["report", str(tmp_path / "grid"), "--format", "csv"])
    assert csv.exit_code == 0, csv.output
    assert csv.output.endswith(
        "run,status,us_per_insert,gateway_us_per_insert,us_per_query,"
        "gateway_us_per_query,mean_f1,flags\n"
        "a,complete,16.0,2.5,74.5,46.5,0.457,bundle_truncated;embed_failed\n"
        "b,aborted,5.0,0.0,-,-,0.000,-\n")
    again = runner.invoke(main, ["report", str(tmp_path / "grid")])
    assert again.output == md.output
