"""Command line behavior: reports, exit codes, and determinism."""

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from abstractnet import (
    AbstractionRecord, FormatError, Network, RobustnessQuery, ValidationError,
    make_synthetic_digits, pipeline,
)
from abstractnet import cli
from abstractnet.cli import main
from helpers import MALFORMED_ARRAYS, as_number_lists, decoded, encoded, strip_timings


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


SYNTH = ["--format", "synthetic", "--synthetic-count", "150", "--data-seed", "0"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    rc, out, _ = run_cli(
        ["train", *SYNTH, "--arch", "16", "--epochs", "20",
         "--learning-rate", "0.01", "--seed", "0", "--out", str(d / "net.json")]
    )
    assert rc == 0
    train_report = json.loads(out)
    rc, out, _ = run_cli(
        ["abstract", "--net", str(d / "net.json"), *SYNTH, "--kl", "2:4",
         "--seed", "0", "--out", str(d / "record.json")]
    )
    assert rc == 0
    return d, train_report, json.loads(out)


def test_train_report_and_artifact(workdir):
    d, report, _ = workdir
    assert report["schema"] == 1
    assert report["command"] == "train"
    assert report["layer_sizes"] == [64, 16, 10]
    assert 0.0 <= report["accuracy"] <= 1.0
    assert report["out"].endswith("net.json")
    assert "train_s" in report["timings"]
    net = Network.load(d / "net.json")
    assert net.layer_sizes == (64, 16, 10)


def test_abstract_report_and_record(workdir):
    d, _, report = workdir
    assert report["command"] == "abstract"
    assert report["k_l"] == {"2": 4}
    assert report["removed_neurons"] == 12
    assert report["reduction_rate"] == pytest.approx(0.75)
    assert report["accuracy_drop"] == pytest.approx(
        report["accuracy_original"] - report["accuracy_abstract"]
    )
    # one entry per layer; only the merged hidden layer carries epsilon
    assert len(report["epsilon_max_per_layer"]) == 3
    assert report["epsilon_max_per_layer"][0] == 0.0
    assert report["epsilon_max_per_layer"][1] > 0.0
    assert report["epsilon_max_per_layer"][2] == 0.0
    assert "epsilon_scope" in report["notes"]
    assert "epsilon_norm" not in report
    record = AbstractionRecord.load(d / "record.json")
    assert record.abstract_net.layer_sizes == (64, 4, 10)


def test_abstract_requires_exactly_one_sizing(workdir):
    d, _, _ = workdir
    base = ["abstract", "--net", str(d / "net.json"), *SYNTH]
    assert run_cli(base)[0] == 2
    assert run_cli([*base, "--alpha", "0.5", "--kl", "2:4"])[0] == 2
    assert run_cli([*base, "--kl", "not-a-count"])[0] == 2
    assert run_cli([*base, "--kl", "2:4,2:5"])[0] == 2  # duplicate layer
    assert run_cli([*base, "--alpha", "1.5"])[0] == 2  # above any accuracy


def test_alpha_record_equals_kl_record(workdir, tmp_path):
    # with --x-source all --no-holdout the search collects activations on the
    # same rows as --kl, so the record it built is the --kl record at its k_l
    d, train_report, _ = workdir
    base = ["abstract", "--net", str(d / "net.json"), *SYNTH, "--seed", "3"]
    alpha = str(train_report["accuracy"] - 0.05)
    rc, out, _ = run_cli([*base, "--alpha", alpha, "--x-source", "all", "--no-holdout",
                          "--out", str(tmp_path / "alpha.json")])
    assert rc == 0
    report = json.loads(out)
    assert report["k_l"]["2"] < 16
    kl = ",".join(f"{layer}:{k}" for layer, k in report["k_l"].items())
    rc, _, _ = run_cli([*base, "--kl", kl, "--out", str(tmp_path / "kl.json")])
    assert rc == 0
    assert (tmp_path / "alpha.json").read_bytes() == (tmp_path / "kl.json").read_bytes()


def test_epsilon_norm_flag_accepts_only_linf(workdir, tmp_path):
    # the one epsilon is the largest gap over X; --epsilon-norm linf names it
    # and changes nothing, and no other norm is accepted
    d, _, _ = workdir
    base = ["abstract", "--net", str(d / "net.json"), *SYNTH, "--kl", "2:4", "--seed", "0"]
    outputs = []
    for name, flag in (("plain", []), ("linf", ["--epsilon-norm", "linf"])):
        rc, out, _ = run_cli([*base, *flag, "--out", str(tmp_path / f"{name}.json")])
        assert rc == 0
        report = strip_timings(json.loads(out))
        report.pop("out")
        outputs.append((report, (tmp_path / f"{name}.json").read_bytes()))
    assert outputs[0] == outputs[1]
    with pytest.raises(SystemExit) as exc:
        run_cli([*base, "--epsilon-norm", "l2"])
    assert exc.value.code == 2


def test_verify_emits_one_json_line_per_query(workdir):
    d, _, _ = workdir
    rc, out, _ = run_cli(
        ["verify", "--net", str(d / "net.json"), *SYNTH, "--count", "3",
         "--delta", "0.001"]
    )
    assert rc == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 3
    for i, doc in enumerate(lines):
        assert doc["schema"] == 1
        assert doc["query"] == i
        assert 0 <= doc["target"] < 10
        assert doc["verdict"] in ("robust", "unknown", "not_robust")
        assert len(doc["output_lower"]) == 10
        assert len(doc["output_upper"]) == 10
        assert all(
            lo <= up + 1e-12
            for lo, up in zip(doc["output_lower"], doc["output_upper"])
        )


def test_verify_single_index_and_vector_file(workdir, tmp_path):
    d, _, _ = workdir
    rc, out, _ = run_cli(
        ["verify", "--net", str(d / "net.json"), *SYNTH, "--input", "0",
         "--delta", "0"]
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["query"] == 0
    # delta 0 box is a point: verdict robust unless two outputs tie exactly
    assert doc["verdict"] == "robust"

    vec = tmp_path / "x.txt"
    vec.write_text(" ".join(["0.5"] * 64))
    rc, out, _ = run_cli(
        ["verify", "--net", str(d / "net.json"), "--input", str(vec), "--delta", "0"]
    )
    assert rc == 0
    assert json.loads(out)["query"] is None

    rc, _, _ = run_cli(
        ["verify", "--net", str(d / "net.json"), *SYNTH, "--input", "9999",
         "--delta", "0"]
    )
    assert rc == 2


def write_query_csv(path, bad_row=None):
    """Five label-first digit rows; data row ``bad_row`` (1-based) gets a non-numeric value."""
    ds = make_synthetic_digits(5, seed=7)
    rows = [[str(y)] + [repr(v) for v in x] for y, x in zip(ds.labels.tolist(), ds.inputs.tolist())]
    if bad_row is not None:
        rows[bad_row - 1][3] = "oops"
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    return str(path)


def test_verify_and_lift_read_only_the_rows_they_use(workdir, tmp_path):
    # a malformed 4th row is never parsed by a job that uses the first two rows
    d, _, _ = workdir
    clean = write_query_csv(tmp_path / "clean.csv")
    bad = write_query_csv(tmp_path / "bad.csv", bad_row=4)
    jobs = [
        ["verify", "--net", str(d / "net.json"), "--count", "2", "--delta", "0.001"],
        ["verify", "--net", str(d / "net.json"), "--input", "1", "--delta", "0.001"],
        ["lift", "--record", str(d / "record.json"), "--count", "2", "--delta", "0.001"],
    ]
    for argv in jobs:
        outputs = []
        for data in (clean, bad):
            rc, out, _ = run_cli([*argv, "--data", data])
            assert rc == 0
            outputs.append(out if argv[0] == "verify" else strip_timings(json.loads(out)))
        assert outputs[0] == outputs[1]
    rc, _, err = run_cli([*jobs[0][:-4], "--count", "4", "--delta", "0", "--data", bad])
    assert rc == 2 and "line 4: non-numeric value" in err


def test_verify_count_past_the_end_and_negative_index(workdir, tmp_path):
    d, _, _ = workdir
    data = write_query_csv(tmp_path / "q.csv")
    base = ["verify", "--net", str(d / "net.json"), "--data", data, "--delta", "0"]
    rc, out, err = run_cli([*base, "--count", "7"])
    assert rc == 0
    assert "only 5 inputs available" in err
    assert [json.loads(line)["query"] for line in out.splitlines()] == [0, 1, 2, 3, 4]
    rc, out, err = run_cli([*base, "--input", "-1"])
    assert rc == 2 and out == ""
    assert "--input index" in err


def test_the_parser_is_built_once(workdir, monkeypatch):
    d, _, _ = workdir
    argv = ["verify", "--net", str(d / "net.json"), *SYNTH, "--count", "2", "--delta", "0"]
    cli._parser.cache_clear()
    fresh = run_cli(argv)
    cli._parser.cache_clear()
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    with pytest.raises(SystemExit):
        run_cli(["no-such-command"])
    assert run_cli(argv) == fresh
    assert run_cli(argv) == fresh
    assert len(builds) == 1


def test_verify_falsify_attaches_witness(workdir):
    d, _, _ = workdir
    rc, out, _ = run_cli(
        ["verify", "--net", str(d / "net.json"), *SYNTH, "--count", "1",
         "--delta", "1.0", "--falsify", "--samples", "300", "--seed", "0"]
    )
    assert rc == 0
    doc = json.loads(out)
    assert "witness" in doc
    if doc["witness"] is not None:
        assert doc["verdict"] == "not_robust"
        assert len(doc["witness"]) == 64
        assert doc["witness_label"] != doc["target"]
    else:
        assert doc["verdict"] == "unknown"


def test_lift_report(workdir):
    d, _, _ = workdir
    rc, out, _ = run_cli(
        ["lift", "--record", str(d / "record.json"), *SYNTH, "--delta", "0",
         "--count", "2"]
    )
    assert rc == 0
    report = json.loads(out)
    assert report["command"] == "lift"
    assert report["queries"] == 2
    assert len(report["results"]) == 2
    assert 0 <= report["lifted_robust"] <= report["abstract_robust"] <= 2
    assert "epsilon_scope" in report["notes"]
    for entry in report["results"]:
        assert entry["abstract"] in ("robust", "unknown")
        assert entry["lifted"] in ("robust", "unknown")


def test_lift_abstract_verdicts_match_verify_record(workdir, tmp_path):
    d, _, _ = workdir
    vec = tmp_path / "delta.txt"
    vec.write_text(" ".join(["0", "0.004"] * 32))
    for delta in ("0", "0.002", str(vec)):
        common = [*SYNTH, "--count", "20", "--delta", delta]
        rc, out, _ = run_cli(["verify", "--record", str(d / "record.json"), *common])
        assert rc == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        rc, out, _ = run_cli(["lift", "--record", str(d / "record.json"), *common])
        assert rc == 0
        results = json.loads(out)["results"]
        assert [r["target"] for r in results] == [line["target"] for line in lines]
        assert [r["abstract"] for r in results] == [line["verdict"] for line in lines]
        assert all(r["abstract"] == "robust" for r in results if r["lifted"] == "robust")


def test_tampered_record_rejected(workdir, tmp_path):
    # a file in the layout that also stored the abstract network is rejected,
    # whether that network still equals the merge of the original or not
    d, _, _ = workdir
    record = AbstractionRecord.load(d / "record.json")
    for shift in (0.0, 0.25):
        doc = json.loads(record.to_json())
        doc["abstract_network"] = record.abstract_net.to_dict()
        layer = doc["abstract_network"]["layers"][0]
        bias = decoded(layer["bias"]).copy()
        bias[0] += shift
        layer["bias"] = encoded(bias)
        legacy = tmp_path / f"legacy-{shift}.json"
        legacy.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="abstract_network"):
            AbstractionRecord.load(legacy)
        rc, out, err = run_cli(
            ["lift", "--record", str(legacy), *SYNTH, "--delta", "0", "--count", "2"]
        )
        assert (rc, out) == (2, "")
        assert "abstract_network" in err


@pytest.mark.parametrize(
    "field, value",
    [("seed", 1.5), ("num_inputs", -3), ("epsilon_norm", "l3"), ("k_l", {"2": 5}),
     ("seed", -7), ("input_fingerprint", 5)],
)
def test_record_with_bad_provenance_exits_2(workdir, tmp_path, field, value):
    d, _, _ = workdir
    doc = json.loads((d / "record.json").read_text())
    doc["provenance"][field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc, _, err = run_cli(["lift", "--record", str(bad), *SYNTH, "--delta", "0", "--count", "2"])
    assert rc == 2
    assert "Traceback" not in err


@pytest.mark.parametrize("norm", ["l2", "linf"])
def test_record_naming_an_epsilon_norm_exits_2(workdir, tmp_path, norm):
    # a record written when records named their epsilon norm may hold l2
    # distances, which are not the largest gaps over X: it is not read
    d, _, _ = workdir
    doc = json.loads((d / "record.json").read_text())
    doc["provenance"]["epsilon_norm"] = norm
    old = tmp_path / "old.json"
    old.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="epsilon_norm"):
        AbstractionRecord.load(old)
    for argv in (["lift", "--record", str(old), "--count", "2"],
                 ["verify", "--record", str(old), "--count", "2"]):
        rc, out, err = run_cli([*argv, *SYNTH, "--delta", "0"])
        assert (rc, out) == (2, "")
        assert "epsilon_norm" in err and "Traceback" not in err


def test_bench_deterministic_modulo_timings(workdir):
    d, _, _ = workdir
    argv = ["bench", "--net", str(d / "net.json"), *SYNTH, "--alpha", "0.1",
            "--delta", "0.01", "--count", "4", "--seed", "5"]
    rc1, out1, _ = run_cli(argv)
    rc2, out2, _ = run_cli(argv)
    assert rc1 == rc2 == 0
    a, b = json.loads(out1), json.loads(out2)
    assert strip_timings(a) == strip_timings(b)
    assert a["command"] == "bench"
    assert a["queries_run"] == a["count"] == 4
    assert a["timed_out"] is False
    assert a["images_verified"] == a["lifted_robust"]
    assert a["lifted_robust"] <= a["abstract_robust"]
    assert len(a["results"]) == 4
    assert set(a["accuracy"]) == {"original", "abstract"}


def test_bench_timeout_stops_early(workdir):
    d, _, _ = workdir
    rc, out, _ = run_cli(
        ["bench", "--net", str(d / "net.json"), *SYNTH, "--alpha", "0.1",
         "--delta", "0.01", "--count", "4", "--timeout-s", "0"]
    )
    assert rc == 0
    report = json.loads(out)
    assert report["timed_out"] is True
    assert report["queries_run"] == 0
    assert report["images_verified"] == 0


@pytest.mark.parametrize("timeout", ["nan", "inf", "-1"])
def test_bench_rejects_a_timeout_that_is_no_deadline(workdir, timeout):
    d, _, _ = workdir
    rc, out, err = run_cli(
        ["bench", "--net", str(d / "net.json"), *SYNTH, "--alpha", "0.1",
         "--delta", "0.01", "--count", "4", f"--timeout-s={timeout}"]
    )
    assert (rc, out) == (2, "")
    assert "timeout_s must be finite and >= 0" in err


def test_bench_record_out(workdir, tmp_path):
    d, _, _ = workdir
    record_path = tmp_path / "bench-record.json"
    rc, _, _ = run_cli(
        ["bench", "--net", str(d / "net.json"), *SYNTH, "--alpha", "0.1",
         "--delta", "0.01", "--count", "1", "--record-out", str(record_path)]
    )
    assert rc == 0
    assert AbstractionRecord.load(record_path).abstract_net.layer_sizes[0] == 64


def test_bench_and_pipeline_agree(workdir):
    # the same net, data, alpha, seed, queries and delta: pipeline()'s report
    # is bench's without the command name and the delta
    d, _, _ = workdir
    n, delta = 120, 0.01
    rc, out, _ = run_cli(
        ["bench", "--net", str(d / "net.json"), *SYNTH, "--alpha", "0.1",
         "--delta", str(delta), "--count", str(n), "--seed", "5"]
    )
    assert rc == 0
    bench = json.loads(out)
    ds = make_synthetic_digits(150, seed=0, noise=0.15)
    queries = [RobustnessQuery(x, delta) for x in ds.inputs[:n]]
    report = pipeline(Network.load(d / "net.json"), ds, 0.1, queries, seed=5)
    assert bench["queries_run"] == n and bench["original_robust"] > 0
    # k_l, removed_neurons, accuracy, the verdict counts and every row included
    expected = {k: v for k, v in bench.items() if k not in ("command", "delta")}
    assert list(report) == list(expected)
    assert strip_timings(json.loads(json.dumps(report))) == strip_timings(expected)


def test_missing_and_malformed_files(workdir, tmp_path):
    rc, _, _ = run_cli(
        ["verify", "--net", str(tmp_path / "absent.json"), *SYNTH, "--delta", "0.1"]
    )
    assert rc == 2
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{broken")
    rc, _, _ = run_cli(["verify", "--net", str(garbage), *SYNTH, "--delta", "0.1"])
    assert rc == 2
    # well-formed JSON holding malformed values: an input-format error, not an
    # internal one. A ragged row is an entry dropped under the declared shape,
    # and a string is a character outside the base64 alphabet.
    d, _, _ = workdir
    net_doc = json.loads((d / "net.json").read_text())
    ragged = json.loads(json.dumps(net_doc))
    w = ragged["layers"][0]["weights"]
    ragged["layers"][0]["weights"] = encoded(decoded(w).flat[:-1], w["shape"])
    stringy = json.loads(json.dumps(net_doc))
    stringy["layers"][1]["weights"]["data"] = "w?" + stringy["layers"][1]["weights"]["data"][2:]
    for i, doc in enumerate((ragged, stringy)):
        path = tmp_path / f"net{i}.json"
        path.write_text(json.dumps(doc))
        rc, out, err = run_cli(["verify", "--net", str(path), *SYNTH, "--delta", "0.1"])
        assert (rc, out) == (2, "")
        assert "internal error" not in err
    record_doc = json.loads((d / "record.json").read_text())
    index = json.loads(json.dumps(record_doc))
    index["layers"][0]["clusters"][0][0] = "first"
    epsilon = json.loads(json.dumps(record_doc))
    epsilon["layers"][0]["epsilon"]["data"] = "small?"
    for i, doc in enumerate((index, epsilon)):
        path = tmp_path / f"record{i}.json"
        path.write_text(json.dumps(doc))
        rc, out, err = run_cli(["lift", "--record", str(path), *SYNTH, "--delta", "0.1"])
        assert (rc, out) == (2, "")
        assert "internal error" not in err


@pytest.mark.parametrize("edit", [pytest.param(e, id=i) for i, e, _ in MALFORMED_ARRAYS])
def test_malformed_arrays_exit_2(workdir, tmp_path, edit):
    d, _, _ = workdir
    net_doc = json.loads((d / "net.json").read_text())
    net_doc["layers"][0]["weights"] = edit(net_doc["layers"][0]["weights"])
    record_doc = json.loads((d / "record.json").read_text())
    record_doc["layers"][0]["epsilon"] = edit(record_doc["layers"][0]["epsilon"])
    for flag, doc, argv in (("--net", net_doc, ["verify"]), ("--record", record_doc, ["lift"])):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        rc, out, err = run_cli([*argv, flag, str(path), *SYNTH, "--delta", "0", "--count", "2"])
        assert (rc, out) == (2, ""), argv
        assert "internal error" not in err and "Traceback" not in err


def _with_byte_ff_on_line(path, line):
    """``path`` rewritten with a 0xff byte at the start of its 1-based ``line``."""
    lines = path.read_bytes().splitlines(keepends=True)
    lines[line - 1] = b"\xff" + lines[line - 1]
    path.write_bytes(b"".join(lines))


@pytest.mark.parametrize(
    "case", ["net-bom", "record-bom", "csv-line-1", "csv-line-2", "csv-line-13"]
)
def test_undecodable_bytes_exit_2(workdir, tmp_path, case):
    # a file that is not UTF-8 text is an input-format error naming the file
    d, _, _ = workdir
    data = tmp_path / "q.csv"
    write_query_csv(data)
    bad = tmp_path / "bad"
    count = 2
    if case == "net-bom":
        bad.write_bytes(b"\xff\xfe" + (d / "net.json").read_bytes())
        argv = ["verify", "--net", str(bad), "--data", str(data)]
    elif case == "record-bom":
        bad.write_bytes(b"\xff\xfe" + (d / "record.json").read_bytes())
        argv = ["lift", "--record", str(bad), "--data", str(data)]
    else:
        # line 13 of four copies of the five rows lies past the first 8 KB the
        # header sniff decodes, so the row parse, not the sniff, meets it
        copies, line = (4, 13) if case == "csv-line-13" else (1, int(case[-1]))
        bad.write_bytes(data.read_bytes() * copies)
        _with_byte_ff_on_line(bad, line)
        assert copies == 1 or len(b"".join(bad.read_bytes().splitlines(True)[: line - 1])) > 8192
        argv = ["verify", "--net", str(d / "net.json"), "--data", str(bad)]
        count = 5 * copies
    rc, out, err = run_cli([*argv, "--delta", "0", "--count", str(count)])
    assert (rc, out) == (2, "")
    assert f"{bad} is not UTF-8 text" in err
    assert "internal error" not in err and "Traceback" not in err


@pytest.mark.parametrize("epsilon", [0.5, None, encoded(0.5, [])], ids=["scalar", "null", "0-d"])
def test_record_with_scalar_epsilon_exits_2(workdir, tmp_path, epsilon):
    d, _, _ = workdir
    doc = json.loads((d / "record.json").read_text())
    doc["layers"][0]["epsilon"] = epsilon
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run_cli(["lift", "--record", str(path), *SYNTH, "--delta", "0", "--count", "2"])
    assert (rc, out) == (2, "")
    assert "internal error" not in err


def test_number_list_layout_exits_2(workdir, tmp_path):
    # net and record files that store arrays as JSON number lists are not read
    d, _, _ = workdir
    old_net, old_record = tmp_path / "net.json", tmp_path / "record.json"
    for old, new in ((old_net, d / "net.json"), (old_record, d / "record.json")):
        old.write_text(json.dumps(as_number_lists(json.loads(new.read_text()))))
    for argv in (["verify", "--net", old_net, "--count", "2", "--delta", "0"],
                 ["verify", "--record", old_record, "--count", "2", "--delta", "0"],
                 ["lift", "--record", old_record, "--count", "2", "--delta", "0"],
                 ["abstract", "--net", old_net, "--kl", "2:4"],
                 ["bench", "--net", old_net, "--alpha", "0.1", "--count", "2"]):
        rc, out, err = run_cli([str(a) for a in argv] + SYNTH)
        assert (rc, out) == (2, ""), argv[:2]
        assert "no longer read" in err and "Traceback" not in err


def test_non_finite_delta_is_invalid_input(workdir):
    d, _, _ = workdir
    for delta in ("nan", "inf"):
        for argv in (["verify", "--net", str(d / "net.json")],
                     ["lift", "--record", str(d / "record.json")],
                     ["bench", "--net", str(d / "net.json"), "--alpha", "0.1"]):
            rc, out, _ = run_cli([*argv, *SYNTH, "--count", "2", "--delta", delta])
            assert (rc, out) == (2, "")


def test_malformed_vector_files_exit_2(workdir, tmp_path):
    # a vector file holds JSON numbers or plain floats; nested lists, strings
    # and bools are input-format errors, neither internal errors nor numbers
    d, _, _ = workdir
    net = str(d / "net.json")
    texts = (
        "[1, [2]]",
        '["a"]',
        "[true" + ", 0.0" * 63 + "]",
        "[" + ", ".join(['"0.001"'] * 64) + "]",
        "0.001 " * 63 + "x",
    )
    for i, text in enumerate(texts):
        vec = tmp_path / f"vec{i}.json"
        vec.write_text(text)
        for argv in (["--input", str(vec), "--delta", "0"],
                     [*SYNTH, "--count", "2", "--delta", str(vec)]):
            rc, out, err = run_cli(["verify", "--net", net, *argv])
            assert (rc, out) == (2, "")
            assert "internal error" not in err


def test_non_finite_alpha_is_invalid_input(workdir):
    d, _, _ = workdir
    net = str(d / "net.json")
    for alpha in ("nan", "-inf"):
        for argv in (["abstract", "--net", net], ["bench", "--net", net, "--count", "2"]):
            rc, out, err = run_cli([*argv, *SYNTH, f"--alpha={alpha}"])
            assert (rc, out) == (2, "")
            assert "alpha must be finite" in err
    ds = make_synthetic_digits(150, seed=0, noise=0.15)
    queries = [RobustnessQuery(x, 0.0) for x in ds.inputs[:2]]
    with pytest.raises(ValidationError, match="alpha must be finite"):
        pipeline(Network.load(net), ds, float("nan"), queries)


def test_each_redirected_stderr_gets_the_error(tmp_path):
    argv = ["verify", "--net", str(tmp_path / "absent.json"), *SYNTH, "--delta", "0.1"]
    for _ in range(2):
        rc, _, err = run_cli(argv)
        assert rc == 2
        assert "absent.json" in err


def test_training_divergence_exit_code():
    with np.errstate(over="ignore", invalid="ignore"):
        rc, _, _ = run_cli(
            ["train", "--format", "synthetic", "--synthetic-count", "60",
             "--arch", "8", "--epochs", "5", "--learning-rate", "1e150",
             "--optimizer", "sgd", "--patience", "50", "--batch-size", "60"]
        )
    assert rc == 3


@pytest.mark.parametrize("flag, value", [
    ("--learning-rate", "nan"),
    ("--learning-rate", "inf"),
    ("--seed", "-1"),
    ("--data-seed", "-1"),
    ("--noise", "inf"),
])
def test_invalid_training_inputs_exit_2(flag, value):
    argv = ["train", "--format", "synthetic", "--synthetic-count", "60", "--arch", "4",
            "--epochs", "1"]
    rc, out, err = run_cli([*argv, f"{flag}={value}"])
    assert (rc, out) == (2, "")
    assert "internal error" not in err and "training failed" not in err


def test_negative_seed_exits_2(workdir):
    d, _, _ = workdir
    net = str(d / "net.json")
    for argv in (["abstract", "--net", net, "--alpha", "0.05"],
                 ["verify", "--net", net, "--count", "2", "--delta", "0.01", "--falsify"],
                 ["bench", "--net", net, "--alpha", "0.05", "--count", "2"]):
        rc, out, err = run_cli([*argv, *SYNTH, "--seed=-1"])
        assert (rc, out) == (2, "")
        assert "--seed must be >= 0" in err


def workflow_digests(d):
    """sha256 of each stdout (timings and paths stripped) and each file of a small workflow."""
    net, alpha_rec, kl_rec, bench_rec = (d / f"{n}.json" for n in ("net", "alpha", "kl", "bench"))
    data = ["--format", "synthetic", "--synthetic-count", "200", "--data-seed", "3"]
    steps = {
        "train": ["train", *data, "--arch", "12,8", "--epochs", "30", "--learning-rate", "0.02",
                  "--seed", "1", "--out", net],
        "abstract --alpha": ["abstract", "--net", net, *data, "--alpha", "0.85", "--seed", "2",
                             "--out", alpha_rec],
        "abstract --kl": ["abstract", "--net", net, *data, "--kl", "2:5,3:4",
                          "--epsilon-norm", "linf", "--seed", "2", "--out", kl_rec],
        "verify --falsify": ["verify", "--record", kl_rec, *data, "--count", "6", "--delta", "0.3",
                             "--falsify", "--samples", "200", "--seed", "4"],
        "lift": ["lift", "--record", alpha_rec, *data, "--count", "6", "--delta", "0"],
        "bench": ["bench", "--net", net, *data, "--alpha", "0.85", "--delta", "0", "--count", "6",
                  "--seed", "2", "--record-out", bench_rec],
    }
    digests = {}
    for name, argv in steps.items():
        rc, out, _ = run_cli([str(a) for a in argv])
        assert rc == 0, name
        if name != "verify --falsify":
            report = strip_timings(json.loads(out))
            out = json.dumps({k: v for k, v in report.items() if k not in ("out", "record")})
        digests[name] = hashlib.sha256(out.encode()).hexdigest()
    for path in (net, alpha_rec, kl_rec, bench_rec):
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


# The files hold the arrays written when records named their epsilon norm,
# under "linf" with that one provenance entry removed, now base64-encoded. The
# reports differ from that code's "linf" reports only in the epsilon_scope
# note and the abstract report's dropped "epsilon_norm" key.
PINNED_WORKFLOW = {
    "train": "c27b33f2cb873c411096f1f44ed539bb022561829bf3a60e06ba367a17ba794b",
    "abstract --alpha": "42458b2e7992e69795f010b3a2216efdf914114b5fff52fc87474c821759af9a",
    "abstract --kl": "514c347f45e7a35bdc389840b9fc43f908aebc8a283fa8228e7a3700f767724a",
    "verify --falsify": "112895861ac6eef64b8dd2070fe5cfdbb51767d143a870f27878ea8f9edd431b",
    "lift": "d846ef7e468b9d8f68a2f68f9f319944470cba7dfd3aed476142e61605c40e5f",
    "bench": "971d16ea57035128c2d8b598f69f3ddfe61480f097703f967c794605bcab442d",
    "net.json": "b8341b4cefdafbd0e2e55f6a54161b10c963c4fdc29317e87cd2eee02ec14d51",
    "alpha.json": "88ed1b60dbe4f0b09ee939a804372aea2eebecccc4639dd3f37b35e4f6a5e3f8",
    "kl.json": "dc07036de45113a044d373d90aacd21e9ddae53e932c565cd30d7e71dc00351d",
    "bench.json": "88ed1b60dbe4f0b09ee939a804372aea2eebecccc4639dd3f37b35e4f6a5e3f8",
}


def test_workflow_outputs_are_pinned(tmp_path):
    assert workflow_digests(tmp_path) == PINNED_WORKFLOW


def test_debug_log_leaves_train_stdout_unchanged(monkeypatch):
    argv = ["train", *SYNTH, "--arch", "6", "--epochs", "60", "--patience", "1",
            "--learning-rate", "0.03"]
    rc, quiet, err = run_cli(argv)
    assert rc == 0 and err == ""
    monkeypatch.setenv("ABSTRACTNET_LOG", "debug")
    rc, loud, err = run_cli(argv)
    assert rc == 0
    assert strip_timings(json.loads(loud)) == strip_timings(json.loads(quiet))
    assert "DEBUG abstractnet.trainer: epoch 0: validation loss" in err
    assert "INFO abstractnet.trainer: early stop after epoch" in err


def test_argparse_failures_raise_system_exit(workdir):
    d, _, _ = workdir
    with pytest.raises(SystemExit):
        run_cli([])
    with pytest.raises(SystemExit):
        run_cli(["no-such-command"])
    with pytest.raises(SystemExit):
        run_cli(["train", "--format", "bogus", "--arch", "8"])
    with pytest.raises(SystemExit):
        # --input and --count are mutually exclusive
        run_cli(["verify", "--net", str(d / "net.json"), *SYNTH,
                 "--input", "0", "--count", "2", "--delta", "0"])
