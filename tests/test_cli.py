import json

import pytest

from lshkit import (
    BinaryLshParams,
    RealLshParams,
    bucket_statistics,
    build_binary_index,
    build_real_index,
    class_analysis,
    class_reports_json_lines,
    knn_exact,
    load_dataset,
    load_index,
    parameter_sweep,
    run_config,
    select_queries,
    sweep_csv_text,
)
from lshkit.cli import main


@pytest.fixture
def dataset_file(tmp_path):
    path = tmp_path / "d.fvec"
    rc = main(["gen", "--classes", "10", "--per-class", "20", "--dim", "64",
               "--std", "0.1", "--seed", "7", "--out", str(path)])
    assert rc == 0
    return path


def test_gen_writes_valid_fvec(dataset_file):
    ds = load_dataset(dataset_file)
    assert len(ds) == 200
    assert ds.dim == 64
    assert len(ds.labels) == 10


def test_gen_csv_format(tmp_path):
    path = tmp_path / "d.csv"
    rc = main(["gen", "--classes", "2", "--per-class", "3", "--dim", "4",
               "--std", "0.5", "--seed", "1", "--out", str(path)])
    assert rc == 0
    assert load_dataset(path).dim == 4


def test_build_and_query_matches_library(dataset_file, tmp_path, capsys):
    idx_path = tmp_path / "idx.bin"
    rc = main(["build", "--input", str(dataset_file), "--index", "real",
               "--L", "7", "--K", "2", "--seed", "7", "--out", str(idx_path)])
    assert rc == 0
    capsys.readouterr()

    rc = main(["query", "--index", str(idx_path), "--input", str(dataset_file),
               "--query-id", "5", "--k", "10"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)

    ds = load_dataset(dataset_file)
    index = load_index(idx_path, ds)
    results, stats = index.query(ds.get(5).values, k=10, metric="cosine")
    assert payload["results"] == [{"id": i, "distance": d} for i, d in results]
    assert payload["stats"]["distance_computations"] == stats.distance_computations
    assert payload["query_id"] == 5


def test_scan_matches_library(dataset_file, capsys):
    rc = main(["scan", "--input", str(dataset_file), "--query-id", "3", "--k", "4",
               "--metric", "euclidean"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    ds = load_dataset(dataset_file)
    results, _ = knn_exact(ds, ds.get(3).values, k=4, metric="euclidean")
    assert payload["results"] == [{"id": i, "distance": d} for i, d in results]


def test_sweep_grid_and_library_equivalence(dataset_file, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--input", str(dataset_file), "--index", "real",
               "--L", "1,3,5,7", "--K", "1,2,3", "--seed", "7", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert len(text.strip().split("\n")) == 13  # header + 4*3 rows

    ds = load_dataset(dataset_file)
    queries = select_queries(ds, seed=7)
    reports = parameter_sweep(ds, [1, 3, 5, 7], [1, 2, 3], "real",
                              query_ids=queries, seed=7)
    assert text == sweep_csv_text(reports)


def test_sweep_byte_identical_under_same_seed(dataset_file, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--input", str(dataset_file), "--index", "binary",
            "--L", "1,3", "--K", "2", "--seed", "11"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_tradeoff_summary_and_per_query(dataset_file, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    per_query = tmp_path / "pq.csv"
    rc = main(["sweep", "--input", str(dataset_file), "--index", "real",
               "--L", "1,3", "--K", "1,2", "--seed", "7", "--out", str(out),
               "--ie-target", "1.0", "--per-query-out", str(per_query)])
    assert rc == 0
    assert "best tradeoff" in capsys.readouterr().out
    lines = per_query.read_text().strip().split("\n")
    assert lines[0] == "L,K,query_id,ap,seq_cost,index_cost,charged_cost,ie"
    assert len(lines) == 1 + 4 * 10  # 4 cells x 10 classes


def test_stats_from_snapshot_and_params(dataset_file, tmp_path, capsys):
    ds = load_dataset(dataset_file)
    idx_path = tmp_path / "idx.bin"
    assert main(["build", "--input", str(dataset_file), "--index", "binary",
                 "--L", "3", "--K", "4", "--seed", "5", "--out", str(idx_path)]) == 0
    capsys.readouterr()

    assert main(["stats", "--input", str(dataset_file), "--snapshot", str(idx_path)]) == 0
    from_snapshot = json.loads(capsys.readouterr().out)
    expected = bucket_statistics(build_binary_index(ds, BinaryLshParams(L=3, K=4, seed=5)))
    assert from_snapshot == expected.__dict__

    assert main(["stats", "--input", str(dataset_file), "--index", "binary",
                 "--L", "3", "--K", "4", "--seed", "5"]) == 0
    from_params = json.loads(capsys.readouterr().out)
    assert from_params == expected.__dict__


def test_class_analysis_output(dataset_file, tmp_path, capsys):
    out = tmp_path / "classes.jsonl"
    rc = main(["class-analysis", "--input", str(dataset_file), "--backend", "exact",
               "--k", "19", "--out", str(out)])
    assert rc == 0
    ds = load_dataset(dataset_file)
    assert out.read_text() == class_reports_json_lines(class_analysis(ds, "exact", k=19))

    rc = main(["class-analysis", "--input", str(dataset_file), "--backend", "real",
               "--L", "3", "--K", "2", "--seed", "4", "--k", "10"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 10
    ridx = build_real_index(ds, RealLshParams(L=3, K=2, seed=4))
    assert lines == class_reports_json_lines(class_analysis(ds, ridx, k=10)).strip().split("\n")


def test_corr_prints_coefficient(tmp_path, capsys):
    xs = tmp_path / "xs.csv"
    ys = tmp_path / "ys.csv"
    xs.write_text("class,value\na,1.0\nb,2.0\nc,3.0\n")
    ys.write_text("class,value\na,2.0\nb,4.0\nc,6.0\n")
    rc = main(["corr", "--xs", str(xs), "--ys", str(ys)])
    assert rc == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(1.0, abs=1e-12)


def test_corr_non_finite_value_exits_nonzero(tmp_path, capsys):
    xs = tmp_path / "xs.csv"
    ys = tmp_path / "ys.csv"
    xs.write_text("class,value\na,1.0\nb,nan\nc,3.0\n")
    ys.write_text("class,value\na,2.0\nb,4.0\nc,6.0\n")
    rc = main(["corr", "--xs", str(xs), "--ys", str(ys)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "row 3: non-finite value 'nan'" in captured.err


def test_contamination_separated_sources(tmp_path, capsys):
    a = tmp_path / "a.fvec"
    b = tmp_path / "b.fvec"
    assert main(["gen", "--classes", "3", "--per-class", "8", "--dim", "8",
                 "--std", "0.05", "--seed", "1", "--out", str(a)]) == 0
    assert main(["gen", "--classes", "3", "--per-class", "8", "--dim", "8",
                 "--std", "0.05", "--seed", "2", "--out", str(b)]) == 0
    capsys.readouterr()
    rc = main(["contamination", "--input", str(a), "--distractor", str(b),
               "--backend", "exact", "--k", "5"])
    assert rc == 0
    value = float(capsys.readouterr().out.strip())
    assert 0.0 <= value <= 1.0


def test_missing_file_exits_nonzero(capsys):
    rc = main(["scan", "--input", "/nonexistent/d.fvec", "--query-id", "0"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_fingerprint_mismatch_exits_nonzero(dataset_file, tmp_path, capsys):
    idx_path = tmp_path / "idx.bin"
    assert main(["build", "--input", str(dataset_file), "--index", "real",
                 "--L", "2", "--K", "1", "--seed", "3", "--out", str(idx_path)]) == 0
    other = tmp_path / "other.fvec"
    assert main(["gen", "--classes", "2", "--per-class", "4", "--dim", "64",
                 "--std", "0.1", "--seed", "9", "--out", str(other)]) == 0
    rc = main(["query", "--index", str(idx_path), "--input", str(other),
               "--query-id", "0", "--k", "3"])
    assert rc == 1
    assert "fingerprint" in capsys.readouterr().err


def test_missing_index_params_exits_nonzero(dataset_file, capsys):
    rc = main(["class-analysis", "--input", str(dataset_file), "--backend", "real"])
    assert rc == 1
    assert "required" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_seed_required_for_sweep(dataset_file, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--input", str(dataset_file), "--index", "real",
              "--L", "1", "--K", "1", "--out", str(tmp_path / "s.csv")])
    assert exc.value.code == 2


def test_sweep_per_query_rows_equal_per_cell_run_config(dataset_file, tmp_path):
    out, per_query = tmp_path / "sweep.csv", tmp_path / "pq.csv"
    rc = main(["sweep", "--input", str(dataset_file), "--index", "binary",
               "--L", "3,1", "--K", "4,2,4", "--seed", "5", "--k", "6", "--metric", "euclidean",
               "--out", str(out), "--per-query-out", str(per_query)])
    assert rc == 0
    ds = load_dataset(dataset_file)
    queries = select_queries(ds, seed=5)
    lines = ["L,K,query_id,ap,seq_cost,index_cost,charged_cost,ie"]
    for L in (3, 1):
        for K in (4, 2, 4):
            outcomes = run_config(ds, queries, "binary", L=L, K=K, seed=5, k=6, metric="euclidean")[1]
            lines.extend(
                f"{L},{K},{o.query_id},{o.ap},{o.seq_cost},{o.index_cost},{o.charged_cost},{o.ie}"
                for o in outcomes
            )
    assert per_query.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_sweep_with_non_positive_k_exits_1(dataset_file, tmp_path, capsys):
    rc = main(["sweep", "--input", str(dataset_file), "--index", "real", "--L", "1", "--K", "1",
               "--seed", "1", "--k", "0", "--out", str(tmp_path / "s.csv")])
    assert rc == 1
    assert "k must be positive, got 0" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_cli_accepts_exactly_the_family_kinds(dataset_file, tmp_path, capsys):
    from lshkit.binary_lsh import FAMILIES

    data, params = ["--input", str(dataset_file)], ["--L", "2", "--K", "3", "--seed", "1"]
    commands = {
        "build": lambda kind: ["build", *data, "--index", kind, *params, "--out", str(tmp_path / "i.idx")],
        "sweep": lambda kind: ["sweep", *data, "--index", kind, *params, "--out", str(tmp_path / "s.csv")],
        "stats": lambda kind: ["stats", *data, "--index", kind, *params],
        "class-analysis": lambda kind: ["class-analysis", *data, "--backend", kind, *params, "--k", "3"],
        "contamination": lambda kind: ["contamination", *data, "--distractor", str(dataset_file),
                                       "--backend", kind, *params, "--k", "3"],
    }
    for name, argv in commands.items():
        backends = ("exact",) if name in ("class-analysis", "contamination") else ()
        for kind in (*FAMILIES, *backends):
            assert main(argv(kind)) == 0, (name, kind)
        for kind in ("none", "REAL", *(() if backends else ("exact",))):
            with pytest.raises(SystemExit) as exc:
                main(argv(kind))
            assert exc.value.code == 2, (name, kind)
    capsys.readouterr()
