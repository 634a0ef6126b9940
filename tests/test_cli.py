import concurrent.futures
import csv
import io
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ltlfmine import cli
from ltlfmine.dtree import parse_tree, tree_loss
from ltlfmine.formula import parse_formula
from ltlfmine.maxsat import parse_wcnf
from ltlfmine.sample import (load_sample, omega_uniform, parse_sample,
                             weighted_loss)

BASIC = "1,0;1,1\n0,1\n---\n0,0\n1,0\n"


@pytest.fixture
def sample_file(tmp_path):
    path = tmp_path / "sample.txt"
    path.write_text(BASIC)
    return str(path)


def run(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLearn:
    def test_prints_formula_and_stats(self, sample_file, capsys):
        code, out, err = run(["learn", sample_file], capsys)
        assert code == cli.EXIT_OK
        sample = parse_sample(BASIC)
        f = parse_formula(out.strip(), sample.alphabet)
        assert weighted_loss(sample, f, omega_uniform(sample)) == 0
        assert "size: " in err and "loss: 0" in err

    def test_kappa_accepts_fractions(self, sample_file, capsys):
        code, out, _ = run(["learn", sample_file, "--kappa", "1/4"], capsys)
        assert code == cli.EXIT_OK
        sample = parse_sample(BASIC)
        f = parse_formula(out.strip(), sample.alphabet)
        assert weighted_loss(sample, f, omega_uniform(sample)) \
            <= Fraction(1, 4)

    def test_size_cap_exit_code(self, tmp_path, capsys):
        path = tmp_path / "s.txt"
        path.write_text("1,0\n0,1\n---\n1,1\n0,0\n")
        code, _, err = run(["learn", str(path), "--max-size", "1"], capsys)
        assert code == cli.EXIT_NO_RESULT
        assert "no formula" in err

    def test_max_size_zero_rejected(self, sample_file, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["learn", sample_file, "--max-size", "0"])
        assert exc.value.code == cli.EXIT_USAGE
        assert "at least 1" in capsys.readouterr().err

    def test_timeout_exit_code(self, tmp_path, capsys):
        path = tmp_path / "s.txt"
        path.write_text("1,0\n0,1\n---\n1,1\n0,0\n")
        code, _, err = run(["learn", str(path), "--timeout", "0"], capsys)
        assert code == cli.EXIT_TIMEOUT

    def test_negative_timeout_rejected(self, sample_file, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["learn", sample_file, "--timeout", "-1"])
        assert exc.value.code == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "at least 0" in captured.err

    def test_missing_file(self, capsys):
        code, _, err = run(["learn", "/no/such/file"], capsys)
        assert code == cli.EXIT_USAGE
        assert "error:" in err

    def test_malformed_sample(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("1,0\n---\n1,0\n")
        code, _, err = run(["learn", str(path)], capsys)
        assert code == cli.EXIT_USAGE

    @pytest.mark.parametrize("command", ["learn", "learn-dt"])
    def test_sample_without_traces_rejected(self, tmp_path, capsys, command):
        path = tmp_path / "empty.txt"
        path.write_text("alphabet: p\n---\n")
        code, out, err = run([command, str(path)], capsys)
        assert code == cli.EXIT_USAGE
        assert out == "" and "no traces" in err

    @pytest.mark.parametrize("command", ["learn", "learn-dt"])
    @pytest.mark.parametrize("header", ["1a,q", "p q,r"])
    def test_unreadable_proposition_name_rejected(self, tmp_path, capsys,
                                                  command, header):
        # Such a name would be printed in a formula that does not read
        # back.
        path = tmp_path / "bad.txt"
        path.write_text(f"alphabet: {header}\n1,0\n---\n0,1\n")
        code, out, err = run([command, str(path)], capsys)
        assert code == cli.EXIT_USAGE
        assert out == "" and "does not read back" in err

    def test_bad_kappa_rejected(self, sample_file, capsys):
        # Argument errors are usage errors, not argparse's 2 (a timeout).
        for bad in (["--kappa", "2"], ["--bogus"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(["learn", sample_file, *bad])
            assert exc.value.code == cli.EXIT_USAGE
        capsys.readouterr()


class TestLearnDt:
    def test_outputs_parseable_tree(self, sample_file, capsys):
        code, out, err = run(["learn-dt", sample_file], capsys)
        assert code == cli.EXIT_OK
        sample = parse_sample(BASIC)
        tree = parse_tree(out.strip(), sample.alphabet)
        assert tree_loss(sample, tree) == 0

    def test_size_cap_prints_tree_and_warning(self, tmp_path):
        # The root split needs a size-2 formula: a majority leaf, a
        # warning and exit 0, not a traceback.
        path = tmp_path / "s.txt"
        path.write_text("1,0\n0,1\n---\n1,1\n0,0\n")
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-m", "ltlfmine", "learn-dt", str(path),
             "--max-size", "1"], env=env, capture_output=True, text=True)
        assert done.returncode == cli.EXIT_OK, done.stderr
        assert done.stdout == "(leaf true)\n"
        assert "warning: no split formula up to size 1" in done.stderr
        assert "Traceback" not in done.stderr

    def test_negative_max_depth_rejected(self, sample_file, capsys):
        code, out, err = run(["learn-dt", sample_file, "--max-depth", "-1"],
                             capsys)
        assert code == cli.EXIT_USAGE
        assert out == "" and "max_depth" in err

    def test_max_size_zero_rejected_on_one_class_sample(self, tmp_path,
                                                       capsys):
        # One class: no split runs the learner, the parser still refuses.
        path = tmp_path / "s.txt"
        path.write_text("1,0\n0,1\n---\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["learn-dt", str(path), "--max-size", "0"])
        assert exc.value.code == cli.EXIT_USAGE
        assert capsys.readouterr().out == ""

    def test_negative_timeout_rejected(self, sample_file, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["learn-dt", sample_file, "--timeout", "-0.5"])
        assert exc.value.code == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "at least 0" in captured.err

    def test_timeout_help_names_each_learner_call(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["learn-dt", "--help"])
        out = capsys.readouterr().out
        assert "each learner call" in out and "one per split" in out


class TestGen:
    def test_deterministic_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["gen", "existence1", "--traces", "16", "--seed", "3"]
        assert cli.main(args + ["-o", str(a)]) == cli.EXIT_OK
        assert cli.main(args + ["-o", str(b)]) == cli.EXIT_OK
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_generated_sample_loads(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        cli.main(["gen", "absence2", "--traces", "12", "-o", str(out)])
        capsys.readouterr()
        assert load_sample(str(out)).size == 12

    def test_stdout_output(self, capsys):
        code, out, _ = run(["gen", "absence1", "--traces", "6"], capsys)
        assert code == cli.EXIT_OK
        assert out.startswith("# pattern: absence1")

    def test_runs_as_module(self):
        # `python -m ltlfmine` from a source checkout, with no install.
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run(
            [sys.executable, "-m", "ltlfmine", "gen", "absence1",
             "--traces", "6"], env=env, capture_output=True, text=True)
        assert done.returncode == cli.EXIT_OK, done.stderr
        assert done.stdout.startswith("# pattern: absence1")


class TestBench:
    def test_writes_csv_and_summary(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code, _, err = run([
            "bench", "--patterns", "existence1", "--sizes", "10",
            "--seeds", "0", "1", "--timeout", "60", "-o", str(out)], capsys)
        assert code == cli.EXIT_OK
        with open(out) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2
        assert all(r["status"] == "solved" for r in rows)
        assert "mean runtime (timeouts = 60.0s)" in err
        assert "mean runtime (solved only)" in err

    def test_appends_to_existing_csv(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        args = ["bench", "--patterns", "existence1", "--sizes", "8",
                "--seeds", "0", "-o", str(out)]
        run(args, capsys)
        run(args, capsys)
        with open(out) as handle:
            content = handle.read()
        assert content.count("pattern,") == 1  # header written once
        assert len(list(csv.DictReader(io.StringIO(content)))) == 2

    def test_process_pool_rows_match_serial_rows(self, tmp_path, capsys):
        rows = {}
        for jobs in ("1", "2"):
            out = tmp_path / f"bench{jobs}.csv"
            code, _, _ = run([
                "bench", "--patterns", "existence1", "universality1",
                "--sizes", "8", "--jobs", jobs, "-o", str(out)], capsys)
            assert code == cli.EXIT_OK
            with open(out) as handle:
                rows[jobs] = [{k: v for k, v in row.items()
                               if k != "runtime_s"}
                              for row in csv.DictReader(handle)]
        assert len(rows["1"]) == 2
        assert rows["2"] == rows["1"]

    def test_jobs_start_at_most_one_process_per_sample(self, tmp_path,
                                                       capsys, monkeypatch):
        # A process pool under fork starts all its workers at the first
        # task, so the worker count is capped by the number of samples.
        pools = []

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            SerialPool)
        code, _, _ = run([
            "bench", "--patterns", "existence1", "--sizes", "8",
            "--jobs", "64", "-o", str(tmp_path / "b.csv")], capsys)
        assert code == cli.EXIT_OK
        assert pools == [1]

    def test_unknown_pattern(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bench", "--patterns", "nope",
                      "-o", str(tmp_path / "x.csv")])
        assert exc.value.code == cli.EXIT_USAGE
        assert "nope" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("args", [
        ["--patterns"], ["--sizes", "--patterns", "absence1"],
        ["--patterns", "absence1", "--seeds"]])
    def test_empty_list_is_usage_error(self, tmp_path, capsys, args):
        out = tmp_path / "b.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main(["bench", *args, "-o", str(out)])
        assert exc.value.code == cli.EXIT_USAGE
        assert not out.exists()
        capsys.readouterr()

    @pytest.mark.parametrize("args", [
        ["--jobs", "0"], ["--max-size", "0"], ["--jobs", "-2"]])
    def test_counts_below_one_rejected(self, tmp_path, capsys, args):
        out = tmp_path / "b.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main(["bench", "--patterns", "existence1", "--sizes", "8",
                      *args, "-o", str(out)])
        assert exc.value.code == cli.EXIT_USAGE
        assert "at least 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("timeout", ["-5", "nan"])
    def test_negative_timeout_writes_no_csv(self, tmp_path, capsys, timeout):
        out = tmp_path / "b.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main(["bench", "--patterns", "absence1", "--sizes", "8",
                      "--timeout", timeout, "-o", str(out)])
        assert exc.value.code == cli.EXIT_USAGE
        assert "at least 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["--sizes", "1"], ["--noise", "1.5"], ["--max-length", "0"]])
    def test_bad_spec_writes_no_csv(self, tmp_path, capsys, args):
        out = tmp_path / "b.csv"
        code, _, err = run(["bench", "--patterns", "absence1", "--sizes", "8",
                            *args, "-o", str(out)], capsys)
        assert code == cli.EXIT_USAGE
        assert err.startswith("error: ")
        assert not out.exists()

    def test_timed_out_rows_charged_full_budget(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code, _, _ = run([
            "bench", "--patterns", "universality2", "--sizes", "30",
            "--seeds", "0", "--timeout", "0.0001", "-o", str(out)], capsys)
        assert code == cli.EXIT_OK
        with open(out) as handle:
            rows = list(csv.DictReader(handle))
        assert rows[0]["timed_out"] == "1"
        assert float(rows[0]["runtime_s"]) == pytest.approx(0.0001)


class TestExportWcnf:
    def test_export_parses_back(self, sample_file, tmp_path, capsys):
        out = tmp_path / "inst.wcnf"
        code, _, _ = run(["export-wcnf", sample_file, "2", "-o", str(out)],
                         capsys)
        assert code == cli.EXIT_OK
        wcnf = parse_wcnf(out.read_text())
        assert wcnf.nvars > 0
        assert len(wcnf.soft) == 4  # one soft unit per trace

    def test_var_comments(self, sample_file, capsys):
        code, out, _ = run(
            ["export-wcnf", sample_file, "1", "--var-comments"], capsys)
        assert code == cli.EXIT_OK
        assert "c var 1 x 1 p0" in out

    def test_import_model_round_trip(self, sample_file, tmp_path, capsys):
        # Solve externally (here: the built-in decision at full weight,
        # its model cut to the instance's variables) and decode through
        # the import path.
        from fractions import Fraction

        from ltlfmine.encoding import EncodingInstance
        from ltlfmine.learner import resolve_omega
        from ltlfmine.maxsat import FEASIBLE
        from helpers import decide

        sample = load_sample(sample_file)
        inst = EncodingInstance(2, sample, resolve_omega(sample, "uniform"))
        result = decide(inst.wcnf, Fraction(1))
        assert result.status == FEASIBLE
        lits = [v if result.assignment[v] else -v
                for v in range(1, inst.wcnf.nvars + 1)]
        model_path = tmp_path / "model.txt"
        model_path.write_text("v " + " ".join(map(str, lits)) + " 0\n")
        code, out, err = run(
            ["export-wcnf", sample_file, "2",
             "--import-model", str(model_path)], capsys)
        assert code == cli.EXIT_OK
        f = parse_formula(out.strip(), sample.alphabet)
        assert f == inst.decode_model(result.assignment)
        assert "loss: 0" in err

    def test_invalid_size(self, sample_file, capsys):
        for bad in ("0", "-2", "three"):
            with pytest.raises(SystemExit) as exc:
                cli.main(["export-wcnf", sample_file, bad])
            assert exc.value.code == cli.EXIT_USAGE
        capsys.readouterr()

    def test_import_model_rejects_unknown_variable(self, sample_file,
                                                   tmp_path, capsys):
        model_path = tmp_path / "model.txt"
        model_path.write_text("v 1 -2 100000 0\n")
        code, _, err = run(
            ["export-wcnf", sample_file, "2",
             "--import-model", str(model_path)], capsys)
        assert code == cli.EXIT_USAGE
        assert "100000" in err and "outside" in err

    def test_missing_model_file(self, sample_file, tmp_path, capsys):
        code, _, err = run(
            ["export-wcnf", sample_file, "2",
             "--import-model", str(tmp_path / "absent.txt")], capsys)
        assert code == cli.EXIT_USAGE
        assert "error:" in err
