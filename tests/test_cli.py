"""Command-line surface: exit codes, manifests, and a mini end-to-end run."""

import ctypes
import hashlib
import inspect
import json
import shutil
import subprocess
import sys

import pytest

from hvfcast import cli
from hvfcast.domain import save_dataset
from hvfcast.evaluation import _MAX_BOOTSTRAP, evaluate_testset
from hvfcast.models import Model, ModelSpec, build_model, load_weights, save_weights
from hvfcast.pipeline import BIN_CENTERS, split_patients
from hvfcast.synthsim import CohortConfig
from hvfcast.trainer import TrainConfig

from conftest import checkpoint_digest, child_env, equal_length_spec


def run_cli(*argv) -> int:
    return cli.main(list(argv))


def plan_sha256(path) -> str:
    """The `split_sha256` of the plan file at `path`, as the README states
    it: the sha256 of the plan as sorted-key JSON."""
    return hashlib.sha256(json.dumps(json.loads(path.read_text()), sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, small_cohort):
    """Dataset + pairs + split files for the 36-patient cohort."""
    _, fields, _ = small_cohort
    root = tmp_path_factory.mktemp("cli")
    data = root / "d.jsonl"
    save_dataset(fields, data)
    assert run_cli("pairs", "--data", str(data), "--out", str(root / "pairs.jsonl")) == 0
    assert run_cli("split", "--data", str(data), "--seed", "17", "--out", str(root / "split.json")) == 0
    return root


@pytest.fixture(scope="module")
def trained(workdir):
    """A one-epoch interval chain over the fixture cohort."""
    code = run_cli(
        "train", "--phase", "intervals",
        "--data", str(workdir / "d.jsonl"),
        "--pairs", str(workdir / "pairs.jsonl"),
        "--split", str(workdir / "split.json"),
        "--out", str(workdir / "runs"),
        "--arch", "Cascade-1", "--combo", "age",
        "--epochs", "1", "--widths", "2,3,4", "--seed", "3", "--workers", "2",
    )
    assert code == 0
    return workdir


@pytest.fixture(scope="module")
def report_json(trained, tmp_path_factory):
    """The report.json of the `trained` chain."""
    out = tmp_path_factory.mktemp("report") / "report.json"
    assert _evaluate(trained, trained / "runs", out) == 0
    return out


@pytest.fixture(scope="module")
def features_run(workdir):
    """A complete one-epoch features phase (FullyConnected, 16 combos x 10 folds)."""
    runs = workdir / "runs-features"
    code = run_cli(
        "train", "--phase", "features",
        "--data", str(workdir / "d.jsonl"),
        "--pairs", str(workdir / "pairs.jsonl"),
        "--split", str(workdir / "split.json"),
        "--out", str(runs),
        "--arch", "FullyConnected",
        "--epochs", "1", "--widths", "2,3,4", "--fc-hidden", "8", "--seed", "3", "--workers", "2",
    )
    assert code == 0
    return runs


class TestBasics:
    def test_console_script_version(self):
        """Also a guard on the package `__init__`: importing a submodule there
        makes runpy warn that `hvfcast.cli` is already in sys.modules."""
        out = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "hvfcast.cli", "--version"],
            capture_output=True, text=True, env=child_env(),
        )
        assert out.returncode == 0
        assert "hvfcast" in out.stdout

    def test_start_up_does_not_import_scipy(self):
        """scipy.stats is about a second of start-up; only `evaluate` needs it."""
        code = "import sys, hvfcast.cli; sys.exit('scipy' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env=child_env()).returncode == 0

    def test_unknown_flag_exits_1(self, capsys):
        assert run_cli("simulate", "--bogus") == 1
        assert "error" in capsys.readouterr().err

    def test_missing_subcommand_exits_1(self):
        assert run_cli() == 1

    def test_duplicate_record_exits_2(self, workdir, tmp_path, capsys):
        lines = (workdir / "d.jsonl").read_text().splitlines()
        dup = tmp_path / "dup.jsonl"
        dup.write_text("\n".join(lines + [lines[0]]) + "\n")
        code = run_cli("pairs", "--data", str(dup), "--out", str(tmp_path / "p.jsonl"))
        assert code == 2
        assert f"error: {dup}: line {len(lines) + 1}: duplicate record" in capsys.readouterr().err

    @pytest.mark.parametrize("key, bad", [("age", "null"), ("age", '"old"'), ("value", '"12.5"'), ("value", "null")])
    def test_non_number_field_exits_2_with_line(self, workdir, tmp_path, capsys, key, bad):
        lines = (workdir / "d.jsonl").read_text().splitlines()[:3]
        obj = json.loads(lines[1])
        if key == "age":
            obj["age"] = json.loads(bad)
        else:
            obj["values"][0] = json.loads(bad)
        lines[1] = json.dumps(obj)
        data = tmp_path / "d.jsonl"
        data.write_text("\n".join(lines) + "\n")
        code = run_cli("pairs", "--data", str(data), "--out", str(tmp_path / "p.jsonl"))
        assert code == 2
        subject = "'age'" if key == "age" else "values[0]"
        assert f"error: {data}: line 2: {subject} must be an int or a float, got {json.loads(bad)!r}" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        "age, problem",
        [("1e400", "'age' must be a finite number, got inf"),
         ("Infinity", "malformed JSON: Infinity is not a JSON number"),
         ("NaN", "malformed JSON: NaN is not a JSON number")],
    )
    def test_non_finite_age_exits_2_with_line(self, workdir, tmp_path, capsys, age, problem):
        lines = (workdir / "d.jsonl").read_text().splitlines()[:3]
        obj = json.loads(lines[1])
        obj["age"] = "AGE"
        lines[1] = json.dumps(obj).replace('"AGE"', age)
        data = tmp_path / "d.jsonl"
        data.write_text("\n".join(lines) + "\n")
        assert run_cli("pairs", "--data", str(data), "--out", str(tmp_path / "p.jsonl")) == 2
        assert capsys.readouterr().err == f"error: {data}: line 2: {problem}\n"

    def test_missing_input_file_exits_2(self, tmp_path, capsys):
        code = run_cli("pairs", "--data", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "p.jsonl"))
        assert code == 2

    def test_undecodable_dataset_byte_exits_2_with_line(self, workdir, tmp_path, capsys):
        text = (workdir / "d.jsonl").read_bytes()
        data = tmp_path / "d.jsonl"
        data.write_bytes(text + b"\xff")
        lineno = text.count(b"\n") + 1
        assert run_cli("pairs", "--data", str(data), "--out", str(tmp_path / "p.jsonl")) == 2
        assert capsys.readouterr().err == (
            f"error: {data}: line {lineno}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
        )


def _full_parser_outcome(argv, capsys) -> tuple:
    try:
        cli.build_parser().parse_args(argv)
        code = None
    except SystemExit as e:
        code = int(e.code) if e.code is not None else 0
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParser:
    """`main` builds only the requested subcommand's parser; what a caller
    sees must not depend on that."""

    @pytest.mark.parametrize("argv", [
        *([name, "--help"] for name in cli._SUBCOMMANDS),
        ["--help"],
        ["--version"],
        [],
        ["simulat", "--out", "x"],
        ["predict", "--interval", "1.0", "--out", "x"],
        ["train", "--data", "d", "--pairs", "p", "--split", "s", "--out", "r"],
        ["predict", "--interval", "1.0", "--runs", "r", "--out", "x", "--bogus"],
        ["train", "--phase", "nope", "--data", "d", "--pairs", "p", "--split", "s", "--out", "r"],
    ], ids=lambda argv: " ".join(argv) or "no-arguments")
    def test_same_outcome_as_full_parser(self, argv, capsys):
        expected = _full_parser_outcome(argv, capsys)
        code = run_cli(*argv)
        out = capsys.readouterr()
        assert (code, out.out, out.err) == expected
        assert expected[0] is not None and (expected[1] or expected[2])

    def test_main_builds_one_subparser_for_a_known_command(self, monkeypatch, capsys):
        built = []

        def recording(command=None):
            parser = build_parser(command)
            built.append(list(parser._subparsers._group_actions[0].choices))
            return parser

        build_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", recording)
        run_cli("predict", "--help")
        run_cli("--version")
        assert built == [["predict"], list(cli._SUBCOMMANDS)]

    def test_defaults_are_their_owners(self):
        """A flag left out means what the library call left without that
        argument means."""
        def parsed(*argv):
            return cli.build_parser().parse_args(list(argv))

        sim = parsed("simulate", "--out", "d")
        cohort = CohortConfig()
        assert ((sim.patients, (sim.tests_min, sim.tests_max), (sim.span_min, sim.span_max),
                 (sim.rate_min, sim.rate_max), sim.noise, sim.archetype)
                == (cohort.patients, cohort.tests_per_eye, cohort.followup_years, cohort.rate_range,
                    cohort.noise, None))
        train = parsed("train", "--phase", "arch", "--data", "d", "--pairs", "p", "--split", "s", "--out", "r")
        cfg = TrainConfig()
        assert ((train.batch_size, train.lr, train.fc_hidden, train.freeze)
                == (cfg.batch_size, cfg.lr, cfg.fc_hidden, cfg.freeze))
        split = parsed("split", "--data", "d", "--out", "s")
        assert split.ratio == inspect.signature(split_patients).parameters["ratio"].default
        evaluate = parsed("evaluate", "--data", "d", "--pairs", "p", "--split", "s", "--runs", "r", "--out", "o")
        assert evaluate.bootstrap_n == inspect.signature(evaluate_testset).parameters["n_bootstrap"].default


class TestSimulate:
    def test_identical_files_for_same_seed(self, tmp_path):
        args = ["simulate", "--patients", "25", "--seed", "7"]
        assert run_cli(*args, "--out", str(tmp_path / "a.jsonl")) == 0
        assert run_cli(*args, "--out", str(tmp_path / "b.jsonl")) == 0
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_writes_meta_and_manifest(self, tmp_path):
        assert run_cli("simulate", "--patients", "21", "--seed", "1", "--out", str(tmp_path / "d.jsonl")) == 0
        assert (tmp_path / "cohort_meta.json").is_file()
        manifest = json.loads((tmp_path / "d.jsonl.run_manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert "started_at" in manifest and "finished_at" in manifest

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HVFCAST_SEED", "55")
        assert run_cli("simulate", "--patients", "21", "--out", str(tmp_path / "a.jsonl")) == 0
        monkeypatch.delenv("HVFCAST_SEED")
        assert run_cli("simulate", "--patients", "21", "--seed", "55", "--out", str(tmp_path / "b.jsonl")) == 0
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_bad_archetype_weight_exits_1(self):
        assert run_cli("simulate", "--archetype", "normal", "--out", "x.jsonl") == 1

    def test_follow_up_too_short_for_interior_visits_exits_2(self, tmp_path, capsys):
        """Interior visits fall between 0.2 years and the span minus 0.2."""
        args = ["simulate", "--patients", "5", "--span-min", "0.1", "--span-max", "0.3"]
        assert run_cli(*args, "--out", str(tmp_path / "a.jsonl")) == 2
        assert "followup_years minimum 0.1 is under 0.4 years, too short for 8 tests per eye" in (
            capsys.readouterr().err
        )
        assert run_cli(*args, "--tests-min", "2", "--tests-max", "2", "--out", str(tmp_path / "b.jsonl")) == 0


def _seeded_command(command: str, root) -> tuple[list[str], str]:
    """A command line of `command` whose input files do not exist, and its
    seed flag: a seed that is checked first exits 1, not 2."""
    missing = str(root / "missing")
    inputs = ["--data", missing, "--pairs", missing, "--split", missing]
    return {
        "simulate": (["simulate", "--patients", "2", "--out", str(root / "d.jsonl")], "--seed"),
        "split": (["split", "--data", missing, "--out", str(root / "s.json")], "--seed"),
        "train": (["train", "--phase", "arch", *inputs, "--out", str(root / "runs")], "--seed"),
        "evaluate": (["evaluate", *inputs, "--runs", missing, "--out", str(root / "r.json")], "--bootstrap-seed"),
    }[command]


class TestSettings:
    """Every seed takes one rule, and a non-numeric or non-finite setting
    fails with a message before any work, not with a traceback."""

    @pytest.mark.parametrize("via", ["flag", "environment"])
    @pytest.mark.parametrize("bad", ["-1", "abc", "2.5", "+7"])
    @pytest.mark.parametrize("command", ["simulate", "split", "train", "evaluate"])
    def test_bad_seed_exits_1_before_any_work(self, tmp_path, capsys, monkeypatch, command, bad, via):
        argv, flag = _seeded_command(command, tmp_path)
        if via == "flag":
            argv += [flag, bad]
            message = f"argument {flag}: a seed must be a non-negative integer, got {bad!r}"
        else:
            monkeypatch.setenv("HVFCAST_SEED", bad)
            message = f"HVFCAST_SEED: a seed must be a non-negative integer, got {bad!r}"
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert message in err
        assert err.startswith("usage: ") == (via == "flag")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("widths", ["\u00b2,8,12", "4,8,1\u00b9"])
    def test_non_decimal_digit_in_widths_exits_1_with_the_widths_message(self, tmp_path, capsys, widths):
        """A superscript digit passes `str.isdigit` but is no integer: the
        value takes the widths rule's message, as a seed takes its rule."""
        code = run_cli("train", "--phase", "arch", "--data", "d", "--pairs", "p", "--split", "s",
                       "--out", str(tmp_path / "runs"), "--widths", widths)
        assert code == 1
        err = capsys.readouterr().err
        assert f"argument --widths: widths must be three integers, got {widths!r}" in err
        assert "_parse_widths" not in err
        assert list(tmp_path.iterdir()) == []

    def test_non_numeric_archetype_weight_exits_1(self, tmp_path, capsys):
        out = tmp_path / "d.jsonl"
        assert run_cli("simulate", "--patients", "2", "--archetype", "normal=x", "--out", str(out)) == 1
        assert "expected NAME=WEIGHT, got 'normal=x'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, name",
        [
            ("--archetype", "normal=nan", "archetype_mix"),
            ("--archetype", "normal=inf", "archetype_mix"),
            ("--span-min", "nan", "followup_years"),
            ("--span-max", "inf", "followup_years"),
            ("--rate-min", "nan", "rate_range"),
            ("--rate-max", "inf", "rate_range"),
        ],
    )
    def test_non_finite_cohort_setting_exits_2(self, tmp_path, capsys, flag, value, name):
        out = tmp_path / "d.jsonl"
        assert run_cli("simulate", "--patients", "2", flag, value, "--out", str(out)) == 2
        assert f"{name} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lr", ["nan", "inf", "0", "-1e-3"])
    def test_lr_not_finite_and_positive_exits_2_before_any_work(self, workdir, tmp_path, capsys, lr):
        runs = tmp_path / "runs"
        code = run_cli(
            "train", "--phase", "arch",
            "--data", str(workdir / "d.jsonl"),
            "--pairs", str(workdir / "pairs.jsonl"),
            "--split", str(workdir / "split.json"),
            "--out", str(runs), f"--lr={lr}",
        )
        assert code == 2
        assert "lr must be finite and > 0" in capsys.readouterr().err
        assert not runs.exists()


class TestSplitCommand:
    def test_seed_echoed(self, workdir):
        plan = json.loads((workdir / "split.json").read_text())
        assert plan["seed"] == 17
        assert len(plan["folds"]) == 10

    @pytest.mark.parametrize("ratio", ["nan", "0", "1", "1.5", "0.99"])
    def test_ratio_without_train_and_test_patients_exits_2(self, workdir, tmp_path, capsys, ratio):
        out = tmp_path / "split.json"
        code = run_cli("split", "--data", str(workdir / "d.jsonl"), "--ratio", ratio, "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err.startswith("error: split ratio ")
        assert not out.exists()


class TestTrainAndEvaluate:
    def test_checkpoints_on_disk(self, trained):
        runs = trained / "runs"
        assert (runs / "intervals" / "chain_result.json").is_file()
        assert (runs / "intervals" / "bin-1.0" / "fold-0" / "weights.bin").is_file()
        assert (runs / "run_manifest.json").is_file()

    def test_chain_result_records_spec_and_config(self, trained):
        """chain_result.json echoes the chain's spec and, as phase_result.json
        does, the training config and its phase; the worker count is no
        part of the echo, so results stay independent of it."""
        chain = json.loads((trained / "runs" / "intervals" / "chain_result.json").read_text())
        spec = ModelSpec.from_dict(chain["spec"])
        assert (spec.name, spec.widths, spec.in_channels) == ("Cascade-1", (2, 3, 4), 2)
        manifest = json.loads((trained / "runs" / "intervals" / "bin-1.0" / "fold-0" / "manifest.json").read_text())
        assert chain["spec"] == manifest["spec"] | {"seed": chain["spec"]["seed"]}
        assert chain["config"] == TrainConfig(epochs=1, widths=(2, 3, 4), seed=3).to_json_dict() | {
            "phase": "intervals"}

    def test_train_manifest_records_allocator_setting(self, trained):
        manifest = json.loads((trained / "runs" / "run_manifest.json").read_text())
        if hasattr(ctypes.CDLL(None), "mallopt"):
            assert manifest["allocator"] == {"mmap_threshold": 32 << 20, "trim_threshold": 256 << 20}
        else:
            assert manifest["allocator"] is None

    def test_train_manifest_records_peak_rss_and_cpu(self, trained):
        """The `trained` chain ran on two pool workers, so the reaped children
        have a peak RSS and CPU time of their own."""
        resources = json.loads((trained / "runs" / "run_manifest.json").read_text())["resources"]
        assert set(resources) == {"self", "children"}
        for who, usage in resources.items():
            assert set(usage) == {"peak_rss_mb", "cpu_s"}
            for name, value in usage.items():
                assert type(value) is float and value > 0, (who, name, value)

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exits_1(self, workdir, tmp_path, capsys, workers):
        code = run_cli(
            "train", "--phase", "intervals",
            "--data", str(workdir / "d.jsonl"),
            "--pairs", str(workdir / "pairs.jsonl"),
            "--split", str(workdir / "split.json"),
            "--out", str(tmp_path / "runs"),
            "--arch", "Cascade-1", "--combo", "age", "--workers", workers,
        )
        assert code == 1
        assert capsys.readouterr().err == "error: --workers must be >= 1\n"
        assert not (tmp_path / "runs").exists()

    def test_divergence_exits_3(self, workdir, capsys):
        code = run_cli(
            "train", "--phase", "arch",
            "--data", str(workdir / "d.jsonl"),
            "--pairs", str(workdir / "pairs.jsonl"),
            "--split", str(workdir / "split.json"),
            "--out", str(workdir / "runs-diverged"),
            "--epochs", "2", "--widths", "2,3,4", "--fc-hidden", "8",
            "--lr", "1e300", "--seed", "3",
        )
        assert code == 3
        assert "divergence" in capsys.readouterr().err

    @pytest.mark.parametrize("lr, code", [("1e-3", 0), ("1e300", 3)])
    def test_chain_exit_code_counts_diverged_cells_not_empty_bins(self, workdir, tmp_path, capsys, lr, code):
        """Empty bins leave gaps at any rate; only a diverged cell fails the
        chain, and its chain_result.json is still written."""
        runs = tmp_path / "runs"
        got = run_cli(
            "train", "--phase", "intervals",
            "--data", str(workdir / "d.jsonl"),
            "--pairs", str(workdir / "pairs.jsonl"),
            "--split", str(workdir / "split.json"),
            "--out", str(runs),
            "--arch", "Cascade-1", "--combo", "age", "--lr", lr,
            "--epochs", "1", "--widths", "2,3,4", "--seed", "3",
        )
        entries = json.loads((runs / "intervals" / "chain_result.json").read_text())["entries"]
        diverged = sum(1 for e in entries if e["error"])
        empty = sum(1 for e in entries if e["gap"]) - diverged
        out, err = capsys.readouterr()
        assert got == code
        assert empty > 0 and (diverged > 0) == (code == 3)
        assert f"({empty} empty-bin gaps, {diverged} diverged)" in out
        assert (f"divergence in {diverged} interval chain cells" in err) == (code == 3)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_diverging_chain_writes_only_its_error_line(self, workdir, tmp_path, workers):
        """Numpy's floating-point warnings end the job, in the main process
        and in pool workers, instead of reaching stderr."""
        proc = subprocess.run(
            [sys.executable, "-m", "hvfcast.cli", "train", "--phase", "intervals",
             "--data", str(workdir / "d.jsonl"), "--pairs", str(workdir / "pairs.jsonl"),
             "--split", str(workdir / "split.json"), "--out", str(tmp_path / "runs"),
             "--arch", "Cascade-1", "--combo", "age", "--lr", "1e300",
             "--epochs", "1", "--widths", "2,3,4", "--seed", "3", "--workers", workers],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr

    def test_arch_phase_result_written_once_and_complete(self, workdir, monkeypatch):
        from hvfcast import models, trainer

        writes = []

        def counting_write_json(path, obj):
            writes.append(path)
            models.write_json(path, obj)

        monkeypatch.setattr(trainer, "write_json", counting_write_json)
        monkeypatch.setattr(cli, "write_json", counting_write_json)
        runs = workdir / "runs-arch"
        code = run_cli(
            "train", "--phase", "arch",
            "--data", str(workdir / "d.jsonl"),
            "--pairs", str(workdir / "pairs.jsonl"),
            "--split", str(workdir / "split.json"),
            "--out", str(runs),
            "--epochs", "1", "--widths", "2,3,4", "--fc-hidden", "8", "--seed", "3",
        )
        assert code == 0
        assert [p for p in writes if p.name == "phase_result.json"] == [runs / "arch" / "phase_result.json"]
        result = json.loads((runs / "arch" / "phase_result.json").read_text())
        assert {"matrix", "winner", "published_comparison", "trained_parameters", "config"} <= set(result)
        assert result["config"]["phase"] == "arch" and result["config"]["seed"] == 3
        assert len(result["trained_parameters"]) == len(result["candidates"]) == 9

    def test_needs_phase_results_without_flags(self, workdir, capsys):
        code = run_cli(
            "train", "--phase", "intervals",
            "--data", str(workdir / "d.jsonl"),
            "--pairs", str(workdir / "pairs.jsonl"),
            "--split", str(workdir / "split.json"),
            "--out", str(workdir / "runs-noarch"),
        )
        assert code == 2
        assert "train --phase arch" in capsys.readouterr().err

    def test_evaluate_writes_report_and_csv(self, trained):
        code = run_cli(
            "evaluate",
            "--data", str(trained / "d.jsonl"),
            "--pairs", str(trained / "pairs.jsonl"),
            "--split", str(trained / "split.json"),
            "--runs", str(trained / "runs"),
            "--combo", "age",
            "--bootstrap-seed", "1", "--bootstrap-n", "100",
            "--out", str(trained / "report.json"),
        )
        assert code == 0
        report = json.loads((trained / "report.json").read_text())
        assert report["overall"]["rmse"] >= report["overall"]["mae"]
        assert report["reference"]["overall_mae_db"] == 2.47
        assert not (trained / "report.csv").exists()

    def test_evaluate_without_test_pairs_exits_2(self, trained, tmp_path, capsys):
        empty = tmp_path / "empty_pairs.jsonl"
        empty.write_text("")
        code = run_cli(
            "evaluate",
            "--data", str(trained / "d.jsonl"),
            "--pairs", str(empty),
            "--split", str(trained / "split.json"),
            "--runs", str(trained / "runs"),
            "--combo", "age",
            "--out", str(tmp_path / "r.json"),
        )
        assert code == 2

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_bootstrap_n_below_one_exits_2_before_any_forward(self, trained, tmp_path, capsys, monkeypatch, n):
        forwards = []
        monkeypatch.setattr(Model, "forward", lambda *args: forwards.append(args))
        out = tmp_path / "report.json"
        assert _evaluate(trained, trained / "runs", out, "--bootstrap-n", n) == 2
        assert capsys.readouterr().err == f"error: n_bootstrap must be >= 1, got {n}\n"
        assert forwards == [] and not out.exists()

    def test_bootstrap_n_above_maximum_exits_2_before_any_forward(self, trained, tmp_path, capsys, monkeypatch):
        """A count whose indices, drawn at once, would not fit in memory."""
        forwards = []
        monkeypatch.setattr(Model, "forward", lambda *args: forwards.append(args))
        out = tmp_path / "report.json"
        assert _evaluate(trained, trained / "runs", out, "--bootstrap-n", "99999999999") == 2
        assert capsys.readouterr().err == f"error: n_bootstrap must be <= {_MAX_BOOTSTRAP}, got 99999999999\n"
        assert forwards == [] and not out.exists()

    def test_report_splits_csvs(self, trained, tmp_path):
        out_dir = tmp_path / "csv"
        assert run_cli("report", "--report", str(trained / "report.json"), "--out-dir", str(out_dir)) == 0
        for name in ("report_md_scatter.csv", "report_bland_altman.csv", "report_bin_mae.csv"):
            assert (out_dir / name).is_file()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[]", "must be an object, got []"),
            ('{"rows": {"bland_altman": []}, "per_bin": []}', "rows: 'md_scatter' is missing"),
            ('{"rows": {"md_scatter": []}, "per_bin": []}', "rows: 'bland_altman' is missing"),
            ('{"rows": {"md_scatter": [], "bland_altman": []}}', "'per_bin' is missing"),
            ('{"rows": 5, "per_bin": []}', "'rows' must be an object, got 5"),
            ("{", "Expecting property name enclosed in double quotes"),
            ("[" * 100_000, "maximum recursion depth exceeded"),
        ],
        ids=["list", "no-md-scatter", "no-bland-altman", "no-per-bin", "rows-int", "bad-json", "too-deep"],
    )
    def test_malformed_report_exits_2_naming_it(self, tmp_path, capsys, text, message):
        report = tmp_path / "report.json"
        report.write_text(text)
        assert run_cli("report", "--report", str(report), "--out-dir", str(tmp_path / "csv")) == 2
        assert capsys.readouterr().err.startswith(f"error: {report}: {message}")

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda r: r.update(per_bin=[{}]), "per_bin[0]: 'bin' is missing"),
            (lambda r: r.update(per_bin=[5]), "per_bin[0] must be an object, got 5"),
            (lambda r: r["rows"].update(md_scatter=[{}]), "rows.md_scatter[0]: 'predicted_md' is missing"),
            (lambda r: r["per_bin"][0].update(mae_ci="x"),
             "per_bin[0]: 'mae_ci' must be a list of 2 items or null, got 'x'"),
        ],
        ids=["per-bin-empty-row", "per-bin-int-row", "md-scatter-empty-row", "mae-ci-str"],
    )
    def test_malformed_report_row_exits_2_naming_it(self, report_json, tmp_path, capsys, edit, message):
        report = json.loads(report_json.read_text())
        edit(report)
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        assert run_cli("report", "--report", str(path), "--out-dir", str(tmp_path / "csv")) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_nan_in_report_exits_2_naming_it(self, report_json, tmp_path, capsys):
        """JSON has no NaN; json.dumps writes one and json.loads reads it, but no reader does."""
        report = json.loads(report_json.read_text())
        report["per_bin"][0]["mae"] = float("nan")
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        assert run_cli("report", "--report", str(path), "--out-dir", str(tmp_path / "csv")) == 2
        assert capsys.readouterr().err == f"error: {path}: NaN is not a JSON number\n"
        assert not (tmp_path / "csv").exists()

    def test_number_beyond_float_range_in_report_exits_2_naming_it(self, report_json, tmp_path, capsys):
        """json reads 1e400 as inf, without the hook that refuses NaN."""
        report = json.loads(report_json.read_text())
        report["per_bin"][0]["mae"] = "MAE"
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report).replace('"MAE"', "1e400"))
        assert run_cli("report", "--report", str(path), "--out-dir", str(tmp_path / "csv")) == 2
        assert capsys.readouterr().err == f"error: {path}: per_bin[0]: 'mae' must be a finite number, got inf\n"
        assert not (tmp_path / "csv").exists()


def _evaluate(workdir, runs, out, *extra, split=None):
    return run_cli(
        "evaluate",
        "--data", str(workdir / "d.jsonl"),
        "--pairs", str(workdir / "pairs.jsonl"),
        "--split", str(split or workdir / "split.json"),
        "--runs", str(runs), "--bootstrap-n", "20", "--out", str(out), *extra,
    )


def _predict(workdir, field, runs, out, interval="1.0", *extra):
    return run_cli(
        "predict", "--interval", interval,
        "--data", str(workdir / "d.jsonl"),
        "--patient", field.patient_id, "--eye", "OD" if field.eye == "right" else "OS",
        "--test-index", str(field.test_index),
        "--runs", str(runs), "--out", str(out), *extra,
    )


@pytest.fixture(scope="module")
def gapped_rerun(trained, tmp_path_factory):
    """The `trained` chain re-run into a copy of its tree from a pairs file
    that holds only the first five bins: the old checkpoints of the other
    bins stay on disk, where the new chain records gaps."""
    root = tmp_path_factory.mktemp("rerun")
    runs = root / "runs"
    shutil.copytree(trained / "runs", runs)
    lines = (trained / "pairs.jsonl").read_text().splitlines()
    (root / "pairs.jsonl").write_text("".join(
        f"{line}\n" for line in lines if json.loads(line)["bin"] in BIN_CENTERS[:5]))
    code = run_cli(
        "train", "--phase", "intervals",
        "--data", str(trained / "d.jsonl"),
        "--pairs", str(root / "pairs.jsonl"),
        "--split", str(trained / "split.json"),
        "--out", str(runs),
        "--arch", "Cascade-1", "--combo", "age",
        "--epochs", "1", "--widths", "2,3,4", "--seed", "3", "--workers", "2",
    )
    assert code == 0
    return runs


class TestServeWhatTheChainRecorded:
    """evaluate and predict take their combo and checkpoints from
    `intervals/chain_result.json`; `--combo` only checks the combo."""

    def test_rerun_serves_only_listed_checkpoints(self, trained, gapped_rerun, tmp_path):
        from hvfcast.trainer import load_interval_models

        chain = json.loads((gapped_rerun / "intervals" / "chain_result.json").read_text())
        listed = {}
        for e in chain["entries"]:
            if not e["gap"]:
                listed.setdefault(e["bin"], []).append(e["fold"])
        on_disk = len(list((gapped_rerun / "intervals").glob("bin-*/fold-*/weights.bin")))
        assert 0 < chain["n_checkpoints"] < on_disk
        _, models = load_interval_models(gapped_rerun)
        assert {c: [m.n_models for m in ms] for c, ms in models.items()} == {c: [len(f)] for c, f in listed.items()}

        assert _evaluate(trained, gapped_rerun, tmp_path / "r.json") == 0
        report = json.loads((tmp_path / "r.json").read_text())
        gapped = [e for e in report["per_bin"] if e["bin"] not in listed]
        # the parent ensembled the stale checkpoints here and skipped nothing
        assert report["n_skipped"] == sum(e["n_skipped"] for e in gapped) > 0
        assert all(e["n_pairs"] == 0 for e in gapped)

    def test_predict_into_fully_gapped_bin_exits_2(self, trained, gapped_rerun, small_cohort, tmp_path, capsys):
        chain = json.loads((gapped_rerun / "intervals" / "chain_result.json").read_text())
        gapped = sorted({e["bin"] for e in chain["entries"]} - {e["bin"] for e in chain["entries"] if not e["gap"]})
        assert gapped and (gapped_rerun / "intervals" / f"bin-{gapped[0]:.1f}" / "fold-0").is_dir()
        field = small_cohort[1][0]
        assert _predict(trained, field, gapped_rerun, tmp_path / "f.json", str(gapped[0])) == 2
        assert f"no trained models for bin {gapped[0]}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_mismatched_combo_exits_2_naming_both(self, trained, small_cohort, tmp_path, capsys, command):
        """`age` and `test_index` both encode two channels, so nothing else catches it."""
        if command == "evaluate":
            code = _evaluate(trained, trained / "runs", tmp_path / "r.json", "--combo", "test_index")
        else:
            code = _predict(trained, small_cohort[1][0], trained / "runs", tmp_path / "f.json", "1.0",
                            "--combo", "test_index")
        assert code == 2
        assert "--combo 'test_index' is not 'age'" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_combo_spelling_is_accepted(self, workdir, small_cohort, tmp_path):
        runs = tmp_path / "runs"
        assert run_cli(
            "train", "--phase", "intervals",
            "--data", str(workdir / "d.jsonl"),
            "--pairs", str(workdir / "pairs.jsonl"),
            "--split", str(workdir / "split.json"),
            "--out", str(runs),
            "--arch", "FullyConnected", "--combo", "age+eye",
            "--epochs", "1", "--widths", "2,3,4", "--fc-hidden", "8", "--seed", "3",
        ) == 0
        assert json.loads((runs / "intervals" / "chain_result.json").read_text())["combo"] == "age+eye"
        field = small_cohort[1][0]
        assert _predict(workdir, field, runs, tmp_path / "a.json", "1.0", "--combo", "eye+age") == 0
        assert _predict(workdir, field, runs, tmp_path / "b.json") == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert json.loads((tmp_path / "a.json").read_text())["combo"] == "age+eye"

    def test_chain_combo_wins_over_features_winner(self, trained, small_cohort, tmp_path):
        runs = tmp_path / "runs"
        shutil.copytree(trained / "runs", runs)
        (runs / "features").mkdir()
        (runs / "features" / "phase_result.json").write_text(json.dumps({"winner": "test_index"}))
        field = small_cohort[1][0]
        assert _predict(trained, field, runs, tmp_path / "a.json") == 0
        assert _predict(trained, field, trained / "runs", tmp_path / "b.json", "1.0", "--combo", "age") == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert _evaluate(trained, runs, tmp_path / "r.json") == 0
        manifest = json.loads((tmp_path / "r.json.run_manifest.json").read_text())
        assert manifest["config"]["combo"] == "age"

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_missing_chain_result_exits_2(self, trained, small_cohort, tmp_path, capsys, command):
        runs = tmp_path / "runs"
        shutil.copytree(trained / "runs", runs)
        (runs / "intervals" / "chain_result.json").unlink()
        if command == "evaluate":
            code = _evaluate(trained, runs, tmp_path / "r.json")
        else:
            code = _predict(trained, small_cohort[1][0], runs, tmp_path / "f.json")
        assert code == 2
        assert "chain_result.json not found" in capsys.readouterr().err

    def test_old_chain_result_is_gone_while_jobs_run(self, trained, tmp_path, monkeypatch):
        from hvfcast import trainer

        runs = tmp_path / "runs"
        shutil.copytree(trained / "runs", runs)
        result_path = runs / "intervals" / "chain_result.json"
        seen = []

        def run_jobs(jobs, worker, workers):
            seen.append(result_path.exists())
            return original(jobs, worker, workers)

        original = trainer._run_jobs
        monkeypatch.setattr(trainer, "_run_jobs", run_jobs)
        assert run_cli(
            "train", "--phase", "intervals",
            "--data", str(trained / "d.jsonl"),
            "--pairs", str(trained / "pairs.jsonl"),
            "--split", str(trained / "split.json"),
            "--out", str(runs),
            "--arch", "Cascade-1", "--combo", "age",
            "--epochs", "0", "--widths", "2,3,4", "--seed", "3",
        ) == 0
        assert seen == [False]
        assert result_path.is_file()


class TestZeroEpochSelection:
    @pytest.mark.parametrize("phase", ["arch", "features"])
    def test_refused_before_any_job(self, workdir, tmp_path, capsys, monkeypatch, phase):
        """A selection phase picks by validation MAE, and zero epochs measure
        none, so `train` refuses before any job runs and writes nothing."""
        from hvfcast import trainer

        monkeypatch.setattr(trainer, "_run_jobs", lambda *args: pytest.fail("a job ran"))
        runs = tmp_path / "runs"
        code = run_cli(
            "train", "--phase", phase,
            "--data", str(workdir / "d.jsonl"), "--pairs", str(workdir / "pairs.jsonl"),
            "--split", str(workdir / "split.json"), "--out", str(runs),
            "--arch", "FullyConnected", "--widths", "2,2,2", "--fc-hidden", "4", "--epochs", "0",
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: phase '{phase}' picks its winner by validation MAE, so it needs at least one epoch\n"
        )
        assert not runs.exists()


class TestPlanContract:
    """train and evaluate reject a split plan that plans a patient twice or
    plans one the dataset does not hold."""

    def _plan_copy(self, workdir, tmp_path, change):
        plan = json.loads((workdir / "split.json").read_text())
        change(plan)
        path = tmp_path / "split.json"
        path.write_text(json.dumps(plan))
        return path

    def _train(self, workdir, split, tmp_path):
        return run_cli(
            "train", "--phase", "intervals",
            "--data", str(workdir / "d.jsonl"),
            "--pairs", str(workdir / "pairs.jsonl"),
            "--split", str(split),
            "--out", str(tmp_path / "runs"),
            "--arch", "FullyConnected", "--combo", "age",
            "--epochs", "1", "--widths", "2,3,4", "--fc-hidden", "8", "--seed", "3",
        )

    def _evaluate(self, trained, split, tmp_path):
        return _evaluate(trained, trained / "runs", tmp_path / "r.json", split=split)

    @pytest.mark.parametrize("command", ["_train", "_evaluate"])
    def test_test_patient_in_a_fold_exits_2(self, trained, tmp_path, capsys, command):
        leaked = json.loads((trained / "split.json").read_text())["test_patients"][0]
        split = self._plan_copy(trained, tmp_path, lambda plan: plan["folds"][3].append(leaked))
        assert getattr(self, command)(trained, split, tmp_path) == 2
        assert f"patients planned more than once (folds and test set must be disjoint): ['{leaked}']" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "runs").exists() and not (tmp_path / "r.json").exists()

    def test_plan_other_than_the_chains_exits_2(self, trained, tmp_path, capsys):
        """Another plan of the same patients holds out patients the chain
        trained on; before the chain recorded its plan, evaluate scored them
        as held out and exited 0."""
        split = tmp_path / "split-4.json"
        assert run_cli("split", "--data", str(trained / "d.jsonl"), "--seed", "4", "--out", str(split)) == 0
        capsys.readouterr()
        trained_on = {pid for fold in json.loads((trained / "split.json").read_text())["folds"] for pid in fold}
        assert trained_on & set(json.loads(split.read_text())["test_patients"])
        assert self._evaluate(trained, split, tmp_path) == 2
        chain = trained / "runs" / "intervals" / "chain_result.json"
        recorded = json.loads(chain.read_text())["split_sha256"]
        assert recorded == plan_sha256(trained / "split.json")
        assert capsys.readouterr().err == (
            f"error: {chain} was trained on another split plan than {split} "
            f"(split_sha256 {recorded}, not {plan_sha256(split)})\n"
        )
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("phase", ["arch", "intervals"])
    def test_plan_without_folds_exits_2(self, trained, tmp_path, capsys, phase):
        """Once arch training raised a ValueError and an interval chain of no
        checkpoint exited 0."""
        split = self._plan_copy(trained, tmp_path, lambda plan: plan.update(folds=[]))
        code = run_cli(
            "train", "--phase", phase,
            "--data", str(trained / "d.jsonl"), "--pairs", str(trained / "pairs.jsonl"),
            "--split", str(split), "--out", str(tmp_path / "runs"),
            "--arch", "FullyConnected", "--combo", "age", "--epochs", "1", "--widths", "2,3,4", "--fc-hidden", "8",
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {split}: 'folds' must hold 10 nonempty folds, got 0 of sizes []\n"
        assert not (tmp_path / "runs").exists()

    def test_patient_in_two_folds_exits_2(self, trained, tmp_path, capsys):
        split = self._plan_copy(trained, tmp_path, lambda plan: plan["folds"][0].append(plan["folds"][1][0]))
        assert self._train(trained, split, tmp_path) == 2
        assert "planned more than once" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["_train", "_evaluate"])
    def test_patient_absent_from_dataset_exits_2(self, trained, tmp_path, capsys, command):
        split = self._plan_copy(trained, tmp_path, lambda plan: plan["test_patients"].append("GHOST"))
        assert getattr(self, command)(trained, split, tmp_path) == 2
        assert "planned patients absent from the dataset: ['GHOST']" in capsys.readouterr().err

    def test_cross_patient_pair_line_exits_2(self, trained, tmp_path, capsys):
        """The target is another patient's existing record, so only the
        pairing check catches the line."""
        from hvfcast.domain import EYE_TO_WIRE, load_dataset

        lines = (trained / "pairs.jsonl").read_text().splitlines()
        obj = json.loads(lines[0])
        ref = obj["target_ref"]
        ref["patient_id"] = next(
            f.patient_id for f in load_dataset(trained / "d.jsonl")
            if f.patient_id != ref["patient_id"] and (EYE_TO_WIRE[f.eye], f.test_index) == (ref["eye"], ref["test_index"])
        )
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text("\n".join([json.dumps(obj)] + lines[1:]) + "\n")
        code = run_cli(
            "train", "--phase", "intervals",
            "--data", str(trained / "d.jsonl"), "--pairs", str(pairs),
            "--split", str(trained / "split.json"), "--out", str(tmp_path / "runs"),
            "--arch", "FullyConnected", "--combo", "age", "--epochs", "1",
        )
        assert code == 2
        assert f"error: {pairs}: line 1: input_ref and target_ref are different patients or eyes" in (
            capsys.readouterr().err
        )


    def test_repeated_pair_line_exits_2_naming_both_lines(self, trained, tmp_path, capsys):
        """A pair listed twice would be trained and scored twice."""
        lines = (trained / "pairs.jsonl").read_text().splitlines()
        obj = json.loads(lines[1])
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text("\n".join(lines + [lines[1]]) + "\n")
        code = run_cli(
            "train", "--phase", "intervals",
            "--data", str(trained / "d.jsonl"), "--pairs", str(pairs),
            "--split", str(trained / "split.json"), "--out", str(tmp_path / "runs"),
            "--arch", "FullyConnected", "--combo", "age", "--epochs", "1",
        )
        assert code == 2
        ref, target = obj["input_ref"], obj["target_ref"]
        assert capsys.readouterr().err == (
            f"error: {pairs}: line {len(lines) + 1}: duplicate pair for patient {ref['patient_id']!r}, "
            f"eye {ref['eye']}, test_index {ref['test_index']} -> {target['test_index']} (first at line 2)\n"
        )
        assert not (tmp_path / "runs").exists()


class TestRunTreeContract:
    """A malformed run-tree, split or data file exits 2 naming the file and
    the line, key or field, not with a traceback."""

    def _runs_copy(self, trained, tmp_path):
        runs = tmp_path / "runs"
        shutil.copytree(trained / "runs", runs)
        return runs

    def test_checkpoint_with_old_spec_fields_exits_2(self, trained, tmp_path, capsys):
        runs = self._runs_copy(trained, tmp_path)
        path = runs / "intervals" / "bin-1.0" / "fold-0" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["spec"] |= {"batch_size": 32, "lr": 0.001}
        path.write_text(json.dumps(manifest))
        assert _evaluate(trained, runs, tmp_path / "r.json") == 2
        assert f"{path}: spec: unknown fields ['batch_size', 'lr']" in capsys.readouterr().err

    def test_chain_entry_without_checkpoint_exits_2(self, trained, tmp_path, capsys):
        runs = self._runs_copy(trained, tmp_path)
        path = runs / "intervals" / "chain_result.json"
        chain = json.loads(path.read_text())
        i = next(i for i, e in enumerate(chain["entries"]) if not e["gap"])
        del chain["entries"][i]["checkpoint"]
        path.write_text(json.dumps(chain))
        assert _evaluate(trained, runs, tmp_path / "r.json") == 2
        assert f"{path}: entries[{i}]: 'checkpoint' is missing" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("checkpoint", 5), ("bin", "x"), ("gap", "no")])
    def test_chain_entry_of_wrong_type_exits_2(self, trained, tmp_path, capsys, key, value):
        runs = self._runs_copy(trained, tmp_path)
        path = runs / "intervals" / "chain_result.json"
        chain = json.loads(path.read_text())
        i = next(i for i, e in enumerate(chain["entries"]) if not e["gap"])
        chain["entries"][i][key] = value
        path.write_text(json.dumps(chain))
        assert _evaluate(trained, runs, tmp_path / "r.json") == 2
        assert f"{path}: entries[{i}]: {key!r} must be a" in capsys.readouterr().err

    def test_chain_entry_of_unknown_bin_exits_2(self, trained, small_cohort, tmp_path, capsys):
        """An entry whose bin is no bin center is not silently left out."""
        runs = self._runs_copy(trained, tmp_path)
        path = runs / "intervals" / "chain_result.json"
        chain = json.loads(path.read_text())
        i = next(i for i, e in enumerate(chain["entries"]) if e["bin"] == 1.0 and not e["gap"])
        chain["entries"][i]["bin"] = 7
        path.write_text(json.dumps(chain))
        assert _predict(trained, small_cohort[1][0], runs, tmp_path / "f.json", "1.0") == 2
        assert f"{path}: entries[{i}]: 'bin' must be one of {BIN_CENTERS}, got 7" in capsys.readouterr().err

    def test_chain_entry_listed_twice_exits_2(self, trained, small_cohort, tmp_path, capsys):
        """A repeated (bin, fold) would serve one fold's model twice."""
        runs = self._runs_copy(trained, tmp_path)
        path = runs / "intervals" / "chain_result.json"
        chain = json.loads(path.read_text())
        i = next(i for i, e in enumerate(chain["entries"]) if e["bin"] == 1.0 and not e["gap"])
        chain["entries"].append(chain["entries"][i])
        path.write_text(json.dumps(chain))
        assert _predict(trained, small_cohort[1][0], runs, tmp_path / "f.json", "1.0") == 2
        j, fold = len(chain["entries"]) - 1, chain["entries"][i]["fold"]
        assert (f"{path}: entries[{j}]: bin 1.0 fold {fold} is listed twice, first at entries[{i}]"
                in capsys.readouterr().err)

    def test_swapped_bin_checkpoints_exit_2(self, trained, small_cohort, tmp_path, capsys):
        """Two bins' checkpoint directories swapped: each is a valid
        checkpoint of the chain's spec where its entry says, so only its
        provenance tells; before provenance was checked, predict served bin
        2.0's fold model as bin 1.0's."""
        runs = self._runs_copy(trained, tmp_path)
        path = runs / "intervals" / "chain_result.json"
        entries = json.loads(path.read_text())["entries"]
        i, j = next((i, j) for i, a in enumerate(entries) for j, b in enumerate(entries)
                    if (a["bin"], b["bin"]) == (1.0, 2.0) and a["fold"] == b["fold"] and not (a["gap"] or b["gap"]))
        a, b = runs / entries[i]["checkpoint"], runs / entries[j]["checkpoint"]
        a.rename(tmp_path / "swapping")
        b.rename(a)
        (tmp_path / "swapping").rename(b)
        assert _predict(trained, small_cohort[1][0], runs, tmp_path / "f.json", "1.0") == 2
        manifest = runs / entries[i]["checkpoint"] / "manifest.json"
        assert capsys.readouterr().err == (
            f"error: {path}: entries[{i}]: {manifest}: provenance 'bin' is 2.0, not 1.0\n"
        )
        assert not (tmp_path / "f.json").exists()

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    @pytest.mark.parametrize("where", ["absolute", "parent"])
    def test_checkpoint_outside_its_cell_exits_2(self, trained, small_cohort, tmp_path, capsys, command, where):
        """An entry that points at another tree's checkpoint of its own cell:
        that checkpoint holds the chain's spec and the cell's provenance, so
        only the path tells; before the directory was derived from the cell,
        both commands served it."""
        runs = self._runs_copy(trained, tmp_path)
        shutil.copytree(trained / "runs" / "intervals", tmp_path / "other" / "intervals")
        path = runs / "intervals" / "chain_result.json"
        chain = json.loads(path.read_text())
        i = next(i for i, e in enumerate(chain["entries"]) if (e["bin"], e["fold"], e["gap"]) == (1.0, 0, False))
        cell = "intervals/bin-1.0/fold-0"
        recorded = str(tmp_path / "other" / cell) if where == "absolute" else f"../other/{cell}"
        chain["entries"][i]["checkpoint"] = recorded
        path.write_text(json.dumps(chain))
        if command == "predict":
            code = _predict(trained, small_cohort[1][0], runs, tmp_path / "out.json", "1.0")
        else:
            code = _evaluate(trained, runs, tmp_path / "out.json")
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {path}: entries[{i}]: 'checkpoint' is {recorded!r}, not {cell!r}, the directory of bin 1.0 fold 0\n"
        )
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_checkpoints_of_another_spec_exit_2(self, trained, small_cohort, tmp_path, capsys, command):
        """A bin's checkpoints re-saved as another architecture, provenance
        kept: each is a valid checkpoint of its cell, so only the chain's
        spec tells; before it was checked, both commands served them."""
        runs = self._runs_copy(trained, tmp_path)
        path = runs / "intervals" / "chain_result.json"
        chain = json.loads(path.read_text())
        served = [(i, e) for i, e in enumerate(chain["entries"]) if e["bin"] == 2.0 and not e["gap"]]
        assert served
        for _, e in served:
            old = load_weights(runs / e["checkpoint"])
            other = build_model(ModelSpec("FullBN", 1, widths=(2, 3, 4), in_channels=old.spec.in_channels,
                                          seed=old.spec.seed))
            save_weights(other, runs / e["checkpoint"], old.provenance)
        if command == "predict":
            code = _predict(trained, small_cohort[1][0], runs, tmp_path / "out.json", "2.0")
        else:
            code = _evaluate(trained, runs, tmp_path / "out.json")
        assert code == 2
        i, e = served[0]
        held = load_weights(runs / e["checkpoint"]).spec.to_dict()
        assert capsys.readouterr().err == (
            f"error: {path}: entries[{i}]: {runs / e['checkpoint'] / 'manifest.json'} holds spec {held}, "
            f"not the chain's {ModelSpec.from_dict(chain['spec']).to_dict()} (seed aside)\n"
        )
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m: m["provenance"].update(phase="features"), "provenance 'phase' is 'features', not 'intervals'"),
            (lambda m: m["provenance"].update(candidate="none"), "provenance 'candidate' is 'none', not 'age'"),
            (lambda m: m["provenance"].update(bin=1.5), "provenance 'bin' is 1.5, not 1.0"),
            (lambda m: m["provenance"].update(fold=9), "provenance 'fold' is 9, not 0"),
            (lambda m: m["provenance"].pop("fold"), "provenance: 'fold' is missing"),
            (lambda m: m["provenance"].update(fold="0"), "provenance: 'fold' must be an int, got '0'"),
            (lambda m: m.pop("provenance"), "'provenance' must be an object, got None"),
        ],
        ids=["phase", "candidate", "bin", "fold", "no-fold", "fold-str", "none"],
    )
    def test_checkpoint_provenance_of_another_cell_exits_2(self, trained, tmp_path, capsys, edit, message):
        runs = self._runs_copy(trained, tmp_path)
        path = runs / "intervals" / "chain_result.json"
        i = next(i for i, e in enumerate(json.loads(path.read_text())["entries"])
                 if (e["bin"], e["fold"], e["gap"]) == (1.0, 0, False))
        manifest = runs / "intervals" / "bin-1.0" / "fold-0" / "manifest.json"
        content = json.loads(manifest.read_text())
        edit(content)
        manifest.write_text(json.dumps(content))
        assert _evaluate(trained, runs, tmp_path / "r.json") == 2
        assert capsys.readouterr().err == f"error: {path}: entries[{i}]: {manifest}: {message}\n"

    def test_served_chain_entry_without_int_fold_exits_2(self, trained, tmp_path, capsys):
        runs = self._runs_copy(trained, tmp_path)
        path = runs / "intervals" / "chain_result.json"
        chain = json.loads(path.read_text())
        chain["entries"][0]["fold"] = "0"
        path.write_text(json.dumps(chain))
        assert _evaluate(trained, runs, tmp_path / "r.json") == 2
        assert f"{path}: entries[0]: 'fold' must be an int, got '0'" in capsys.readouterr().err

    def test_phase_result_without_winner_exits_2(self, trained, tmp_path, capsys):
        runs = tmp_path / "runs"
        (runs / "arch").mkdir(parents=True)
        (runs / "arch" / "phase_result.json").write_text("{}")
        code = run_cli(
            "train", "--phase", "features",
            "--data", str(trained / "d.jsonl"), "--pairs", str(trained / "pairs.jsonl"),
            "--split", str(trained / "split.json"), "--out", str(runs), "--epochs", "0",
        )
        assert code == 2
        assert f"{runs / 'arch' / 'phase_result.json'}: 'winner' is missing" in capsys.readouterr().err

    def test_phase_result_winner_of_wrong_type_exits_2(self, trained, tmp_path, capsys):
        runs = tmp_path / "runs"
        (runs / "arch").mkdir(parents=True)
        (runs / "arch" / "phase_result.json").write_text('{"winner": 5}')
        code = run_cli(
            "train", "--phase", "features",
            "--data", str(trained / "d.jsonl"), "--pairs", str(trained / "pairs.jsonl"),
            "--split", str(trained / "split.json"), "--out", str(runs), "--epochs", "0",
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {runs / 'arch' / 'phase_result.json'}: 'winner' must be a str, got 5\n"
        )

    def test_unparseable_phase_result_names_it(self, trained, tmp_path, capsys):
        runs = tmp_path / "runs"
        (runs / "arch").mkdir(parents=True)
        (runs / "arch" / "phase_result.json").write_text("{winner")
        code = run_cli(
            "train", "--phase", "features",
            "--data", str(trained / "d.jsonl"), "--pairs", str(trained / "pairs.jsonl"),
            "--split", str(trained / "split.json"), "--out", str(runs), "--epochs", "0",
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: {runs / 'arch' / 'phase_result.json'}: Expecting property name"
        )

    @pytest.mark.parametrize(
        "key, value, kind",
        [("entries", {"0": {}}, "list, got {'0': {}}"), ("combo", ["age"], "str, got ['age']")],
        ids=["entries-dict", "combo-list"],
    )
    def test_chain_result_key_of_wrong_type_exits_2(self, trained, tmp_path, capsys, key, value, kind):
        runs = self._runs_copy(trained, tmp_path)
        path = runs / "intervals" / "chain_result.json"
        chain = json.loads(path.read_text())
        chain[key] = value
        path.write_text(json.dumps(chain))
        assert _evaluate(trained, runs, tmp_path / "r.json") == 2
        assert capsys.readouterr().err == f"error: {path}: {key!r} must be a {kind}\n"

    def test_chain_result_combo_that_does_not_parse_exits_2(self, trained, tmp_path, capsys):
        runs = self._runs_copy(trained, tmp_path)
        path = runs / "intervals" / "chain_result.json"
        chain = json.loads(path.read_text())
        chain["combo"] = "bogus"
        path.write_text(json.dumps(chain))
        assert _evaluate(trained, runs, tmp_path / "r.json") == 2
        assert capsys.readouterr().err == (
            f"error: {path}: 'combo': unknown feature flags ['bogus'] in combo 'bogus'\n"
        )

    def test_chain_result_spec_that_does_not_parse_exits_2(self, trained, tmp_path, capsys):
        runs = self._runs_copy(trained, tmp_path)
        path = runs / "intervals" / "chain_result.json"
        chain = json.loads(path.read_text())
        chain["spec"]["family"] = "Bogus"
        path.write_text(json.dumps(chain))
        assert _evaluate(trained, runs, tmp_path / "r.json") == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: 'spec': unknown family 'Bogus'")

    @pytest.mark.parametrize(
        "phase, winner, message, extra",
        [
            ("arch", "Bogus-3", "cannot parse architecture name 'Bogus-3'", ["--phase", "features"]),
            ("features", "bogus", "unknown feature flags ['bogus'] in combo 'bogus'",
             ["--phase", "intervals", "--arch", "FullyConnected"]),
        ],
        ids=["arch", "features"],
    )
    def test_phase_result_winner_that_does_not_parse_exits_2(
        self, trained, tmp_path, capsys, phase, winner, message, extra
    ):
        runs = tmp_path / "runs"
        path = runs / phase / "phase_result.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"winner": winner}))
        code = run_cli(
            "train", *extra,
            "--data", str(trained / "d.jsonl"), "--pairs", str(trained / "pairs.jsonl"),
            "--split", str(trained / "split.json"), "--out", str(runs), "--epochs", "0",
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}: 'winner': {message}\n"

    def test_unparseable_chain_result_names_it(self, trained, tmp_path, capsys):
        runs = self._runs_copy(trained, tmp_path)
        path = runs / "intervals" / "chain_result.json"
        path.write_text(path.read_text()[:-20])
        assert _evaluate(trained, runs, tmp_path / "r.json") == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    def test_split_without_folds_exits_2(self, trained, tmp_path, capsys):
        plan = json.loads((trained / "split.json").read_text())
        del plan["folds"]
        split = tmp_path / "split.json"
        split.write_text(json.dumps(plan))
        assert _evaluate(trained, trained / "runs", tmp_path / "r.json", split=split) == 2
        assert f"{split}: 'folds' is missing" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, bad, message",
        [
            ("folds", 5, "'folds' must be a list, got 5"),
            ("folds", [["P0001"], 7], "folds[1] must be a list, got 7"),
            ("test_patients", "P0001", "'test_patients' must be a list, got 'P0001'"),
            ("seed", "17", "'seed' must be an int, got '17'"),
        ],
        ids=["folds-int", "fold-int", "test-patients-str", "seed-str"],
    )
    def test_split_value_of_wrong_type_exits_2(self, trained, tmp_path, capsys, key, bad, message):
        plan = json.loads((trained / "split.json").read_text())
        plan[key] = bad
        split = tmp_path / "split.json"
        split.write_text(json.dumps(plan))
        assert _evaluate(trained, trained / "runs", tmp_path / "r.json", split=split) == 2
        assert capsys.readouterr().err == f"error: {split}: {message}\n"

    def test_split_ratio_beyond_float_range_exits_2(self, trained, tmp_path, capsys):
        plan = json.loads((trained / "split.json").read_text())
        plan["ratio"] = "RATIO"
        split = tmp_path / "split.json"
        split.write_text(json.dumps(plan).replace('"RATIO"', "1e400"))
        assert _evaluate(trained, trained / "runs", tmp_path / "r.json", split=split) == 2
        assert capsys.readouterr().err == f"error: {split}: 'ratio' must be a finite number, got inf\n"

    def test_manifest_total_length_of_wrong_type_exits_2(self, trained, small_cohort, tmp_path, capsys):
        runs = self._runs_copy(trained, tmp_path)
        path = runs / "intervals" / "bin-1.0" / "fold-0" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["total_length"] = "a"
        path.write_text(json.dumps(manifest))
        field = small_cohort[1][0]
        code = run_cli(
            "predict", "--interval", "1.0", "--data", str(trained / "d.jsonl"),
            "--patient", field.patient_id, "--eye", "OD" if field.eye == "right" else "OS",
            "--test-index", str(field.test_index), "--runs", str(runs), "--out", str(tmp_path / "f.json"),
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}: 'total_length' must be an int, got 'a'\n"

    def test_pair_line_without_input_ref_exits_2(self, trained, tmp_path, capsys):
        lines = (trained / "pairs.jsonl").read_text().splitlines()
        obj = json.loads(lines[2])
        del obj["input_ref"]
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text("\n".join(lines[:2] + [json.dumps(obj)] + lines[3:]) + "\n")
        code = run_cli(
            "evaluate", "--data", str(trained / "d.jsonl"), "--pairs", str(pairs),
            "--split", str(trained / "split.json"), "--runs", str(trained / "runs"),
            "--out", str(tmp_path / "r.json"),
        )
        assert code == 2
        assert f"error: {pairs}: line 3: 'input_ref' is missing" in capsys.readouterr().err

    def test_undecodable_pair_byte_exits_2_with_line(self, trained, tmp_path, capsys):
        text = (trained / "pairs.jsonl").read_bytes()
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_bytes(text + b"\xff")
        lineno = text.count(b"\n") + 1
        code = run_cli(
            "evaluate", "--data", str(trained / "d.jsonl"), "--pairs", str(pairs),
            "--split", str(trained / "split.json"), "--runs", str(trained / "runs"),
            "--out", str(tmp_path / "r.json"),
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: {pairs}: line {lineno}: 'utf-8' codec can't decode byte 0xff"
        )

    def test_patient_with_two_genders_exits_2(self, trained, tmp_path, capsys):
        lines = (trained / "d.jsonl").read_text().splitlines()
        first = json.loads(lines[0])
        i = next(i for i, line in enumerate(lines[1:], start=1)
                 if json.loads(line)["patient_id"] == first["patient_id"])
        obj = json.loads(lines[i])
        obj["gender"] = "M" if first["gender"] == "F" else "F"
        lines[i] = json.dumps(obj)
        data = tmp_path / "d.jsonl"
        data.write_text("\n".join(lines) + "\n")
        assert run_cli("pairs", "--data", str(data), "--out", str(tmp_path / "p.jsonl")) == 2
        assert (
            f"error: {data}: line {i + 1}: gender {obj['gender']!r} of patient {first['patient_id']!r} "
            f"differs from {first['gender']!r} at line 1"
        ) in capsys.readouterr().err


class TestChainInitFeatures:
    def _features_copy(self, features_run, tmp_path):
        runs = tmp_path / "runs"
        shutil.copytree(features_run / "features", runs / "features")
        return runs

    def _chain(self, workdir, runs, combo="age", arch="FullyConnected", split=None):
        return run_cli(
            "train", "--phase", "intervals",
            "--data", str(workdir / "d.jsonl"),
            "--pairs", str(workdir / "pairs.jsonl"),
            "--split", str(split or workdir / "split.json"),
            "--out", str(runs),
            "--arch", arch, "--combo", combo, "--chain-init", "features",
            "--epochs", "1", "--widths", "2,3,4", "--fc-hidden", "8", "--seed", "3",
        )

    @pytest.mark.parametrize("combo", ["age", "eye+age"])
    def test_complete_features_run_seeds_every_fold(self, workdir, features_run, tmp_path, combo):
        """Any spelling of a combo finds its canonically named features result."""
        runs = self._features_copy(features_run, tmp_path)
        assert self._chain(workdir, runs, combo) == 0
        entries = json.loads((runs / "intervals" / "chain_result.json").read_text())["entries"]
        first_bin = [e for e in entries if e["bin"] == 1.0]
        assert len(first_bin) == 10
        assert all(e["transferred_from"] == "seed" and not e["gap"] for e in first_bin)

    def test_features_run_on_another_plan_exits_2(self, workdir, features_run, tmp_path, capsys):
        """The features checkpoints trained on patients that another plan may
        hold out, and the chain would start from them."""
        runs = self._features_copy(features_run, tmp_path)
        split = tmp_path / "split-4.json"
        assert run_cli("split", "--data", str(workdir / "d.jsonl"), "--seed", "4", "--out", str(split)) == 0
        capsys.readouterr()
        assert self._chain(workdir, runs, split=split) == 2
        result = runs / "features" / "phase_result.json"
        recorded = json.loads(result.read_text())["split_sha256"]
        assert recorded == plan_sha256(workdir / "split.json")
        assert capsys.readouterr().err == (
            f"error: {result} was trained on another split plan than {split} "
            f"(split_sha256 {recorded}, not {plan_sha256(split)})\n"
        )
        assert not (runs / "intervals").exists()

    def test_features_run_of_another_architecture_exits_2(self, workdir, features_run, tmp_path, capsys):
        runs = self._features_copy(features_run, tmp_path)
        assert self._chain(workdir, runs, arch="Cascade-1") == 2
        err = capsys.readouterr().err
        manifest = runs / "features" / "age" / "fold-0" / "manifest.json"
        assert err.startswith(f"error: --chain-init features: {manifest} holds spec {{'family': 'FullyConnected'")
        assert "not the chain's {'family': 'Cascade', 'depth_k': 1" in err
        assert not (runs / "intervals").exists()

    def test_swapped_fold_checkpoints_exit_2(self, workdir, features_run, tmp_path, capsys):
        """Two fold directories swapped hold checkpoints of the chain's spec,
        so only their provenance tells; before it was checked, each fold's
        chain started from the other fold's weights."""
        runs = self._features_copy(features_run, tmp_path)
        combo_dir = runs / "features" / "age"
        (combo_dir / "fold-0").rename(combo_dir / "swap")
        (combo_dir / "fold-1").rename(combo_dir / "fold-0")
        (combo_dir / "swap").rename(combo_dir / "fold-1")
        assert self._chain(workdir, runs) == 2
        manifest = combo_dir / "fold-0" / "manifest.json"
        assert capsys.readouterr().err == f"error: --chain-init features: {manifest}: provenance 'fold' is 1, not 0\n"
        assert not (runs / "intervals").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda p: p.update(phase="arch"), "provenance 'phase' is 'arch', not 'features'"),
            (lambda p: p.update(candidate="eye"), "provenance 'candidate' is 'eye', not 'age'"),
            (lambda p: p.update(bin=1.0), "provenance 'bin' is 1.0, not None"),
            (lambda p: p.pop("candidate"), "provenance: 'candidate' is missing"),
        ],
        ids=["phase", "candidate", "bin", "missing"],
    )
    def test_features_checkpoint_of_another_cell_exits_2(self, workdir, features_run, tmp_path, capsys, edit,
                                                         message):
        runs = self._features_copy(features_run, tmp_path)
        manifest = runs / "features" / "age" / "fold-3" / "manifest.json"
        doc = json.loads(manifest.read_text())
        edit(doc["provenance"])
        manifest.write_text(json.dumps(doc))
        assert self._chain(workdir, runs) == 2
        assert capsys.readouterr().err == f"error: --chain-init features: {manifest}: {message}\n"

    def test_features_tree_without_phase_result_exits_2(self, workdir, features_run, tmp_path, capsys):
        """Fold checkpoints with no phase_result.json: what a features run
        that exited 3 leaves behind."""
        runs = self._features_copy(features_run, tmp_path)
        (runs / "features" / "phase_result.json").unlink()
        assert self._chain(workdir, runs) == 2
        assert "phase_result.json not found" in capsys.readouterr().err
        assert not (runs / "intervals").exists()

    def test_failed_rerun_into_complete_tree_exits_2(self, workdir, features_run, tmp_path, capsys):
        """A features run that exits 3 over a complete tree leaves the old
        checkpoints beside no result, so the chain cannot mix two runs."""
        runs = self._features_copy(features_run, tmp_path)
        code = run_cli(
            "train", "--phase", "features",
            "--data", str(workdir / "d.jsonl"),
            "--pairs", str(workdir / "pairs.jsonl"),
            "--split", str(workdir / "split.json"),
            "--out", str(runs),
            "--arch", "FullyConnected", "--lr", "1e300",
            "--epochs", "1", "--widths", "2,3,4", "--fc-hidden", "8", "--seed", "3", "--workers", "2",
        )
        assert code == 3
        assert not (runs / "features" / "phase_result.json").exists()
        assert self._chain(workdir, runs) == 2
        assert "phase_result.json not found" in capsys.readouterr().err

    def test_combo_missing_folds_exits_2_naming_them(self, workdir, features_run, tmp_path, capsys):
        runs = self._features_copy(features_run, tmp_path)
        result_path = runs / "features" / "phase_result.json"
        result = json.loads(result_path.read_text())
        result["matrix"]["age"][2] = result["matrix"]["age"][7] = None
        result_path.write_text(json.dumps(result))
        assert self._chain(workdir, runs) == 2
        assert "combo 'age' has no result for folds [2, 7]" in capsys.readouterr().err

    def test_combo_not_in_features_result_exits_2(self, workdir, features_run, tmp_path, capsys):
        runs = self._features_copy(features_run, tmp_path)
        result_path = runs / "features" / "phase_result.json"
        result = json.loads(result_path.read_text())
        del result["matrix"]["age"]
        result_path.write_text(json.dumps(result))
        assert self._chain(workdir, runs) == 2
        assert "combo 'age' is not in" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "result, message",
        [([], "must be an object, got []"), ({"matrix": []}, "'matrix' must be an object, got []")],
        ids=["list", "list-matrix"],
    )
    def test_features_result_not_an_object_exits_2(self, workdir, features_run, tmp_path, capsys, result, message):
        runs = self._features_copy(features_run, tmp_path)
        result_path = runs / "features" / "phase_result.json"
        result_path.write_text(json.dumps(result))
        assert self._chain(workdir, runs) == 2
        assert capsys.readouterr().err == f"error: {result_path}: {message}\n"

    def test_features_row_of_wrong_type_exits_2(self, workdir, features_run, tmp_path, capsys):
        runs = self._features_copy(features_run, tmp_path)
        result_path = runs / "features" / "phase_result.json"
        result = json.loads(result_path.read_text())
        result["matrix"]["age"] = 5
        result_path.write_text(json.dumps(result))
        assert self._chain(workdir, runs) == 2
        assert capsys.readouterr().err == f"error: {result_path}: matrix: 'age' must be a list, got 5\n"

    def test_unparseable_features_result_names_it(self, workdir, features_run, tmp_path, capsys):
        runs = self._features_copy(features_run, tmp_path)
        result_path = runs / "features" / "phase_result.json"
        result_path.write_text("{")
        assert self._chain(workdir, runs) == 2
        assert capsys.readouterr().err.startswith(f"error: {result_path}: Expecting property name")


class TestPredict:
    def test_interval_out_of_range_exits_1(self, trained, capsys):
        code = run_cli(
            "predict", "--interval", "6.0",
            "--data", str(trained / "d.jsonl"),
            "--patient", "P0001", "--eye", "OD", "--test-index", "1",
            "--runs", str(trained / "runs"), "--combo", "age",
            "--out", str(trained / "f.json"),
        )
        assert code == 1
        assert "interval outside [0.75, 5.5]" in capsys.readouterr().err

    @pytest.mark.parametrize("interval", ["0.74", "5.51", "nan"])
    def test_interval_in_no_bin_exits_1(self, trained, small_cohort, tmp_path, capsys, interval):
        assert _predict(trained, small_cohort[1][0], trained / "runs", tmp_path / "f.json", interval) == 1
        assert capsys.readouterr().err == "error: interval outside [0.75, 5.5]\n"

    def test_interval_below_first_center_is_served_by_its_bin(self, trained, small_cohort, tmp_path):
        """`pairs` bins a gap of 0.75 to 1.0 years with 1.0, so predict serves it from there."""
        field = small_cohort[1][0]
        assert _predict(trained, field, trained / "runs", tmp_path / "a.json", "0.8") == 0
        assert _predict(trained, field, trained / "runs", tmp_path / "b.json", "1.0") == 0
        low, center = (json.loads((tmp_path / name).read_text()) for name in ("a.json", "b.json"))
        assert low["bin"] == center["bin"] == 1.0
        assert low["values"] == center["values"]

    def test_forecast_from_dataset_record(self, trained, small_cohort):
        _, fields, _ = small_cohort
        f = fields[0]
        code = run_cli(
            "predict", "--interval", "1.1",
            "--data", str(trained / "d.jsonl"),
            "--patient", f.patient_id, "--eye", "OD" if f.eye == "right" else "OS",
            "--test-index", str(f.test_index),
            "--runs", str(trained / "runs"), "--combo", "age",
            "--out", str(trained / "forecast.json"),
        )
        assert code == 0
        payload = json.loads((trained / "forecast.json").read_text())
        assert payload["bin"] == 1.0
        assert len(payload["values"]) == 54
        assert all(0.0 <= v <= 50.0 for v in payload["values"])

    def test_single_record_field_file(self, trained, small_cohort):
        _, fields, _ = small_cohort
        from hvfcast.domain import serialize_record

        field_file = trained / "one.jsonl"
        field_file.write_text(serialize_record(fields[0]) + "\n")
        code = run_cli(
            "predict", "--interval", "1.0",
            "--field", str(field_file),
            "--runs", str(trained / "runs"), "--combo", "age",
            "--out", str(trained / "forecast2.json"),
        )
        assert code == 0

    def test_bad_field_file_exits_2_naming_it(self, trained, small_cohort, tmp_path, capsys):
        _, fields, _ = small_cohort
        from hvfcast.domain import serialize_record

        field_file = tmp_path / "one.jsonl"
        field_file.write_text(serialize_record(fields[0]).replace('"eye": "O', '"eye": "X') + "\n")
        code = run_cli(
            "predict", "--interval", "1.0", "--field", str(field_file),
            "--runs", str(trained / "runs"), "--out", str(tmp_path / "f.json"),
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {field_file}: line 1: bad value for key 'eye': 'X")

    def test_field_file_is_read_as_utf8_under_the_c_locale(self, trained, small_cohort, tmp_path):
        """`--field` decodes as `--data` does, whatever the locale's encoding."""
        from dataclasses import replace
        from hvfcast.domain import serialize_record

        line = serialize_record(replace(small_cohort[1][0], patient_id="P\u00e9001")).replace("\\u00e9", "\u00e9")
        field_file = tmp_path / "one.jsonl"
        field_file.write_bytes(line.encode("utf-8") + b"\n")
        assert "P\u00e9001".encode("utf-8") in field_file.read_bytes()
        out = tmp_path / "f.json"
        proc = subprocess.run(
            [sys.executable, "-m", "hvfcast.cli", "predict", "--interval", "1.0", "--field", str(field_file),
             "--runs", str(trained / "runs"), "--out", str(out)],
            capture_output=True, text=True, env=child_env(LC_ALL="C", PYTHONUTF8="0"),
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text(encoding="utf-8"))["input"]["patient_id"] == "P\u00e9001"

    def _corrupt_bin_copy(self, trained, tmp_path, bin_name):
        """A copy of the runs tree with one byte of one fold's weights.bin flipped."""
        runs = tmp_path / "runs"
        shutil.copytree(trained / "runs", runs)
        blob_path = runs / "intervals" / bin_name / "fold-0" / "weights.bin"
        blob = bytearray(blob_path.read_bytes())
        blob[0] ^= 0xFF
        blob_path.write_bytes(bytes(blob))
        return runs

    def _predict_bin_1(self, trained, field, runs, out, data=None):
        return run_cli(
            "predict", "--interval", "1.0",
            "--data", str(data or trained / "d.jsonl"),
            "--patient", field.patient_id, "--eye", "OD" if field.eye == "right" else "OS",
            "--test-index", str(field.test_index),
            "--runs", str(runs), "--combo", "age",
            "--out", str(out),
        )

    def test_corrupt_checkpoint_in_other_bin_is_not_read(self, trained, small_cohort, tmp_path):
        field = small_cohort[1][0]
        other = sorted(d.name for d in (trained / "runs" / "intervals").glob("bin-*") if d.name != "bin-1.0")[-1]
        runs = self._corrupt_bin_copy(trained, tmp_path, other)
        assert self._predict_bin_1(trained, field, runs, tmp_path / "a.json") == 0
        assert self._predict_bin_1(trained, field, trained / "runs", tmp_path / "b.json") == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_corrupt_checkpoint_in_requested_bin_exits_2(self, trained, small_cohort, tmp_path, capsys):
        runs = self._corrupt_bin_copy(trained, tmp_path, "bin-1.0")
        assert self._predict_bin_1(trained, small_cohort[1][0], runs, tmp_path / "a.json") == 2
        assert "checksum mismatch" in capsys.readouterr().err

    def _non_finite_copy(self, trained, tmp_path):
        """A copy of the runs tree with a NaN in the first entry of bin 1.0
        fold 0, the manifest's digest matching; returns it, the manifest
        and the entry."""
        runs = tmp_path / "runs"
        shutil.copytree(trained / "runs", runs)
        ck = runs / "intervals" / "bin-1.0" / "fold-0"
        manifest = json.loads((ck / "manifest.json").read_text())
        blob = bytearray((ck / "weights.bin").read_bytes())
        blob[0:8] = b"\x00\x00\x00\x00\x00\x00\xf8\x7f"  # little-endian NaN
        manifest["sha256"] = checkpoint_digest(manifest["spec"], bytes(blob))
        (ck / "weights.bin").write_bytes(bytes(blob))
        (ck / "manifest.json").write_text(json.dumps(manifest))
        return runs, ck / "manifest.json", Model(ModelSpec.from_dict(manifest["spec"]))._layout[0][0]

    def _serve_both(self, trained, small_cohort, runs, tmp_path, capsys) -> tuple[str, str]:
        """The stderr of `predict` and of `evaluate` over `runs`, each
        asserted to exit 2 and write nothing."""
        errs = []
        assert self._predict_bin_1(trained, small_cohort[1][0], runs, tmp_path / "a.json") == 2
        errs.append(capsys.readouterr().err)
        assert _evaluate(trained, runs, tmp_path / "r.json") == 2
        errs.append(capsys.readouterr().err)
        assert not (tmp_path / "a.json").exists() and not (tmp_path / "r.json").exists()
        return tuple(errs)

    def test_format_1_checkpoint_exits_2_naming_its_version(self, trained, small_cohort, tmp_path, capsys):
        """A checkpoint as format 1 wrote it (an entry table, a digest per
        entry, none for the whole) is refused by its version."""
        runs = tmp_path / "runs"
        shutil.copytree(trained / "runs", runs)
        ck = runs / "intervals" / "bin-1.0" / "fold-0"
        manifest = json.loads((ck / "manifest.json").read_text())
        blob = (ck / "weights.bin").read_bytes()
        layout = Model(ModelSpec.from_dict(manifest["spec"]))._layout
        entries = [{"name": name, "shape": list(shape), "dtype": "f64le", "offset": 8 * start,
                    "length": 8 * (stop - start), "sha256": hashlib.sha256(blob[8 * start : 8 * stop]).hexdigest(),
                    "trainable": trainable} for name, shape, trainable, start, stop in layout]
        v1 = {"format_version": "1", "spec": manifest["spec"], "provenance": manifest["provenance"],
              "entries": entries, "total_length": len(blob)}
        (ck / "manifest.json").write_text(json.dumps(v1))
        expected = f"error: {ck / 'manifest.json'}: unsupported version '1'\n"
        assert self._serve_both(trained, small_cohort, runs, tmp_path, capsys) == (expected, expected)

    def test_torn_checkpoint_exits_2(self, trained, small_cohort, tmp_path, capsys):
        """The weights.bin of one save beside the manifest.json of another,
        as an interruption between a checkpoint's two renames leaves them:
        same spec, same length, other bytes."""
        runs = tmp_path / "runs"
        shutil.copytree(trained / "runs", runs)
        ck, other = (runs / "intervals" / "bin-1.0" / f"fold-{fold}" for fold in (0, 1))
        assert (ck / "weights.bin").read_bytes() != (other / "weights.bin").read_bytes()
        shutil.copy(other / "weights.bin", ck / "weights.bin")
        expected = f"error: {ck / 'manifest.json'}: checksum mismatch\n"
        assert self._serve_both(trained, small_cohort, runs, tmp_path, capsys) == (expected, expected)

    def test_foreign_spec_of_equal_length_exits_2(self, trained, small_cohort, tmp_path, capsys):
        """A manifest whose spec names another architecture that lays out as
        many values as the blob holds: the digest binds the spec."""
        runs = tmp_path / "runs"
        shutil.copytree(trained / "runs", runs)
        path = runs / "intervals" / "bin-1.0" / "fold-0" / "manifest.json"
        manifest = json.loads(path.read_text())
        foreign = equal_length_spec(ModelSpec.from_dict(manifest["spec"]))
        assert foreign.name != "Cascade-1"
        path.write_text(json.dumps(manifest | {"spec": foreign.to_dict()}))
        expected = f"error: {path}: checksum mismatch\n"
        assert self._serve_both(trained, small_cohort, runs, tmp_path, capsys) == (expected, expected)

    def test_non_finite_checkpoint_exits_2_naming_it(self, trained, small_cohort, tmp_path, capsys):
        runs, manifest, name = self._non_finite_copy(trained, tmp_path)
        expected = f"error: {manifest}: non-finite values in {name!r}\n"
        assert self._serve_both(trained, small_cohort, runs, tmp_path, capsys) == (expected, expected)

    @pytest.mark.parametrize("test_index", ["0", "-1"])
    def test_test_index_below_one_exits_1(self, trained, capsys, test_index):
        code = run_cli(
            "predict", "--interval", "1.0",
            "--data", str(trained / "d.jsonl"),
            "--patient", "P0001", "--eye", "OD", "--test-index", test_index,
            "--runs", str(trained / "runs"), "--out", str(trained / "f.json"),
        )
        assert code == 1
        assert capsys.readouterr().err == "error: --test-index must be >= 1\n"

    @pytest.mark.parametrize("eye", ["left", "od", "foo"])
    def test_eye_other_than_od_or_os_exits_1(self, trained, tmp_path, capsys, eye):
        code = run_cli(
            "predict", "--interval", "1.0",
            "--data", str(trained / "d.jsonl"),
            "--patient", "P0001", "--eye", eye, "--test-index", "1",
            "--runs", str(trained / "runs"), "--combo", "age", "--out", str(tmp_path / "f.json"),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: hvfcast predict")
        assert err.endswith(f"error: argument --eye: invalid choice: {eye!r} (choose from 'OD', 'OS')\n")
        assert not (tmp_path / "f.json").exists()

    def test_missing_record_exits_2(self, trained):
        code = run_cli(
            "predict", "--interval", "1.0",
            "--data", str(trained / "d.jsonl"),
            "--patient", "NOPE", "--eye", "OD", "--test-index", "1",
            "--runs", str(trained / "runs"), "--combo", "age",
            "--out", str(trained / "f.json"),
        )
        assert code == 2

    def _data_with(self, trained, tmp_path, extra_line):
        """The fixture dataset (its first line is the first cohort field) plus one line."""
        lines = (trained / "d.jsonl").read_text().splitlines()
        data = tmp_path / "extra.jsonl"
        data.write_text("\n".join(lines + [extra_line]) + "\n")
        return data, len(lines) + 1

    def test_duplicate_of_served_record_exits_2_naming_both_lines(self, trained, small_cohort, tmp_path, capsys):
        field = small_cohort[1][0]
        first = (trained / "d.jsonl").read_text().splitlines()[0]
        data, lineno = self._data_with(trained, tmp_path, first)
        assert self._predict_bin_1(trained, field, trained / "runs", tmp_path / "a.json", data) == 2
        err = capsys.readouterr().err
        assert f"error: {data}: line {lineno}: duplicate record for patient {field.patient_id!r}" in err
        assert "(first at line 1)" in err

    def test_malformed_line_holding_the_id_exits_2_with_line(self, trained, small_cohort, tmp_path, capsys):
        field = small_cohort[1][0]
        data, lineno = self._data_with(trained, tmp_path, f'{{"patient_id": "{field.patient_id}", "eye": ')
        assert self._predict_bin_1(trained, field, trained / "runs", tmp_path / "a.json", data) == 2
        assert f"error: {data}: line {lineno}: malformed JSON" in capsys.readouterr().err

    def test_other_patients_malformed_line_is_not_read(self, trained, small_cohort, tmp_path):
        """Predict validates only the lines that may hold the served record;
        `pairs`, `split`, `train` and `evaluate` still validate every line."""
        field = small_cohort[1][0]
        malformed = '{"patient_id": "OTHER", "eye": '
        assert field.patient_id not in malformed
        data, _ = self._data_with(trained, tmp_path, malformed)
        assert self._predict_bin_1(trained, field, trained / "runs", tmp_path / "a.json", data) == 0
        assert self._predict_bin_1(trained, field, trained / "runs", tmp_path / "b.json") == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert run_cli("pairs", "--data", str(data), "--out", str(tmp_path / "p.jsonl")) == 2

    def test_other_patients_undecodable_line_is_not_read(self, trained, small_cohort, tmp_path, capsys):
        field = small_cohort[1][0]
        data = tmp_path / "extra.jsonl"
        data.write_bytes((trained / "d.jsonl").read_bytes() + b'{"patient_id": "OTHER\xff"}\n')
        assert self._predict_bin_1(trained, field, trained / "runs", tmp_path / "a.json", data) == 0
        assert self._predict_bin_1(trained, field, trained / "runs", tmp_path / "b.json") == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert run_cli("pairs", "--data", str(data), "--out", str(tmp_path / "p.jsonl")) == 2
        assert "'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err


class TestInterruptedWrite:
    """A command whose final rename fails leaves every file it was replacing
    as it was: outputs are written aside and renamed into place."""

    def _report_of_first_rows(self, report_json, path):
        """`report_json` cut to its first row of each table, so each CSV differs."""
        report = json.loads(report_json.read_text())
        for key in ("md_scatter", "bland_altman"):
            report["rows"][key] = report["rows"][key][:1]
        report["per_bin"] = [e for e in report["per_bin"] if e["mae_ci"] is not None][:1]
        path.write_text(json.dumps(report))
        return path

    def test_failed_rename_keeps_previous_outputs(self, workdir, report_json, tmp_path, monkeypatch, capsys):
        d, p, csv_dir = tmp_path / "d.jsonl", tmp_path / "p.jsonl", tmp_path / "csv"
        other_report = self._report_of_first_rows(report_json, tmp_path / "other.json")
        simulate = ["simulate", "--patients", "21", "--out"]
        assert run_cli(*simulate, str(d), "--seed", "1") == 0
        assert run_cli("pairs", "--data", str(d), "--out", str(p)) == 0
        assert run_cli("report", "--report", str(report_json), "--out-dir", str(csv_dir)) == 0
        before = {path: path.read_bytes() for path in [d, p, *sorted(csv_dir.glob("*.csv"))]}
        assert len(before) == 5
        # the re-runs below would write other bytes
        assert run_cli(*simulate, str(tmp_path / "new" / d.name), "--seed", "2") == 0
        assert run_cli("pairs", "--data", str(workdir / "d.jsonl"), "--out", str(tmp_path / "new" / p.name)) == 0
        assert run_cli("report", "--report", str(other_report), "--out-dir", str(tmp_path / "new")) == 0
        assert all((tmp_path / "new" / path.name).read_bytes() != data for path, data in before.items())
        capsys.readouterr()

        def refuse(src, dst):
            raise OSError(f"cannot rename {src} to {dst}")

        monkeypatch.setattr("hvfcast.domain.os.replace", refuse)
        assert run_cli(*simulate, str(d), "--seed", "2") == 2
        assert run_cli("pairs", "--data", str(workdir / "d.jsonl"), "--out", str(p)) == 2
        assert run_cli("report", "--report", str(other_report), "--out-dir", str(csv_dir)) == 2
        assert capsys.readouterr().err.count("error: cannot rename ") == 3
        assert {path: path.read_bytes() for path in before} == before
        assert not list(tmp_path.rglob("*.tmp"))
