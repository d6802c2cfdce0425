"""The command-line interface (repro.cli)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_experiment_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.command == "table1"
        assert args.scale == 1.0
        assert args.seed == 0

    def test_experiment_options(self):
        args = build_parser().parse_args(
            ["fig4", "--scale", "0.5", "--seed", "9"]
        )
        assert args.scale == 0.5
        assert args.seed == 9

    def test_mine_imp_options(self):
        args = build_parser().parse_args(
            ["mine-imp", "data.txt", "--minconf", "0.8", "--limit", "5"]
        )
        assert args.path == "data.txt"
        assert args.minconf == 0.8
        assert args.limit == 5

    def test_supervised_worker_options(self):
        args = build_parser().parse_args(
            ["mine-imp", "data.txt", "--workers", "3", "--partitions", "6"]
        )
        assert args.workers == 3
        assert args.partitions == 6
        # The retired worker-pool knobs are gone from the parser.
        for flag in ("--task-timeout", "--task-retries", "--ledger"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["mine-imp", "data.txt", flag, "1"]
                )

    def test_storage_options(self):
        args = build_parser().parse_args(
            ["mine-imp", "data.txt", "--preflight-disk"]
        )
        assert args.preflight_disk is True
        defaults = build_parser().parse_args(["mine-imp", "data.txt"])
        assert defaults.preflight_disk is False

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nonsense"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestExperimentCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig7" in out

    def test_runs_table1(self, capsys):
        assert main(["table1", "--scale", "0.2"]) == 0
        assert "plinkF" in capsys.readouterr().out

    def test_runs_fig4_small(self, capsys):
        assert main(["fig4", "--scale", "0.2"]) == 0
        assert "Column density" in capsys.readouterr().out


class TestMiningCommands:
    @pytest.fixture
    def transactions_file(self, tmp_path):
        from repro.matrix.binary_matrix import BinaryMatrix
        from repro.matrix.io import save_transactions

        matrix = BinaryMatrix.from_transactions(
            [["a", "b"], ["a", "b"], ["a", "b", "c"], ["c"]]
        )
        path = str(tmp_path / "data.txt")
        save_transactions(matrix, path)
        return path

    def test_mine_imp(self, capsys, transactions_file):
        assert main(["mine-imp", transactions_file, "--minconf", "0.9"]) == 0
        out = capsys.readouterr().out
        assert "a -> b" in out or "b -> a" in out

    def test_mine_sim(self, capsys, transactions_file):
        assert main(["mine-sim", transactions_file, "--minsim", "0.9"]) == 0
        assert "~" in capsys.readouterr().out

    def test_limit_truncates(self, capsys, transactions_file):
        assert main(
            ["mine-imp", transactions_file, "--minconf", "0.5",
             "--limit", "1"]
        ) == 0
        assert "more" in capsys.readouterr().out

    def test_missing_file(self, capsys, tmp_path):
        assert main(["mine-imp", str(tmp_path / "nope.txt")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_preflight_disk_on_healthy_disk_mines_normally(
        self, capsys, tmp_path
    ):
        path = str(tmp_path / "numeric.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("0 1\n0 1\n0 1 2\n2\n")
        code = main(
            ["mine-imp", path, "--minconf", "0.9",
             "--stream", "--preflight-disk"]
        )
        assert code == 0
        assert "->" in capsys.readouterr().out

    def test_workers_conflicts_with_stream(self, capsys, transactions_file):
        code = main(
            ["mine-imp", transactions_file, "--stream", "--workers", "2"]
        )
        assert code == 2
        assert "cannot be combined" in capsys.readouterr().err

    def test_vector_engine_conflicts_with_stream(
        self, capsys, transactions_file
    ):
        code = main(
            ["mine-imp", transactions_file, "--stream", "--engine", "vector"]
        )
        assert code == 2
        assert "already runs the vector pass 2" in capsys.readouterr().err

    def test_block_rows_is_retired(self, capsys, transactions_file):
        with pytest.raises(SystemExit) as exit_info:
            main(["mine-imp", transactions_file, "--block-rows", "8"])
        assert exit_info.value.code == 2
        assert "--block-rows" in capsys.readouterr().err

    @pytest.mark.parametrize("engine", ["dmc", "stream"])
    def test_workers_need_a_partitioning_engine(
        self, capsys, engine, transactions_file
    ):
        code = main(
            ["mine-imp", transactions_file, "--engine", engine,
             "--workers", "2"]
        )
        assert code == 2
        assert "n_workers > 1" in capsys.readouterr().err

    def test_workers_conflict_with_checkpoint(
        self, capsys, transactions_file, tmp_path
    ):
        code = main(
            ["mine-imp", transactions_file,
             "--checkpoint", str(tmp_path / "c"), "--workers", "2"]
        )
        assert code == 2
        assert "cannot be combined" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [
        ("mine-imp", "--minconf"), ("mine-sim", "--minsim"),
    ])
    def test_bad_threshold_is_a_usage_error(
        self, capsys, transactions_file, command, flag
    ):
        assert main([command, transactions_file, flag, "1.5"]) == 2
        err = capsys.readouterr().err
        assert "threshold must be in (0, 1], got 3/2" in err
        assert "cannot read" not in err

    @pytest.mark.parametrize("extra", [[], ["--workers", "2"]])
    def test_partitions_reach_the_partitioned_engine(
        self, capsys, transactions_file, extra
    ):
        code = main(
            ["mine-imp", transactions_file, "--engine", "partitioned",
             "--partitions", "0", *extra]
        )
        assert code == 2
        assert "n_partitions must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("stream", [[], ["--stream"]])
    @pytest.mark.parametrize("row", ["1 x", "1 -1"])
    def test_bad_input_is_a_read_error(self, capsys, tmp_path, stream, row):
        path = str(tmp_path / "tx.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f"#dmc-matrix\n0 1\n{row}\n0 1\n")
        assert main(["mine-imp", path, "--minconf", "0.5", *stream]) == 1
        assert f"cannot read {path}: " in capsys.readouterr().err

    @pytest.mark.slow
    def test_supervised_workers_match_serial(
        self, capsys, transactions_file
    ):
        assert main(
            ["mine-imp", transactions_file, "--minconf", "0.9"]
        ) == 0
        serial = capsys.readouterr().out
        assert main(
            ["mine-imp", transactions_file, "--minconf", "0.9",
             "--workers", "2", "--partitions", "2"]
        ) == 0
        assert capsys.readouterr().out == serial


class TestGenerateCommand:
    def test_generate_then_mine(self, capsys, tmp_path):
        out = str(tmp_path / "dicd.txt")
        assert main(
            ["generate", "dicD", "--out", out, "--scale", "0.3"]
        ) == 0
        assert "wrote dicD" in capsys.readouterr().out
        assert main(["mine-sim", out, "--minsim", "0.7"]) == 0

    def test_unknown_dataset(self, capsys, tmp_path):
        code = main(
            ["generate", "nope", "--out", str(tmp_path / "x.txt")]
        )
        assert code == 2
        assert "unknown data set" in capsys.readouterr().err
