"""Tests for the command-line interface (:mod:`repro.cli`)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve", "--times", "1,2,3"])
        assert args.algorithm == "parallel-ptas"
        assert args.eps == 0.3


class TestSolve:
    def test_solve_times(self, capsys):
        assert main(["solve", "--times", "5,4,3,3,3", "-m", "2", "-a", "lpt"]) == 0
        out = capsys.readouterr().out
        assert "makespan : 10" in out  # LPT is suboptimal here (OPT = 9)

    def test_solve_family(self, capsys):
        assert (
            main(
                [
                    "solve",
                    "--family",
                    "u_10",
                    "-m",
                    "3",
                    "-n",
                    "8",
                    "--seed",
                    "1",
                    "-a",
                    "ptas",
                ]
            )
            == 0
        )
        assert "makespan" in capsys.readouterr().out

    @pytest.mark.parametrize("algo", ["brute", "bnb", "ilp"])
    def test_exact_algorithms(self, capsys, algo):
        assert main(["solve", "--times", "5,4,3,3,3", "-m", "2", "-a", algo]) == 0
        assert "makespan : 9" in capsys.readouterr().out

    @pytest.mark.parametrize("algo", ["ls", "lpt", "multifit", "ptas"])
    def test_heuristics_run(self, capsys, algo):
        assert main(["solve", "--times", "5,4,3,3,3", "-m", "2", "-a", algo]) == 0
        out = capsys.readouterr().out
        makespan = int(out.split("makespan :")[1].splitlines()[0])
        assert 9 <= makespan <= 12  # within the 4/3 envelope of OPT=9

    def test_show_schedule(self, capsys):
        main(["solve", "--times", "2,2", "-m", "2", "-a", "lpt", "--show-schedule"])
        out = capsys.readouterr().out
        assert "machine   0" in out

    def test_missing_instance(self):
        with pytest.raises(SystemExit):
            main(["solve", "-a", "lpt"])

    def test_parallel_ptas_workers(self, capsys):
        assert (
            main(
                [
                    "solve",
                    "--times",
                    "9,8,7,6,5",
                    "-m",
                    "2",
                    "-a",
                    "parallel-ptas",
                    "--workers",
                    "3",
                ]
            )
            == 0
        )
        assert "makespan" in capsys.readouterr().out


class TestProblemOption:
    def test_q_solve_with_times_and_speeds(self, capsys):
        assert (
            main(
                [
                    "solve",
                    "--problem",
                    "q_cmax",
                    "--engine",
                    "lpt",
                    "--times",
                    "6,4,3,2",
                    "--speeds",
                    "3,1",
                    "--show-schedule",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "problem  : q_cmax" in out
        assert "makespan : 4.0" in out
        assert "verified : ok" in out
        assert "speed   3" in out

    def test_engine_flag_sniffs_registry_names(self, capsys):
        # `--engine lpt` names a registry engine, not a DP engine: the
        # CLI accepts it as the algorithm (the name sets are disjoint).
        assert main(["solve", "--times", "5,4,3,3,3", "-m", "2", "--engine", "lpt"]) == 0
        out = capsys.readouterr().out
        assert "algorithm: lpt" in out

    def test_problem_alias_accepted(self, capsys):
        assert (
            main(
                [
                    "solve",
                    "--problem",
                    "uniform",
                    "-a",
                    "ls",
                    "--times",
                    "6,4",
                    "--speeds",
                    "2,1",
                ]
            )
            == 0
        )
        assert "problem  : q_cmax" in capsys.readouterr().out

    def test_q_speed_family_generation(self, capsys):
        assert (
            main(
                [
                    "solve",
                    "--problem",
                    "q_cmax",
                    "-a",
                    "lpt",
                    "--family",
                    "u_100",
                    "-m",
                    "4",
                    "-n",
                    "16",
                    "--speed-family",
                    "one_fast",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "speeds=(4, 1, 1, 1)" in out
        assert "verified : ok" in out

    def test_unsupported_pair_exits_2_listing_pairs(self, capsys):
        assert (
            main(
                [
                    "solve",
                    "--problem",
                    "q_cmax",
                    "-a",
                    "ptas",
                    "--times",
                    "6,4",
                    "--speeds",
                    "2,1",
                ]
            )
            == 2
        )
        err = capsys.readouterr().err
        assert "does not support problem 'q_cmax'" in err
        assert "lpt" in err and "ls" in err

    def test_q_without_speeds_exits_with_message(self):
        with pytest.raises(SystemExit, match="--speeds"):
            main(
                [
                    "solve",
                    "--problem",
                    "q_cmax",
                    "-a",
                    "lpt",
                    "--times",
                    "6,4",
                ]
            )

    def test_unknown_problem_rejected(self):
        with pytest.raises(ValueError, match="r_cmax"):
            main(
                [
                    "solve",
                    "--problem",
                    "r_cmax",
                    "-a",
                    "lpt",
                    "--times",
                    "6,4",
                ]
            )


class TestGenerate:
    def test_generate(self, capsys):
        assert main(["generate", "--family", "u_10", "-m", "2", "-n", "5"]) == 0
        out = capsys.readouterr().out.strip()
        times = [int(x) for x in out.split(",")]
        assert len(times) == 5
        assert all(1 <= t <= 10 for t in times)

    def test_generate_deterministic(self, capsys):
        main(["generate", "--family", "u_100", "-n", "6", "--seed", "3"])
        first = capsys.readouterr().out
        main(["generate", "--family", "u_100", "-n", "6", "--seed", "3"])
        assert capsys.readouterr().out == first


class TestTable:
    def test_table1(self, capsys):
        assert main(["table", "1"]) == 0
        assert "Table I" in capsys.readouterr().out


class TestFigure1:
    def test_renders_dependency_graph(self, capsys):
        assert main(["figure", "1"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 1" in out
        assert "OPT(2, 3)" in out


class TestIORoundtrips:
    def test_generate_convert_solve_verify(self, capsys, tmp_path):
        txt = tmp_path / "i.txt"
        js = tmp_path / "i.json"
        sched = tmp_path / "s.json"
        assert main(
            ["generate", "--family", "u_10", "-m", "2", "-n", "6",
             "--seed", "3", "--output", str(txt)]
        ) == 0
        assert main(["convert", str(txt), str(js)]) == 0
        assert main(
            ["solve", "--input", str(js), "-a", "lpt", "--gantt",
             "--output", str(sched)]
        ) == 0
        out = capsys.readouterr().out
        assert "makespan" in out and "| load" in out
        assert main(["verify", str(sched)]) == 0
        assert "OK: valid schedule" in capsys.readouterr().out

    def test_verify_rejects_tampered_file(self, capsys, tmp_path):
        import json

        from repro.io.schedules import schedule_to_json
        from repro.model.instance import Instance
        from repro.model.schedule import Schedule

        inst = Instance([3, 2], 2)
        doc = json.loads(schedule_to_json(Schedule(inst, [[0], [1]])))
        doc.pop("makespan")
        doc["assignment"] = [[0, 1], []]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        # Structural corruption surfaces as a load error here (the
        # Schedule constructor re-validates), which is the right failure.
        assert main(["verify", str(path)]) == 0  # still a *valid* partition
        # Truly broken partition:
        doc["assignment"] = [[0], []]
        path.write_text(json.dumps(doc))
        import pytest as _pytest

        with _pytest.raises(ValueError):
            main(["verify", str(path)])


class TestBenchDP:
    def test_bench_dp(self, capsys):
        assert (
            main(["bench-dp", "--family", "u_10", "-m", "3", "-n", "10"]) == 0
        )
        out = capsys.readouterr().out
        assert "table" in out and "dominance" in out


class TestUnknownEngine:
    def test_solve_unknown_algorithm_exits_nonzero(self, capsys):
        assert main(["solve", "--times", "5,4,3", "-m", "2", "-a", "nosuch"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "nosuch" in err
        assert "ptas" in err  # the message lists the valid names

    def test_engine_flag_unknown_name_exits_nonzero(self, capsys):
        assert main(["solve", "--times", "5,4,3", "-m", "2", "--engine", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "bogus" in err
        # The message lists every registry engine name.
        from repro.service.registry import available_engines

        for name in available_engines():
            assert name in err

    def test_dp_engine_flag_is_rejected(self, capsys):
        # The flag selected the PTAS's DP engine; every PTAS answer now
        # comes from the wavefront kernel, so argparse refuses it.
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--times", "5,4,3", "-m", "2", "--dp-engine", "table"])
        assert exc.value.code == 2
        assert "--dp-engine" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["lpt", "ptas"])
    def test_engine_flag_is_algorithm_alias(self, capsys, name):
        assert (
            main(["solve", "--times", "5,4,3,3,3", "-m", "2", "--engine", name])
            == 0
        )
        out = capsys.readouterr().out
        assert f"algorithm: {name}" in out and "verified : ok" in out

    def test_dash_alias_accepted(self, capsys):
        assert (
            main(
                ["solve", "--times", "5,4,3,3,3", "-m", "2", "-a", "parallel-ptas"]
            )
            == 0
        )
        assert "makespan" in capsys.readouterr().out


class TestTraceOption:
    def test_solve_trace_writes_valid_file(self, capsys, tmp_path):
        from repro.obs import load_trace, validate_trace_file

        path = tmp_path / "trace.json"
        assert (
            main(
                [
                    "solve",
                    "--times",
                    "9,8,7,6,5,4,3,3",
                    "-m",
                    "3",
                    "-a",
                    "parallel-ptas",
                    "--backend",
                    "numpy-serial",
                    "--trace",
                    str(path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert f"trace    : {path}" in out
        # The per-phase summary is printed alongside the result.
        assert "solve" in out and "probe" in out
        # ... and the file round-trips through the schema validator.
        validate_trace_file(path)
        loaded = load_trace(path)
        assert loaded.spans and loaded.spans[0].kind == "solve"
        assert loaded.counters["probes"] >= 1

    def test_untraced_solve_prints_no_trace_line(self, capsys):
        assert main(["solve", "--times", "5,4,3", "-m", "2", "-a", "ptas"]) == 0
        assert "trace    :" not in capsys.readouterr().out


class TestBenchDPCacheLine:
    def test_bench_dp_reports_config_cache(self, capsys):
        assert (
            main(["bench-dp", "--family", "u_10", "-m", "3", "-n", "10"]) == 0
        )
        out = capsys.readouterr().out
        assert "config-cache:" in out
        assert "hits=" in out and "misses=" in out and "currsize=" in out


class TestServeSubmit:
    def test_serve_submit_round_trip(self, capsys):
        import re
        import threading
        import time as _time

        thread = threading.Thread(
            target=main,
            args=(
                [
                    "serve",
                    "--host",
                    "127.0.0.1",
                    "--port",
                    "0",
                    "--workers",
                    "2",
                    "--log-interval",
                    "0",
                ],
            ),
            daemon=True,
        )
        thread.start()
        # The serve thread prints the bound port through the captured
        # stdout; poll until the ready line appears.
        port = None
        buffered = ""
        deadline = _time.monotonic() + 20
        while port is None and _time.monotonic() < deadline:
            buffered += capsys.readouterr().out
            found = re.search(r"listening on 127\.0\.0\.1:(\d+)", buffered)
            if found:
                port = int(found.group(1))
            else:
                _time.sleep(0.05)
        assert port is not None, f"server never became ready: {buffered!r}"
        try:
            assert (
                main(
                    [
                        "submit",
                        "--port",
                        str(port),
                        "--times",
                        "5,4,3,3,3",
                        "-m",
                        "2",
                        "-a",
                        "ptas",
                    ]
                )
                == 0
            )
            out = capsys.readouterr().out
            assert "makespan : " in out
            assert "engine   : ptas" in out

            assert main(["submit", "--port", str(port), "--op", "ping"]) == 0
            assert '"pong"' in capsys.readouterr().out

            # --repeat replays N copies and reports the seed used, so a
            # run over a generated family can be reproduced exactly.
            assert (
                main(
                    [
                        "submit",
                        "--port",
                        str(port),
                        "--times",
                        "5,4,3,3,3",
                        "-m",
                        "2",
                        "-a",
                        "lpt",
                        "--seed",
                        "7",
                        "--repeat",
                        "3",
                    ]
                )
                == 0
            )
            out = capsys.readouterr().out
            assert "requests   : 3/3" in out
            assert "seed       : 7" in out

            assert (
                main(
                    [
                        "submit",
                        "--port",
                        str(port),
                        "--times",
                        "5,4,3",
                        "-m",
                        "2",
                        "-a",
                        "nosuch",
                    ]
                )
                == 2
            )
            assert "nosuch" in capsys.readouterr().err
        finally:
            main(["submit", "--port", str(port), "--op", "shutdown"])
            capsys.readouterr()
            thread.join(timeout=20)
        assert not thread.is_alive()


class TestWorkersAndMode:
    def test_workers_default_is_auto(self):
        args = build_parser().parse_args(["solve", "--times", "1,2,3"])
        assert args.workers == "auto"

    def test_workers_auto_accepted(self):
        args = build_parser().parse_args(
            ["solve", "--times", "1,2,3", "--workers", "auto"]
        )
        assert args.workers == "auto"

    def test_workers_integer_parsed(self):
        args = build_parser().parse_args(
            ["solve", "--times", "1,2,3", "--workers", "4"]
        )
        assert args.workers == 4

    def test_workers_rejects_garbage(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["solve", "--times", "1,2,3", "--workers", "lots"]
            )

    def test_mode_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["solve", "--times", "1,2,3", "--mode", "bogus"]
            )

    def test_solve_with_auto_workers_and_speculative_mode(self, capsys):
        assert (
            main(
                [
                    "solve",
                    "--times",
                    "9,8,7,6,5,5,4,3,2,1",
                    "-m",
                    "3",
                    "-a",
                    "parallel-ptas",
                    "--backend",
                    "serial",
                    "--workers",
                    "auto",
                    "--mode",
                    "speculative",
                ]
            )
            == 0
        )
        assert "makespan" in capsys.readouterr().out
