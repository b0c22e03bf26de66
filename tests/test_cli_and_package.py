"""Tests for the CLI and the public package surface."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.7.0"
        # A regex rather than tomllib, so the check also runs on Python 3.10.
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        match = re.search(
            r'^version\s*=\s*"([^"]+)"', pyproject.read_text(encoding="utf-8"),
            re.MULTILINE,
        )
        assert match is not None
        assert match.group(1) == repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_removed_fast_engine_is_not_exported(self):
        import repro.core

        for package in (repro, repro.core):
            assert not [name for name in dir(package) if name.startswith("Fast")]

    def test_paper_algorithms_exposed(self):
        assert repro.Gathering().name == "gathering"
        assert repro.Waiting().name == "waiting"
        assert repro.WaitingGreedy(tau=10).name == "waiting_greedy"

    def test_quickstart_snippet_from_docstring(self):
        nodes = list(range(20))
        adversary = repro.RandomizedAdversary(nodes, seed=1)
        result = repro.Executor(nodes, sink=0, algorithm=repro.Gathering()).run(
            adversary, max_interactions=20_000
        )
        assert result.terminated


#: Imports the package and the CLI, runs a spanning_tree trial on each
#: engine and draws a random tree, then reports whether networkx got loaded.
_NO_NETWORKX_SCRIPT = """
import sys
import repro, repro.cli
from repro.algorithms.spanning_tree import SpanningTreeAggregation
from repro.graph.generators import random_tree
from repro.sim.runner import run_random_trial
for engine in ("reference", "vectorized"):
    assert run_random_trial(SpanningTreeAggregation(), 12, 3, engine=engine).terminated
assert len(random_tree(10, seed=1)) == 9
print("networkx" in sys.modules)
"""


def test_package_runs_without_importing_networkx():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", _NO_NETWORKX_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "False"


class TestCLI:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["list"])
        assert args.command == "list"

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "E11" in output
        assert "gathering" in output

    def test_trial_command(self, capsys):
        assert main(["trial", "gathering", "--n", "12", "--seed", "1"]) == 0
        output = capsys.readouterr().out
        assert "terminated=True" in output

    def test_trial_command_waiting_greedy_defaults_tau(self, capsys):
        assert main(["trial", "waiting_greedy", "--n", "12", "--seed", "1"]) == 0

    def test_run_command_writes_output(self, tmp_path, capsys):
        target = tmp_path / "report.md"
        code = main(["run", "E5", "--output", str(target)])
        assert code == 0
        assert "Theorem 5" in target.read_text()

    def test_run_command_unknown_experiment(self):
        with pytest.raises(KeyError):
            main(["run", "E99"])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestSweepCLI:
    """Smoke tests for the sweep subcommand and its engine/worker knobs."""

    def test_sweep_default(self, capsys):
        assert main(["sweep", "gathering", "--ns", "8,10", "--trials", "2"]) == 0
        output = capsys.readouterr().out
        assert "gathering: interactions to termination" in output
        assert "| 8 |" in output and "| 10 |" in output

    def test_sweep_rejects_removed_fast_engine(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "gathering", "--ns", "9", "--engine", "fast"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'fast'" in err
        assert "'reference', 'vectorized'" in err
        assert "Traceback" not in err

    def test_sweep_workers(self, capsys):
        assert main(["sweep", "gathering", "--ns", "8", "--trials", "2",
                     "--engine", "reference"]) == 0
        serial = capsys.readouterr().out
        assert (
            main(["sweep", "gathering", "--ns", "8", "--trials", "2",
                  "--engine", "vectorized", "--workers", "2"]) == 0
        )
        assert capsys.readouterr().out == serial

    def test_sweep_mobility_adversary(self, capsys):
        assert (
            main(["sweep", "waiting", "--ns", "8", "--trials", "2",
                  "--adversary", "community", "--engine", "vectorized"]) == 0
        )
        assert "waiting" in capsys.readouterr().out

    def test_sweep_writes_output_file(self, tmp_path):
        target = tmp_path / "sweep.md"
        assert (
            main(["sweep", "gathering", "--ns", "8", "--trials", "2",
                  "--output", str(target)]) == 0
        )
        assert "interactions to termination" in target.read_text()

    def test_sweep_rejects_bad_arguments(self):
        with pytest.raises(SystemExit):
            main(["sweep", "gathering", "--ns", "not-numbers"])
        with pytest.raises(SystemExit):
            main(["sweep", "gathering", "--ns", ""])
        with pytest.raises(SystemExit):
            main(["sweep", "gathering", "--ns", "8", "--trials", "0"])
        with pytest.raises(SystemExit):
            main(["sweep", "gathering", "--ns", "8", "--workers", "0"])
        with pytest.raises(SystemExit):
            main(["sweep", "no_such_algorithm", "--ns", "8"])
        with pytest.raises(SystemExit):
            main(["sweep", "gathering", "--ns", "8",
                  "--adversary", "rush_hour"])

    @pytest.mark.parametrize(
        "argv",
        (
            ["sweep", "gathering", "--ns", "8", "--trials", "2"],
            ["campaign", "run", "examples/campaign_smoke.toml"],
        ),
        ids=("sweep", "campaign-run"),
    )
    def test_removed_block_size_flag_is_an_argparse_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--block-size", "64"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --block-size 64" in err
        assert "Traceback" not in err

    def test_trial_engine_flag(self, capsys):
        assert main(["trial", "gathering", "--n", "10", "--seed", "2",
                     "--engine", "vectorized"]) == 0
        vectorized = capsys.readouterr().out
        assert main(["trial", "gathering", "--n", "10", "--seed", "2"]) == 0
        assert capsys.readouterr().out == vectorized

    def test_trial_adversary_flag(self, capsys):
        assert main(["trial", "gathering", "--n", "12", "--seed", "1",
                     "--adversary", "waypoint"]) == 0
        assert "adversary=waypoint" in capsys.readouterr().out


class TestVectorizedEngineCLI:
    """Smoke tests for --engine vectorized across the CLI surface."""

    def test_trial_vectorized_matches_reference(self, capsys):
        assert main(["trial", "waiting_greedy", "--n", "14", "--seed", "3"]) == 0
        reference = capsys.readouterr().out
        assert main(["trial", "waiting_greedy", "--n", "14", "--seed", "3",
                     "--engine", "vectorized"]) == 0
        assert capsys.readouterr().out == reference

    def test_sweep_vectorized_matches_reference(self, capsys):
        assert main(["sweep", "waiting", "--ns", "9,11", "--trials", "3",
                     "--engine", "reference"]) == 0
        reference = capsys.readouterr().out
        assert (
            main(["sweep", "waiting", "--ns", "9,11", "--trials", "3",
                  "--engine", "vectorized"]) == 0
        )
        assert capsys.readouterr().out == reference

    def test_sweep_default_engine_matches_reference(self, capsys):
        assert main(["sweep", "gathering", "--ns", "8,10", "--trials", "3",
                     "--engine", "reference"]) == 0
        reference = capsys.readouterr().out
        assert (
            main(["sweep", "gathering", "--ns", "8,10", "--trials", "3"]) == 0
        )
        assert capsys.readouterr().out == reference

    @pytest.mark.parametrize("workers", ("2", "3"))
    def test_sweep_vectorized_workers_compose(self, workers, capsys):
        assert main(["sweep", "gathering", "--ns", "8,10", "--trials", "2",
                     "--engine", "reference"]) == 0
        reference = capsys.readouterr().out
        assert (
            main(["sweep", "gathering", "--ns", "8,10", "--trials", "2",
                  "--engine", "vectorized", "--workers", workers]) == 0
        )
        assert capsys.readouterr().out == reference

    @pytest.mark.parametrize(
        "algorithm", ("spanning_tree", "full_knowledge", "future_broadcast")
    )
    def test_sweep_vectorized_knowledge_algorithms(self, algorithm, capsys):
        """The knowledge-heavy algorithms run kernelized — no fallback."""
        import warnings

        from repro.core.vector_execution import EngineFallbackWarning

        assert main(["sweep", algorithm, "--ns", "8", "--trials", "2",
                     "--engine", "reference"]) == 0
        reference = capsys.readouterr().out
        with warnings.catch_warnings():
            warnings.simplefilter("error", EngineFallbackWarning)
            assert (
                main(["sweep", algorithm, "--ns", "8", "--trials", "2",
                      "--engine", "vectorized"]) == 0
            )
        assert capsys.readouterr().out == reference

    @pytest.mark.parametrize(
        "algorithm", ("spanning_tree", "full_knowledge", "future_broadcast")
    )
    def test_trial_vectorized_knowledge_algorithms(self, algorithm, capsys):
        assert main(["trial", algorithm, "--n", "12", "--seed", "1"]) == 0
        reference = capsys.readouterr().out
        assert main(["trial", algorithm, "--n", "12", "--seed", "1",
                     "--engine", "vectorized"]) == 0
        assert capsys.readouterr().out == reference

    def test_sweep_vectorized_unknown_kernel_warns(self, monkeypatch, capsys):
        """Removing a kernel surfaces the strict lookup error, CLI-visible.

        ``get_kernel`` now raises a ``KeyError`` naming the algorithm and
        listing the registered kernels; the vectorized engine turns that
        into a per-cell ``EngineFallbackWarning`` carrying the same
        message, and the sweep still completes with the reference numbers
        plus a ``fallbacks`` column surfacing the downgrade per row
        (docs/observability.md).
        """
        from repro.algorithms import kernels as kernels_module
        from repro.core.vector_execution import EngineFallbackWarning

        assert main(["sweep", "gathering", "--ns", "8", "--trials", "2",
                     "--engine", "reference"]) == 0
        reference = capsys.readouterr().out
        monkeypatch.delitem(kernels_module.KERNELS, "gathering")
        with pytest.warns(EngineFallbackWarning) as caught:
            assert (
                main(["sweep", "gathering", "--ns", "8", "--trials", "2",
                      "--engine", "vectorized"]) == 0
            )
        fallback_out = capsys.readouterr().out

        def drop_last_column(table: str) -> str:
            lines = []
            for line in table.splitlines():
                if line.startswith("|") and line.endswith("|"):
                    cells = line[1:-1].split("|")
                    lines.append("|" + "|".join(cells[:-1]) + "|")
                else:
                    lines.append(line)
            return "\n".join(lines) + "\n"

        assert "fallbacks" in fallback_out
        # Both trials of the one cell downgraded; the numbers themselves
        # stay reference-identical, only the new column differs.
        assert "| 2 |" in fallback_out.splitlines()[-1]
        assert drop_last_column(fallback_out) == reference
        message = str(caught[0].message)
        assert "no decision kernel is registered for algorithm" in message
        assert "'gathering'" in message
        assert "registered kernels:" in message

    def test_sweep_vectorized_mobility_adversary(self, capsys):
        assert (
            main(["sweep", "waiting", "--ns", "10", "--trials", "2",
                  "--adversary", "community", "--engine", "vectorized"]) == 0
        )
        assert "waiting" in capsys.readouterr().out

    def test_run_e23_vectorized_equivalence_experiment(self, capsys):
        assert main(["run", "E23"]) == 0
        assert "reproduced" in capsys.readouterr().out
