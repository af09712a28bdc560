"""The CLI: each command's flags reach its driver, and documented commands parse."""

import argparse
import dataclasses
import importlib
import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core.kernels import ENV_VAR, use_backend
from repro.experiments.registry import EXPERIMENTS, list_experiments
from repro.robustness.faults import FaultEvent, FaultPlan
from repro.telemetry import TelemetryRecorder

REPO = Path(__file__).resolve().parents[1]

#: The driver each benchmark command calls, as (module, attribute).
BENCH_DRIVERS = {
    "serve-bench": ("repro.serving.bench", "run_serving_benchmark"),
    "pool-bench": ("repro.serving.pool", "run_pool_benchmark"),
    "chaos-bench": ("repro.robustness.chaos", "run_chaos_benchmark"),
    "sim-bench": ("repro.simulation.bench", "run_simulation_benchmark"),
    "sweep-bench": ("repro.serving.sweep", "run_sweep_benchmark"),
    "sweep-fig": ("repro.serving.sweep", "run_sweep"),
}

BENCH_FLAGS = {"--seed", "--backend", "--telemetry-window", "--telemetry-out"}
SWEEP_FLAGS = {
    "--pages", "--queries", "--grid-k", "--grid-r", "--grid-stale",
    "--grid-shards", "--cache-size", "--flush", "--feedback-rate",
    "--day-every", "--workers",
} | BENCH_FLAGS

#: Exactly the options each command accepts (besides ``-h``).
COMMAND_FLAGS = {
    "list": set(),
    **{name: {"--scale", "--seed"} for name in list_experiments()},
    "serve-bench": {
        "--pages", "--queries", "--k", "--shards", "--cache-size",
        "--staleness-budget", "--feedback-rate",
    } | BENCH_FLAGS,
    "pool-bench": {
        "--pages", "--queries", "--shards", "--cache-size",
        "--staleness-budget", "--feedback-rate", "--tenants", "--workers",
        "--clients", "--inbox-capacity", "--max-attempts", "--backoff-base",
    } | BENCH_FLAGS,
    "chaos-bench": {
        "--pages", "--queries", "--k", "--shards", "--cache-size",
        "--staleness-budget", "--feedback-rate", "--flush", "--mode",
        "--fault-plan", "--save-fault-plan", "--max-attempts", "--backoff-base",
    } | BENCH_FLAGS,
    "sim-bench": {
        "--pages", "--replicates", "--baseline-replicates", "--warmup",
        "--measure", "--mode", "--policy", "--workers",
    } | BENCH_FLAGS,
    "sweep-bench": SWEEP_FLAGS,
    "sweep-fig": SWEEP_FLAGS,
}

#: A valid value differing from every command's default, per option.
#: Paths are relative to the test's temporary directory.
NON_DEFAULT = {
    "--scale": "smoke",
    "--seed": "7",
    "--pages": "1234",
    "--queries": "1000",
    "--k": "5",
    "--shards": "3",
    "--cache-size": "9",
    "--staleness-budget": "2",
    "--feedback-rate": "0.5",
    "--tenants": "3",
    "--workers": "3",
    "--clients": "1",
    "--inbox-capacity": "2",
    "--max-attempts": "2",
    "--backoff-base": "0.01",
    "--flush": "32",
    "--mode": "stochastic",
    "--fault-plan": "plan.json",
    "--save-fault-plan": "saved-plan.json",
    "--replicates": "4",
    "--baseline-replicates": "2",
    "--warmup": "3",
    "--measure": "4",
    "--policy": "uniform",
    "--grid-k": "5",
    "--grid-r": "0.5",
    "--grid-stale": "1",
    "--grid-shards": "3",
    "--day-every": "50",
    "--backend": "numpy",
    "--telemetry-window": "16",
    "--telemetry-out": "telemetry.jsonl",
}
PATH_FLAGS = {"--fault-plan", "--save-fault-plan", "--telemetry-out"}

#: The flag mix-ups that a single shared parser used to accept and ignore.
IGNORED_BEFORE = [
    ["sweep-bench", "--tenants", "3", "--pages", "5"],
    ["figure1", "--scale", "smoke", "--grid-k", "99", "--replicates", "7"],
    [
        "serve-bench", "--max-attempts", "1", "--tenants", "5",
        "--clients", "3", "--inbox-capacity", "2",
    ],
    ["serve-bench", "--cache-size", "-3"],
]


def subparsers():
    parser = build_parser()
    (action,) = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return action.choices


def options(subparser):
    return {
        action.option_strings[-1]: action
        for action in subparser._actions
        if action.option_strings and action.dest != "help"
    }


class _Stub(dict):
    """Stands in for every driver's return value (report, result, sweep)."""

    elapsed_seconds = 0.0

    def render(self):
        return "stub"


def recorded_values(value, key):
    """Every value recorded under ``key`` anywhere in a canonical call."""
    if isinstance(value, (list, tuple)):
        if len(value) == 2 and value[0] == key:
            yield value[1]
        for item in value:
            yield from recorded_values(item, key)


def canon(value):
    """A comparable form of a recorded driver argument."""
    if isinstance(value, TelemetryRecorder):
        return ("telemetry", value.label, value.window.window, value._out_path)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,) + tuple(
            (field.name, canon(getattr(value, field.name)))
            for field in dataclasses.fields(value)
        )
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (list, tuple)):
        return tuple(canon(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((key, canon(item)) for key, item in value.items()))
    return value


@pytest.fixture
def cli_run(monkeypatch, tmp_path):
    """Run ``main(argv)`` with every driver replaced by a recorder.

    Returns the observed effect of the command: the driver calls (with
    their arguments made comparable), the kernel-backend environment seen
    by the driver, and the files the command wrote.
    """
    calls = []

    def recorder(*args, **kwargs):
        calls.append((canon(args), canon(kwargs), os.environ.get(ENV_VAR)))
        return _Stub()

    for module, attribute in BENCH_DRIVERS.values():
        monkeypatch.setattr(importlib.import_module(module), attribute, recorder)
    for name in list_experiments():
        monkeypatch.setitem(EXPERIMENTS, name, recorder)
    monkeypatch.setattr(
        importlib.import_module("repro.serving.figures"),
        "sweep_tradeoff_figures",
        lambda result: [],
    )
    monkeypatch.delenv(ENV_VAR, raising=False)
    monkeypatch.chdir(tmp_path)
    FaultPlan((FaultEvent(kind="stall", at_query=5, duration=3),)).save("plan.json")

    def run(argv):
        del calls[:]
        with use_backend(None):
            code = main(list(argv))
        written = sorted(p.name for p in tmp_path.iterdir() if p.name != "plan.json")
        for name in written:
            (tmp_path / name).unlink()
        monkeypatch.delenv(ENV_VAR, raising=False)
        return code, list(calls), written

    return run


class TestCommandTable:
    def test_each_command_declares_exactly_its_flags(self):
        commands = subparsers()
        assert set(commands) == set(COMMAND_FLAGS)
        for name, subparser in commands.items():
            assert set(options(subparser)) == COMMAND_FLAGS[name], name

    def test_every_flag_has_a_non_default_value(self):
        for name, subparser in subparsers().items():
            for flag, action in options(subparser).items():
                assert flag in NON_DEFAULT, (name, flag)
                if flag in PATH_FLAGS:
                    continue
                value = NON_DEFAULT[flag]
                if action.type is not None:
                    value = action.type(value)
                assert value != action.default, (name, flag)

    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_every_declared_flag_reaches_the_driver(self, cli_run, command):
        code, default_calls, default_files = cli_run([command])
        assert code == 0
        if command == "list":
            assert default_calls == []
            return
        assert len(default_calls) == 1
        # The observation is deterministic, so a difference below is the flag.
        assert cli_run([command]) == (code, default_calls, default_files)
        for flag in sorted(options(subparsers()[command])):
            observed = cli_run([command, flag, NON_DEFAULT[flag]])
            assert observed[0] == 0, flag
            assert observed[1:] != (default_calls, default_files), (
                "%s %s did not change what the command did" % (command, flag)
            )

    @pytest.mark.parametrize("argv", IGNORED_BEFORE, ids=" ".join)
    def test_flags_a_command_does_not_read_are_usage_errors(self, cli_run, argv):
        code, calls, _written = cli_run(argv)
        assert code == 2
        assert calls == []

    @pytest.mark.parametrize(
        "command",
        sorted(name for name, flags in COMMAND_FLAGS.items() if "--cache-size" in flags),
    )
    def test_cache_size_zero_disables_and_negative_is_rejected(self, cli_run, command):
        assert cli_run([command, "--cache-size", "-1"]) == (2, [], [])
        code, calls, _written = cli_run([command, "--cache-size", "0"])
        assert code == 0
        capacities = list(recorded_values(calls, "cache_capacity"))
        assert capacities and all(capacity is None for capacity in capacities)
        _code, calls, _written = cli_run([command])
        assert set(recorded_values(calls, "cache_capacity")) == {64}


# ------------------------------------------------------------ doc drift

SKILL = REPO / ".claude" / "skills" / "verify" / "SKILL.md"
CI = REPO / ".github" / "workflows" / "ci.yml"


def strip_comment(line):
    """``line`` without its bash comment (a ``#`` that starts a word)."""
    quote = None
    for index, char in enumerate(line):
        if quote:
            if char == quote:
                quote = None
        elif char in "'\"":
            quote = char
        elif char == "#" and (index == 0 or line[index - 1].isspace()):
            return line[:index]
    return line


def bash_commands(lines):
    """Logical bash commands: comments stripped, ``\\`` continuations joined.

    A backslash inside a comment does not continue the line, as in bash.
    """
    commands, pending = [], ""
    for line in lines:
        code = strip_comment(line).rstrip()
        if code.endswith("\\"):
            pending += code[:-1] + " "
            continue
        command = (pending + code).strip()
        pending = ""
        if command:
            commands.append(command)
    if pending.strip():
        commands.append(pending.strip())
    return commands


def markdown_bash_blocks(text):
    return re.findall(r"^[ \t]*```(?:bash|sh)\n(.*?)^[ \t]*```", text, flags=re.M | re.S)


def ci_run_commands(text):
    """The shell commands of every ``run:`` step (folded or literal)."""
    commands = []
    lines = text.splitlines()
    for index, line in enumerate(lines):
        match = re.match(r"^(\s*)(?:- )?run:\s*(.*)$", line)
        if not match:
            continue
        indent, rest = len(match.group(1)), match.group(2).strip()
        if rest not in (">", "|", ">-", "|-"):
            commands.append(rest)
            continue
        block = []
        for body in lines[index + 1:]:
            if body.strip() and len(body) - len(body.lstrip()) <= indent:
                break
            block.append(body.strip())
        if rest.startswith(">"):
            commands.append(" ".join(part for part in block if part))
        else:
            commands.extend(bash_commands(block))
    return commands


def repro_argv(command):
    """The CLI arguments of a ``python -m repro`` command, else ``None``."""
    tokens = shlex.split(command)
    for start in range(len(tokens) - 2):
        if tokens[start].startswith("python") and tokens[start + 1:start + 3] == [
            "-m", "repro"
        ]:
            argv = []
            for token in tokens[start + 3:]:
                if token in ("|", "||", "&&", ";", ">"):
                    break
                argv.append(token)
            return argv
    return None


def documented_commands():
    commands = []
    for path in (REPO / "README.md", SKILL):
        for block in markdown_bash_blocks(path.read_text()):
            commands.extend((path.name, c) for c in bash_commands(block.splitlines()))
    commands.extend(("ci.yml", c) for c in ci_run_commands(CI.read_text()))
    # The docstring examples: one command per line.
    for path in (REPO / "src" / "repro" / "cli.py", REPO / "src" / "repro" / "__init__.py"):
        lines = (line.strip() for line in path.read_text().splitlines())
        commands.extend((path.name, c) for c in lines if c.startswith("python -m repro "))
    return commands


class TestDocumentedCommands:
    def test_bash_rules(self):
        block = [
            "python -m repro sweep-bench \\",
            "    --grid-k 10  # page lengths \\",
            "    --grid-r 0.1",
        ]
        assert [command.split() for command in bash_commands(block)] == [
            ["python", "-m", "repro", "sweep-bench", "--grid-k", "10"],
            ["--grid-r", "0.1"],
        ]
        assert repro_argv("PYTHONPATH=src python -m repro list") == ["list"]
        assert repro_argv("python -m repro.contracts --self-test") is None

    def test_sources_hold_repro_commands(self):
        sources = {source for source, command in documented_commands()
                   if repro_argv(command) is not None}
        assert sources == {"README.md", "SKILL.md", "ci.yml", "cli.py", "__init__.py"}

    def test_no_stray_continuation_lines(self):
        for source, command in documented_commands():
            assert not command.startswith("--"), (source, command)

    def test_every_documented_command_parses(self):
        parser = build_parser()
        for source, command in documented_commands():
            argv = repro_argv(command)
            if argv is None:
                continue
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail("%s: %r does not parse" % (source, command))
