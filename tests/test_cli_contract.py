"""The CLI's surface, pinned as data.

``tests/data/cli_contract.json`` is a projection of ``build_parser()`` —
per subcommand, every action's option strings, dest, default, type,
choices, ``required`` and nargs/action kind (help text excluded) — dumped
from the parser *before* ``experiments/cli.py`` moved onto shared flag
groups and a handler table.  The test rebuilds the projection from the
live parser and compares it whole, so a lost flag, a changed default or a
default leaked from one subcommand into a sibling fails by name.

Regenerate (only when a flag is added or changed on purpose)::

    PYTHONPATH=src python tests/test_cli_contract.py
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Any, Dict

import pytest

from repro.experiments.cli import build_parser, main
from repro.oracle.cluster import ClusterConfig, build_cluster_config

CONTRACT_PATH = Path(__file__).parent / "data" / "cli_contract.json"


def _subcommands(parser: argparse.ArgumentParser) -> Dict[str, argparse.ArgumentParser]:
    (subparsers,) = (
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return dict(subparsers.choices)


def cli_projection() -> Dict[str, Dict[str, Dict[str, Any]]]:
    """``{subcommand: {flag: {dest, default, type, ...}}}`` of the live parser."""
    projection: Dict[str, Dict[str, Dict[str, Any]]] = {}
    for command, subparser in _subcommands(build_parser()).items():
        flags: Dict[str, Dict[str, Any]] = {}
        for action in subparser._actions:
            key = action.option_strings[0] if action.option_strings else action.dest
            flags[key] = {
                "option_strings": list(action.option_strings),
                "dest": action.dest,
                "default": action.default,
                "type": None if action.type is None else action.type.__name__,
                "choices": None if action.choices is None else list(action.choices),
                "required": action.required,
                "nargs": action.nargs,
                "action": type(action).__name__,
            }
        projection[command] = flags
    return projection


@pytest.fixture(scope="module")
def contract() -> Dict[str, Dict[str, Dict[str, Any]]]:
    return json.loads(CONTRACT_PATH.read_text())


def test_same_subcommands(contract):
    assert sorted(cli_projection()) == sorted(contract)
    assert len(contract) == 13


@pytest.mark.parametrize("command", sorted(cli_projection()))
def test_subcommand_flags_match_the_committed_contract(contract, command):
    live = cli_projection()[command]
    committed = contract[command]
    assert sorted(live) == sorted(committed), "flag set changed"
    for flag in committed:
        assert live[flag] == committed[flag], f"{command} {flag}"


def test_every_subcommand_has_a_handler():
    for command, subparser in _subcommands(build_parser()).items():
        assert callable(subparser.get_default("handler")), command


if __name__ == "__main__":
    CONTRACT_PATH.write_text(json.dumps(cli_projection(), indent=1, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# Bad spec files are configuration errors: exit 2, a message that names the
# key or the file, no traceback.


def _cluster_json(tmp_path, **extra):
    config = build_cluster_config("sensors", 4, runtime_dir=tmp_path, secret_seed=b"x")
    path = tmp_path / "cluster.json"
    path.write_text(json.dumps({**config.to_dict(), **extra}))
    return path


@pytest.mark.parametrize(
    "argv",
    [["cluster", "--no-spawn", "--config"], ["cluster-node", "--node-id", "0", "--config"]],
    ids=["cluster", "cluster-node"],
)
def test_misspelt_cluster_config_key_is_named(tmp_path, capsys, argv):
    path = _cluster_json(tmp_path, epoch_timout=5.0)
    assert main([*argv, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ClusterConfig: unknown key 'epoch_timout' (known: ")
    assert "Traceback" not in err


def test_well_formed_cluster_config_round_trips_through_the_cli(tmp_path, capsys):
    path = _cluster_json(tmp_path)
    copy = tmp_path / "copy.json"
    assert main(["cluster", "--config", str(path), "--write-config", str(copy)]) == 0
    assert ClusterConfig.load(copy).to_dict() == ClusterConfig.load(path).to_dict()


@pytest.mark.parametrize(
    "content, names",
    [
        ("{bad", "cannot read {path}"),
        ("[1, 2]", "{path} must hold a JSON object"),
        ('{"kils": []}', "unknown key 'kils'"),
    ],
    ids=["unparseable", "not-an-object", "misspelt-key"],
)
def test_bad_chaos_schedule_file_is_a_clean_error(tmp_path, capsys, content, names):
    path = tmp_path / "schedule.json"
    path.write_text(content)
    assert main(["chaos", "--schedule", str(path), "--no-artifact"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ChaosSchedule: ") and names.format(path=path) in err
    assert "Traceback" not in err


def test_missing_spec_file_names_the_file(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["cluster", "--config", str(missing), "--no-spawn"]) == 2
    assert str(missing) in capsys.readouterr().err
