"""Byte-identity of every CLI output against a committed SHA-256 table.

The commands run in-process on the three presets shortened to t_end = 2:
``simulate`` from both start conditions, ``ensemble --runs 3``,
``ensemble --runs 1`` (whose summary writes ``var_of_mean_speed`` as
0.0) and ``spectrum``, each also replayed from its own manifest, and
``simulate`` of fig3 with unwrapped positions.  Four stability maps
follow: alpha x gamma, beta x t_gap, one with a descending axis and one
with a one-value axis.  Every file written is hashed and compared with
``golden_sha256.json``.

The table changes only with a deliberate output change, which also bumps
``SCHEMA_VERSION``: regenerate it by writing ``golden_hashes(directory)``
to the JSON file by hand.
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from phcf import UniformStationary, preset, write_scenario
from phcf.cli import main

TABLE = Path(__file__).resolve().parent / "golden_sha256.json"

# (directory, extra arguments) per command; each is replayed from its manifest.
COMMANDS = (
    ("simulate", ["simulate"]),
    ("ensemble", ["ensemble", "--runs", "3"]),
    ("ensemble_one", ["ensemble", "--runs", "1"]),
    ("spectrum", ["spectrum"]),
)
MAPS = (
    ("map_alpha_gamma", ["--vary", "alpha=0.1:2.0:6", "--vary", "gamma=0.1:2.0:7"]),
    ("map_beta_t_gap", ["--vary", "beta=0.2:2.0:5", "--vary", "t_gap=0.5:3.0:6"]),
    ("map_alpha_descending", ["--vary", "alpha=2.0:0.1:6", "--vary", "gamma=0.1:2.0:7"]),
    ("map_t_gap_one_value", ["--vary", "t_gap=1.5:1.5:1", "--vary", "beta=0.2:2.0:5"]),
)


def _run(argv):
    code = main(argv)
    assert code == 0, argv


def _scenario_files(root: Path):
    """Shortened presets: name -> scenario path."""
    files = {}
    for name in ("fig1", "fig2", "fig3"):
        sc = preset(name)
        short = replace(sc.config, t_end=2.0, sample_stride=20)
        for start, config in (("zero", short), ("stationary", replace(short, initial=UniformStationary()))):
            path = root / f"{name}_{start}.ini"
            write_scenario(replace(sc, config=config), path)
            files[f"{name}_{start}"] = path
    # simulate only: a label not ending in _zero runs COMMANDS[:1]
    sc = preset("fig3")
    unwrapped = replace(sc, config=replace(sc.config, t_end=2.0, sample_stride=20),
                        output=replace(sc.output, wrap_positions=False))
    files["fig3_unwrapped"] = root / "fig3_unwrapped.ini"
    write_scenario(unwrapped, files["fig3_unwrapped"])
    return files


def golden_hashes(root: Path) -> dict:
    """Run every command under root; SHA-256 of each output by relative path."""
    out = root / "out"
    for label, scenario in _scenario_files(root).items():
        commands = COMMANDS if label.endswith("_zero") else COMMANDS[:1]
        for command, args in commands:
            first = out / label / command
            _run(args + ["--scenario", str(scenario), "--out", str(first)])
            _run(args[:1] + ["--scenario", str(first / "run_manifest.txt"),
                             "--out", str(out / label / f"{command}_replay")])
    for label, args in MAPS:
        _run(["stability-map", "--scenario", str(root / "fig3_zero.ini"),
              "--out", str(out / label)] + args)
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


@pytest.fixture(scope="module")
def hashes(tmp_path_factory):
    return golden_hashes(tmp_path_factory.mktemp("golden"))


def test_outputs_match_golden_table(hashes):
    expected = json.loads(TABLE.read_text(encoding="utf-8"))
    assert sorted(hashes) == sorted(expected)
    changed = [name for name in expected if hashes[name] != expected[name]]
    assert not changed, f"outputs differ from the golden table: {changed}"


def test_replays_are_byte_identical(hashes):
    replays = [name for name in hashes if "_replay/" in name]
    assert replays
    for name in replays:
        assert hashes[name] == hashes[name.replace("_replay/", "/", 1)], name
