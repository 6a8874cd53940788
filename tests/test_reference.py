"""Reference numbers of the bench scene, pinned.

The bench scene (the default ``SceneSpec`` at 1 m cells with 6 vehicles, 8
trees, 2 facades, a mask grown onto the noise objects and 0.02 m jitter) at
seeds 1-3 runs through ``run`` and through ``ablate --param sampling_rates
--values 1/10,0.5/5``, in this process.  ``reference.json`` holds, per seed
and command:

- ``mask_filtered.asc``: the sha256 of run's filtered mask;
- ``record``: the integer and text entries the stages print, the fit's
  iteration and the TIN's triangle counts among them;
- ``metrics.csv`` / ``ablate.csv``: every cell of the table.

Hashes, text and integers must match exactly, floats within 1e-6 relative:
the fit's last bits follow the BLAS summation order.

Regenerate the file with ``PYTHONPATH=src python tests/test_reference.py``,
and only for a change to the artifacts made on purpose: the file's diff is
then that change's record in CHANGES.md.
"""

import contextlib
import csv
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from roadsurf import cli

REFERENCE = Path(__file__).with_name("reference.json")
SEEDS = (1, 2, 3)
RTOL = 1e-6
SCENE_FLAGS = ("--vehicles", "6", "--trees", "8", "--facades", "2", "--corrupt-mask", "true",
               "--jitter-sigma", "0.02")
COMMANDS = {"run": ("run",),
            "ablate": ("ablate", "--param", "sampling_rates", "--values", "1/10,0.5/5")}
# the record entries of the stages; the scores they print are in the tables
STAGE_LABELS = ("grid", "truth", "filter", "fit", "mesh")


def _value(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text


def _main(argv: list[str]) -> str:
    """cli.main's stdout; a nonzero exit fails."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    assert rc == 0, argv
    return out.getvalue()


def measure(seed: int, root: Path) -> dict:
    """The pinned numbers of the bench scene at ``seed``, made under ``root``."""
    scene = root / "scene"
    _main(["synth", "--out", str(scene), "--seed", str(seed), *SCENE_FLAGS])
    layers = []
    for name in ("dsm", "dtm", "mask", "gt_road", "gt_terrain"):
        layers += ["--" + name.replace("_", "-"), str(scene / f"{name}.asc")]
    numbers = {}
    for command, argv in COMMANDS.items():
        out = root / command
        stdout = _main([*argv, *layers, "--out-dir", str(out)])
        record = {}
        for line in stdout.splitlines():
            label, _, entries = line.partition(": ")
            if label in STAGE_LABELS:
                values = {key: _value(value) for key, value in
                          (entry.split("=", 1) for entry in entries.split())}
                record[label] = {key: value for key, value in values.items()
                                 if not isinstance(value, float)}
        numbers[command] = {"record": record}
        table = "ablate.csv" if command == "ablate" else "metrics.csv"
        with open(out / table, encoding="utf-8", newline="") as rows:
            numbers[command][table] = [{key: _value(value) for key, value in row.items()}
                                       for row in csv.DictReader(rows)]
    mask = (root / "run" / "mask_filtered.asc").read_bytes()
    numbers["run"]["mask_filtered.asc"] = hashlib.sha256(mask).hexdigest()
    return numbers


def _flat(tree, path=()):
    """(path, leaf) of every leaf of nested dicts and lists."""
    items = tree.items() if isinstance(tree, dict) else enumerate(tree)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _flat(value, (*path, key))
        else:
            yield (*path, key), value


@pytest.mark.parametrize("seed", SEEDS)
def test_bench_scene_matches_the_reference(seed, tmp_path):
    want = dict(_flat(json.loads(REFERENCE.read_text(encoding="utf-8"))[str(seed)]))
    got = dict(_flat(measure(seed, tmp_path)))
    assert got.keys() == want.keys()
    floats = [path for path, value in want.items() if isinstance(value, float)]
    assert ({path: got[path] for path in want if path not in floats}
            == {path: want[path] for path in want if path not in floats})
    assert ({path: got[path] for path in floats}
            == pytest.approx({path: want[path] for path in floats}, rel=RTOL))


if __name__ == "__main__":
    numbers = {}
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as root:
            numbers[str(seed)] = measure(seed, Path(root))
    REFERENCE.write_text(json.dumps(numbers, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}", file=sys.stderr)
