"""The CLI prints what the corpus in tests/golden recorded, byte for byte.

On the build that recorded the corpus (same fingerprint) every argv must
give the recorded exit code and the recorded sha256 of stdout and stderr.
On another build the last bits of the numbers may differ: the exit codes
must still match and every number of the ``--out json`` argvs must agree
within 1e-12 (relative to values above 1), and the test prints which
argvs it could not compare byte for byte.  ``tests/golden/record.py``
records the corpus; a change that alters an output re-records it.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from golden import record

CORPUS = json.loads(record.CORPUS.read_text(encoding="utf-8"))

#: How far a JSON number of another build may be from the recorded one,
#: absolute up to magnitude 1 and relative above it.
JSON_TOLERANCE = 1e-12


def json_differences(got, want, path="$") -> list:
    """Where two parsed JSON values differ: structure, strings, ints and
    bools exactly, floats within ``JSON_TOLERANCE`` (NaN equals NaN)."""
    if isinstance(want, float) and isinstance(got, float):
        if math.isnan(want) and math.isnan(got):
            return []
        if abs(got - want) <= JSON_TOLERANCE * max(1.0, abs(want)):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want):
        return [f"{path}: {type(got).__name__} != {type(want).__name__}"]
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [d for key in want for d in json_differences(got[key], want[key],
                                                             f"{path}.{key}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in json_differences(g, w, f"{path}[{i}]")]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def replay(entries, same_build: bool) -> tuple:
    """(mismatches, argvs whose bytes were not compared) over ``entries``."""
    mismatches, unchecked = [], []
    with record.replay_directory():
        for entry in entries:
            code, out, err = record.run(entry["argv"])
            name = " ".join(entry["argv"])
            if code != entry["exit"]:
                mismatches.append(f"{name}: exit {code} != {entry['exit']}")
            elif same_build:
                for stream, text in (("stdout", out), ("stderr", err)):
                    if record.sha256(text) != entry[f"{stream}_sha256"]:
                        mismatches.append(f"{name}: {stream} differs")
            elif "json" in entry:
                mismatches += [f"{name}: {d}"
                               for d in json_differences(json.loads(out), entry["json"])]
            else:
                unchecked.append(name)
    return mismatches, unchecked


def test_corpus_holds_the_recorded_argvs():
    assert [entry["argv"] for entry in CORPUS["entries"]] == record.ARGVS
    assert len(record.ARGVS) == 138
    assert sum("json" in entry for entry in CORPUS["entries"]) == 41


def test_cli_output_matches_the_corpus(capsys):
    build = record.fingerprint()
    same_build = build == CORPUS["fingerprint"]
    mismatches, unchecked = replay(CORPUS["entries"], same_build)
    if not same_build:
        with capsys.disabled():
            print(
                f"\ngolden corpus: this build differs from the recording one "
                f"({sorted(k for k in build if build[k] != CORPUS['fingerprint'].get(k))});"
                f" compared exit codes of {len(CORPUS['entries'])} argvs and the JSON"
                f" numbers within {JSON_TOLERANCE}; not compared byte for byte:"
                f" {len(unchecked)} argvs"
            )
    assert not mismatches, mismatches


#: Replays the corpus in a fresh interpreter and prints, as JSON, whether
#: its build is the recording one, the mismatches and the unchecked argvs.
_REPLAY_SCRIPT = """
import json
from test_golden import CORPUS, record, replay
same_build = record.fingerprint() == CORPUS["fingerprint"]
print(json.dumps([same_build, *replay(CORPUS["entries"], same_build)]))
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="one CPU: BLAS runs one thread in-process already")
def test_cli_output_matches_the_corpus_at_one_blas_thread():
    # the in-process replay runs at the default thread count; a BLAS call
    # whose bits depend on its threads fails one of the two replays
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
    proc = subprocess.run([sys.executable, "-c", _REPLAY_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    same_build, mismatches, _ = json.loads(proc.stdout)
    assert same_build == (record.fingerprint() == CORPUS["fingerprint"])
    assert not mismatches, mismatches


def test_json_numbers_agree_within_the_tolerance():
    # the comparison another build gets, run on this one
    entries = [entry for entry in CORPUS["entries"] if "json" in entry]
    mismatches, unchecked = replay(entries, same_build=False)
    assert not mismatches and not unchecked, (mismatches, unchecked)


@pytest.mark.parametrize("got, want, differ", [
    ({"a": [1.0, 2]}, {"a": [1.0 + 1e-13, 2]}, False),
    ({"a": [1.0, 2]}, {"a": [1.0 + 1e-11, 2]}, True),
    ([3e6], [3e6 * (1 + 1e-13)], False),
    ([float("nan")], [float("nan")], False),
    ([2], [2.0], True),
    ({"a": 1.0}, {"b": 1.0}, True),
    (["x"], ["y"], True),
])
def test_json_differences(got, want, differ):
    assert bool(json_differences(got, want)) == differ
