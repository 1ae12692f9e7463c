"""Golden outputs at the tiny scale (16-element RIS, D=8, schedule 4/4/4).

Every experiment kind under every schedule source, the ``localize`` trace,
the ``beampattern`` rows and the beams and residuals of ``build_codebook``
and ``build_matched_codebook`` are pinned in ``golden/tiny.json``, one CSV
line per row; beam entries are stored as real and imaginary parts.
Strings and integers must match exactly; floats (also those inside
``;``-joined cells) to a relative 1e-12, because numpy's array and scalar
complex arithmetic may round the last bit differently.

A change that alters an output on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py --update

and the diff of ``golden/tiny.json`` is the record of what changed.  Rows
that still match within the tolerance keep their recorded text, so the
diff shows only the rows that moved.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import pytest

from risjrc import cli
from risjrc.codebook import build_matched_codebook
from risjrc.harness import EXPERIMENT_KINDS, SCHEDULE_SOURCES, emit_csv, get_codebook, load_config, run_experiment

from test_cli import TINY_CONFIG

GOLDEN = Path(__file__).with_name("golden") / "tiny.json"
RTOL = 1e-12


def _lines(path: Path) -> list:
    return path.read_text(encoding="utf-8").splitlines()


def _csv_lines(rows) -> list:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().splitlines()


def codebook_entries(name: str, cb) -> dict:
    """``<name>/beams`` and ``<name>/residuals`` CSV lines of one codebook."""
    beams, residuals = [("stage", "axis", "beam", "element", "re", "im")], [("stage", "axis", "beam", "residual")]
    for book in cb.stages:
        for axis, w, res in (("x", book.w_x, book.residuals), ("y", book.w_y, book.residuals)):
            for i in range(w.shape[1]):
                residuals.append((book.stage, axis, i + 1, float(res[i])))
                beams += ((book.stage, axis, i + 1, n, float(e.real), float(e.imag)) for n, e in enumerate(w[:, i]))
    return {f"{name}/beams": _csv_lines(beams), f"{name}/residuals": _csv_lines(residuals)}


def produce(workdir: Path) -> dict:
    """Entry name -> CSV lines of every pinned output, computed by the code under test."""
    out = {}
    for source in SCHEDULE_SOURCES:
        config = workdir / f"tiny-{source}.cfg"
        config.write_text(TINY_CONFIG + f"schedule_source = {source}\n")
        cfg, plan = load_config(str(config))
        cb = get_codebook(cfg, plan)
        if source == SCHEDULE_SOURCES[0]:
            out.update(codebook_entries("build_codebook", cb))
            out.update(codebook_entries("build_matched_codebook", build_matched_codebook(cfg)))
        for kind in EXPERIMENT_KINDS:
            plan.kind = kind
            path = workdir / f"{kind}-{source}.csv"
            emit_csv(run_experiment(plan, cfg, cb), str(path))
            out[f"{kind}/{source}"] = _lines(path)
    for command in ("localize", "beampattern"):
        path = workdir / f"{command}.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main([command, "--config", str(workdir / "tiny-calibrated.cfg"), "--out", str(path)])
        out[command] = _lines(path)
    return out


def _number(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return None


def _same_cell(got: str, want: str) -> bool:
    pieces = got.split(";"), want.split(";")
    if len(pieces[0]) != len(pieces[1]):
        return False
    for a, b in zip(*pieces):
        if a == b:
            continue
        x, y = _number(a), _number(b)
        if not (isinstance(x, float) and isinstance(y, float)):
            return False  # strings and integers compare exactly
        if not math.isclose(x, y, rel_tol=RTOL, abs_tol=0.0):
            return False
    return True


def mismatches(got: list, want: list) -> list:
    """Human-readable differences between two CSV line lists."""
    if len(got) != len(want):
        return [f"{len(got)} rows, golden has {len(want)}"]
    found = []
    for n, (g, w) in enumerate(zip(csv.reader(got), csv.reader(want))):
        if len(g) != len(w) or not all(_same_cell(a, b) for a, b in zip(g, w)):
            found.append(f"row {n}: got {g}, golden {w}")
    return found


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return produce(tmp_path_factory.mktemp("golden"))


GOLDEN_ENTRIES = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
CODEBOOK_ENTRIES = [f"{b}/{part}" for b in ("build_codebook", "build_matched_codebook") for part in ("beams", "residuals")]
ENTRY_NAMES = [f"{k}/{s}" for s in SCHEDULE_SOURCES for k in EXPERIMENT_KINDS] + ["localize", "beampattern"] + CODEBOOK_ENTRIES


def test_entry_set():
    assert sorted(GOLDEN_ENTRIES) == sorted(ENTRY_NAMES)


@pytest.mark.parametrize("name", ENTRY_NAMES)
def test_matches_golden(produced, name):
    found = mismatches(produced[name], GOLDEN_ENTRIES[name])
    assert not found, f"{name} differs from {GOLDEN.name}:\n" + "\n".join(found[:10])


def test_tolerance_rules():
    assert _same_cell("1.0000000000001", "1.0")
    assert not _same_cell("1.000000001", "1.0")
    assert not _same_cell("10", "11") and not _same_cell("stage=1;T=5", "stage=1;T=6")
    assert _same_cell("0.5;2.0000000000000004", "0.5;2.0")
    assert not _same_cell("0.5", "0.5;2.0")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=f"Regenerate {GOLDEN} from the current code.")
    parser.add_argument("--update", action="store_true", required=True, help="overwrite the golden file")
    parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        entries = produce(Path(tmp))
    for name, lines in entries.items():
        kept = GOLDEN_ENTRIES.get(name, [])
        if len(kept) == len(lines):
            entries[name] = [w if not mismatches([g], [w]) else g for g, w in zip(lines, kept)]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN} ({len(entries)} entries)")
