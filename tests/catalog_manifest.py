"""The byte manifest of the shipped catalog's deterministic run.

tests/data/catalog_sha256.json holds, for each file that
``semirelax run --deterministic`` writes for the shipped catalog, its
sha256 and a sample of its numbers: every numeric JSON entry, and every
CSV column at up to SAMPLES evenly spaced rows.  The hashes tie a
comparison to the numpy/scipy build that wrote them.  When a file's bytes
differ, drift() names the largest relative change of each sampled column
and entry, which tells a last-digit change of another build from a real
one.  After an intended change of the output, regenerate it with

    semirelax run --deterministic --out OUT
    python tests/catalog_manifest.py OUT
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

MANIFEST = Path(__file__).parent / "data" / "catalog_sha256.json"
SAMPLES = 11


def _numbers(path: Path) -> dict[str, list[float]]:
    if path.suffix == ".csv":
        header, *rows = path.read_text().splitlines()
        table = np.array([row.split(",") for row in rows], dtype=float)
        picks = np.unique(np.linspace(0, len(table) - 1, SAMPLES).round().astype(int))
        return {col: table[picks, j].tolist() for j, col in enumerate(header.split(","))}
    out = {}

    def walk(node, key):
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, f"{key}.{k}" if key else k)
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            out[key] = [node]

    walk(json.loads(path.read_text()), "")
    return out


def manifest(outdir) -> dict:
    """Each file under outdir, by its relative path: its sha256 and sampled numbers."""
    outdir = Path(outdir)
    return {
        path.relative_to(outdir).as_posix(): {
            "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
            "numbers": _numbers(path),
        }
        for path in sorted(outdir.rglob("*"))
        if path.is_file()
    }


def drift(expected: dict, actual: dict) -> list[str]:
    """One line per file that is missing, new or not byte-identical; a
    changed file's line gives the largest relative change of each sampled
    CSV column and JSON entry."""
    lines = []
    for name in sorted(expected.keys() | actual.keys()):
        want, got = expected.get(name), actual.get(name)
        if want is None or got is None:
            lines.append(f"{name}: {'not in the manifest' if want is None else 'not written'}")
            continue
        if want["sha256"] == got["sha256"]:
            continue
        changes = []
        for key in sorted(want["numbers"].keys() | got["numbers"].keys()):
            a, b = want["numbers"].get(key), got["numbers"].get(key)
            if a is None or b is None or len(a) != len(b):
                changes.append(f"{key} {'added' if a is None else 'removed' if b is None else 'resized'}")
                continue
            a, b = np.array(a), np.array(b)
            with np.errstate(divide="ignore", invalid="ignore"):
                rel = np.where(a == b, 0.0, np.abs(b - a) / np.abs(a))
            changes.append(f"{key} {np.max(rel):.2e}")
        lines.append(f"{name}: bytes differ; largest relative change: {', '.join(changes)}")
    return lines


if __name__ == "__main__":
    MANIFEST.write_text(json.dumps(manifest(sys.argv[1]), indent=1, sort_keys=True) + "\n")
