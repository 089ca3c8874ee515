#!/usr/bin/env python3
"""Regenerate the golden files that pin the bits of a verification run.

tests/golden/quick-seed0.json holds, for every run of
`run_verification_suite.py --quick --seed 0`, the sha256 of its CSV and a
canonical digest of its JSON `report` and `assertions` blocks (the
manifest holds wall times and paths, so it is left out), plus the numpy
and scipy versions that made them: the float columns go through numpy's
repr and some reports hold scipy p-values.

tests/golden/noise-contract.json holds draws of the noise field
(seed, t, x) -> z as float.hex: both families, base and derived replica
seeds, times from 1 to 2^31 and sites with negative coordinates in
d = 1..3.

A change that moves bits on purpose reruns this script and names each
moved digest and why; before it overwrites quick-seed0.json the script
prints each artifact whose digest moved, with the first 12 hex digits of
the old and new digests. Run from the root of a source checkout:

    PYTHONPATH=src python scripts/regenerate_golden.py
"""
import hashlib
import importlib.util
import json
import pathlib
import sys
import tempfile

import numpy as np
import scipy

from kpzlab.noise import DEFAULT_SCALE, FAMILIES, make_noise, replica_noise

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
QUICK_ARGS = ["--quick", "--seed", "0"]

# noise-contract keys: (seed, replica) pairs, times and sites per d
NOISE_SEEDS = [(0, None), (0, 0), (0, 29), (123456789, 7)]
NOISE_TIMES = [1, 2, 1000, 2**20, 2**31 - 1, 2**31]
NOISE_SITES = [(0,), (-1,), (-1000,), (7,),
               (-1, -1), (-3, 5), (4, -2),
               (-1, -2, -3), (0, 0, 0), (2, -5, 1)]


def _load_suite():
    spec = importlib.util.spec_from_file_location(
        "run_verification_suite", ROOT / "scripts" / "run_verification_suite.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def block_digest(blocks: dict) -> str:
    """sha256 of the blocks as canonical JSON: sorted keys, no spaces."""
    text = json.dumps(blocks, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def artifact_digests(out: pathlib.Path) -> dict:
    """{relative path: digest} of every CSV and JSON artifact under out."""
    digests = {}
    for path in sorted(out.rglob("*.csv")) + sorted(out.rglob("*.json")):
        rel = path.relative_to(out).as_posix()
        if path.suffix == ".csv":
            digests[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
        else:
            doc = json.loads(path.read_text())
            digests[rel] = block_digest({k: doc[k]
                                         for k in ("assertions", "report")})
    return dict(sorted(digests.items()))


def quick_digests(out: pathlib.Path) -> dict:
    """Run the --quick suite into out; return its artifact digests."""
    rc = _load_suite().run(QUICK_ARGS + ["--out", str(out)])
    if rc:
        raise RuntimeError(f"{rc} verification runs failed")
    return artifact_digests(out)


def noise_vectors() -> list:
    """[family, seed, replica, t, site, float.hex(z)] of every contract key;
    replica None is the base seed's own field."""
    rows = []
    for family in FAMILIES:
        for seed, replica in NOISE_SEEDS:
            model = make_noise(family, DEFAULT_SCALE, seed) \
                if replica is None else \
                replica_noise(family, DEFAULT_SCALE, seed, replica)
            for t in NOISE_TIMES:
                for x in NOISE_SITES:
                    z = model.sample_spacetime(
                        np.array([t]), [np.array([c]) for c in x])[0]
                    rows.append([family, seed, replica, t, list(x),
                                 float(z).hex()])
    return rows


def _vectors_json(header: dict, rows: list) -> str:
    """header and rows as indented JSON, one row per line."""
    body = ",\n  ".join(json.dumps(r) for r in rows)
    return (json.dumps(header, indent=1)[:-2]
            + f',\n "vectors": [\n  {body}\n ]\n}}\n')


def moved_digests(old: dict, new: dict) -> list:
    """(name, old, new) of each artifact whose digest differs, the digests
    cut to 12 hex digits and "-" for an artifact one side lacks."""
    return [(k, old.get(k, "-")[:12], new.get(k, "-")[:12])
            for k in sorted(old.keys() | new.keys())
            if old.get(k) != new.get(k)]


def main() -> int:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        digests = quick_digests(pathlib.Path(tmp))
    quick = GOLDEN / "quick-seed0.json"
    old = json.loads(quick.read_text())["artifacts"] if quick.exists() else {}
    for name, was, now in moved_digests(old, digests):
        print(f"moved: {name} {was} -> {now}")
    doc = {"command": "scripts/run_verification_suite.py "
                      + " ".join(QUICK_ARGS),
           "versions": versions(), "artifacts": digests}
    quick.write_text(json.dumps(doc, indent=1) + "\n")
    vectors = noise_vectors()
    (GOLDEN / "noise-contract.json").write_text(_vectors_json(
        {"scale": DEFAULT_SCALE,
         "columns": ["family", "seed", "replica", "t", "x", "z"]}, vectors))
    print(f"wrote {len(digests)} artifact digests and {len(vectors)} "
          f"noise vectors to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
