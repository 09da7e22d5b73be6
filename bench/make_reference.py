"""Record the reference outputs the benchmark checks every op against.

Run from the repository root, at the commit whose outputs are the
reference:

    python3 bench/make_reference.py

It writes bench/reference.json:

- grid: for each of the 371 classified pairs (tests/conftest order), the
  output string, the rule ids and the degreewise dimensions of the tensor
  module (an input property used for descriptors and for the cli mix);
- wide: for every unordered pair of the 41 wide pieces, the output string
  and rule ids, plus each piece's mod-2 dimensions;
- cli: pools of argv lists per command kind with the exit code and the
  SHA-256 of stdout (`workloads.cli_digest`).  Only commands that exit 0
  enter a pool.

The Sq-isomorphism verdict is deliberately not recorded, neither in the
grid and wide entries nor in the digest of a `verify` call's stdout:
changing it is an aim of later work, and the benchmark reports it as
iso_witness_frac.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

from chang import complexes                           # noqa: E402
from chang.cli import run_command                     # noqa: E402
from chang.smash import smash_decompose               # noqa: E402
from chang.steenrod import cartan_smash_sq, mod2_cohomology  # noqa: E402
from conftest import classified_pairs                 # noqa: E402

import workloads as wl                                # noqa: E402

SCRIPTS = "src/chang/data/scripts"


def build(spec):
    return getattr(complexes, spec[0])(*spec[1:])


def dims_of(module) -> dict[str, int]:
    return {str(d): n for d, n in sorted(module.dims().items())}


def decomposed(a, b) -> dict:
    res = smash_decompose(a, b)
    v = res.verification
    if not (v.homology_match and v.mod2_match):
        raise SystemExit(f"reference pair {a} ^ {b} fails verification")
    return {"output": str(res.output), "rules": [r for _, r in res.branches]}


def cli_entry(argv) -> dict | None:
    with contextlib.redirect_stderr(io.StringIO()):    # rejected candidates
        code, out = run_command(argv)
    if code != 0:
        return None
    return {"argv": list(argv), "exit": code, "sha": wl.cli_digest(argv, out)}


def main() -> None:
    pairs = classified_pairs()
    grid = []
    for a, b in pairs:
        entry = {"x": str(a), "y": str(b), **decomposed(a, b)}
        entry["dims"] = dims_of(cartan_smash_sq(mod2_cohomology(a),
                                                mod2_cohomology(b)))
        grid.append(entry)

    specs = wl.wide_piece_specs()
    pieces = {wl.spec_key(s): {"str": str(build(s)),
                               "dims": dims_of(mod2_cohomology(build(s)))}
              for s in specs}
    wide = {}
    for i, a in enumerate(specs):
        for b in specs[i:]:
            ref = decomposed(build(a), build(b))
            if decomposed(build(b), build(a)) != ref:
                raise SystemExit(f"{a} ^ {b} depends on the factor order")
            wide[wl.pair_key(a, b)] = ref

    grid_pieces = sorted({str(c) for ab in pairs for c in ab})
    smashes = [f"{e['x']}^{e['y']}" for e in grid]
    verify_small, verify_large = [], []
    for e in grid:
        claim = cli_entry(["verify", e["x"], e["y"], e["output"]])
        if claim:
            small = wl.search_size(e["dims"]) <= 24
            (verify_small if small else verify_large).append(claim)
    stems = sorted(p.name[:-len(".matrix.json")]
                   for p in (ROOT / SCRIPTS).glob("*.matrix.json"))
    candidates = {
        "smash": [["smash", e["x"], e["y"]] for e in grid],
        "homology": [["homology", s] for s in smashes],
        "cohomology": [["cohomology", "--sq", s] for s in smashes],
        "dual": [["dual", s] for s in grid_pieces + smashes],
        "pi": [["pi", str(n), s] for n in range(3, 13)
               for s in grid_pieces + smashes],
        "homgroup": [["homgroup", x, y] for x in grid_pieces
                     for y in grid_pieces],
        "reduce": [["reduce", f"{SCRIPTS}/{s}.matrix.json",
                    "--script", f"{SCRIPTS}/{s}.steps.json", "--auto"]
                   for s in stems],
        "table": [["table", "--branch-coverage"]],
    }
    pools = {kind: [c for c in map(cli_entry, argvs) if c]
             for kind, argvs in candidates.items()}
    pools["verify.small"] = verify_small
    pools["verify.large"] = verify_large
    if len(pools["reduce"]) != len(stems) or not all(pools.values()):
        raise SystemExit("a cli pool is empty or lost a shipped script")

    # in-process capture must equal what a cold process prints
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for kind, pool in pools.items():
        c = pool[0]
        out = subprocess.run([sys.executable, "-m", "chang.cli", *c["argv"]],
                             cwd=ROOT, env=env, capture_output=True,
                             text=True, check=False)
        if (out.returncode != c["exit"]
                or wl.cli_digest(c["argv"], out.stdout) != c["sha"]):
            raise SystemExit(f"cold and in-process output differ: {c['argv']}")

    doc = {"grid": grid, "wide": {"pieces": pieces, "pairs": wide},
           "cli": pools}
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True, ensure_ascii=False)
        fh.write("\n")
    print(f"grid {len(grid)}, wide pairs {len(wide)}, cli pools "
          + ", ".join(f"{k} {len(v)}" for k, v in sorted(pools.items())))


if __name__ == "__main__":
    main()
