"""Every artifact's bytes against a fixed table of SHA-256 digests.

``golden_artifacts.json`` holds, for each command below, the SHA-256 of
every artifact it writes.  The commands are the README's command line
examples and one command of each shape that ``bench/workloads.py``
generates at seed 1 (both map scenarios, ``kerr``, ``rotation-sim``,
``experiment`` in both modes and ``fit``), frozen here with their input
files so that the table does not follow later edits of the benchmark.  A
manifest holds its ``output_dir``, so it is compared by its
``artifact_checksums`` map alone.

A change that moves a digest on purpose rewrites the table with

    PYTHONPATH=src python -m pytest tests/test_golden.py --update-golden

and names each moved digest in CHANGES.md, with the reason.
"""

import hashlib
import json
from pathlib import Path

from iqpe.cli import main

REPO = Path(__file__).resolve().parent.parent
TABLE = Path(__file__).with_name("golden_artifacts.json")

# Input files, by the name a command's "{...}" placeholder gives them.
INPUTS = {
    # the phase table of test_cli's README fit example
    "phases.csv": "l,phi_rad\n1,0.0045\n5,0.0205\n9,0.0365\n14,0.0565\n",
    # bench/workloads.py at seed 1: scan0, fit0 and table_fit
    "scan.cfg": (
        "mode = spectrum\nl = 18\npower_w = 1e-3\ndelta_phi_rad = 0\nsignal_freq_hz = 20e3\n"
        "signal_amp_rad = 5.28e-8\nsample_rate = 60e3\nduration_s = 0.1\nband_lo_hz = 18e3\n"
        "band_hi_hz = 28e3\nnoise.phase_asd = 1.0416e-06\nnoise.shot = 1.0\nseed = 271041745\n"
    ),
    "fit.cfg": (
        "mode = fit\nl = 7, 14, 25, 29, 31, 32\npower_w = 1e-3\n"
        "delta_phi_rad = -0.0004857337390340964\nsignal_freq_hz = 0\n"
        "signal_amp_rad = 0.00977824474264654\nsample_rate = 60e3\nduration_s = 0.1\n"
    ),
    "table.csv": (
        "l,phi_rad\n3,0.05079900809283224\n6,0.05642749589636144\n7,0.05830365849753783\n"
        "8,0.060179821098714226\n56,0.15023562595518133\n82,0.19901585358576768\n"
        "98,0.22903445520459004\n139,0.3059571218528223\n"
    ),
}

FIT_CONFIG = REPO / "configs" / "static_fit_six_l.cfg"
SPECTRUM_CONFIG = REPO / "configs" / "spectrum_l150.cfg"

CASES = {
    "readme-map": "qfi-map --scenario rotation --order-n 4 --resolution 32",
    "readme-map300": "qfi-map --scenario rotation --order-n 300 --resolution 2",
    "readme-biref": "qfi-map --scenario birefringence",
    "readme-kerr": "kerr --nbar 4",
    "readme-sim": "rotation-sim --l 50 --alpha-deg 0.0005 --nu 1000000 --trials 10000 --seed 7",
    "readme-fit": f"experiment --config {FIT_CONFIG}",
    "readme-spec": f"experiment --config {SPECTRUM_CONFIG}",
    "readme-fit-only": "fit --input {phases.csv}",
    "maps-biref": "qfi-map --scenario birefringence --resolution 31",
    "maps-low": "qfi-map --scenario rotation --resolution 9 --order-n 18",
    "maps-ladder": "qfi-map --scenario rotation --resolution 2 --order-n 294",
    "shots-sim": ("rotation-sim --l 17 --alpha-deg -0.6438719326628105 --trials 25000 "
                  "--seed 1930549411"),
    "shots-kerr": "kerr --nbar 33.7",
    "shots-kerr-top": "kerr --nbar 200.0",
    "detector-scan": "experiment --config {scan.cfg}",
    "detector-fit": "experiment --config {fit.cfg}",
    "detector-table": "fit --input {table.csv}",
}


def run_case(argv: str, work: Path) -> dict:
    """Run one command through ``main()``; the digest of each artifact it wrote."""
    inputs = work / "inputs"
    inputs.mkdir(exist_ok=True)
    paths = {}
    for name, text in INPUTS.items():
        paths[name] = inputs / name
        paths[name].write_text(text, encoding="ascii")
    out = work / "out"
    args = [str(paths[arg[1:-1]]) if arg.startswith("{") else arg for arg in argv.split()]
    assert main(args + ["--out", str(out)]) == 0, argv
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(out.iterdir()) if path.name != "manifest.json"}
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["artifact_checksums"] == {name: f"sha256:{digest}"
                                              for name, digest in digests.items()}, argv
    return digests


def test_artifacts_match_the_golden_table(tmp_path, request):
    got = {}
    for case, argv in CASES.items():
        work = tmp_path / case
        work.mkdir()
        got[case] = run_case(argv, work)
    if request.config.getoption("--update-golden"):
        TABLE.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n", encoding="ascii")
        return
    table = json.loads(TABLE.read_text(encoding="ascii"))
    moved = [
        f"{case}/{name}: table {table.get(case, {}).get(name)}, now {digest}"
        for case, digests in got.items() for name, digest in digests.items()
        if table.get(case, {}).get(name) != digest
    ]
    stale = sorted(f"{case}/{name}" for case, digests in table.items() for name in digests
                   if name not in got.get(case, {}))
    assert not moved and not stale, (
        "artifact bytes moved (rewrite the table with --update-golden and name each "
        "moved digest in CHANGES.md):\n" + "\n".join(moved + [f"{s}: not written" for s in stale])
    )
