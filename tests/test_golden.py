"""Golden output digests: the data bytes of every command, pinned.

Each case runs one command in-process on the committed inputs under
`tests/golden/` (masks with holes and thin parts, a label-map scene and
a proposal list with mask files).  Its output file, with the `#`
header lines stripped, is hashed with sha256 and compared with the
table below.  A change to any output byte fails the case by name; a
change to the table is a visible diff that must be justified, never a
silent refresh.

`softdecode`'s bit flips come from numpy's PCG64 `random()`, so a
numpy release that changed that stream would fail its two cases.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from dtmask.cli import main

GOLDEN = Path(__file__).parent / "golden"

# (case, argv).  "@name" is a committed input under tests/golden/,
# "$case" is the output of an earlier case; every case writes its own
# output file, named after the case.
CASES = [
    ("dt", ["dt", "--in", "@shapes.pbm"]),
    ("dt_r5", ["dt", "--in", "@shapes.pbm", "--radius", "5"]),
    ("encode", ["encode", "--in", "@shapes.pbm"]),
    ("encode_b3_r4", ["encode", "--in", "@shapes.pbm", "--bins", "3", "--radius", "4"]),
    ("decode", ["decode", "--in", "$encode"]),
    ("decode_literal", ["decode", "--in", "$encode", "--mode", "literal"]),
    ("softdecode_flip0.02", ["softdecode", "--in", "$encode_b3_r4", "--flip-prob", "0.02", "--seed", "3"]),
    ("softdecode_flip0.3", ["softdecode", "--in", "$encode_b3_r4", "--flip-prob", "0.3", "--seed", "3"]),
]
# Box sides 22, 18 and 14 under a 28x28 window put a bin radius of 7
# exactly half-way between two painted radii.
_SWEEP = [
    "boxsim", "--labels", "@scene.pgm", "--id", "1", "--box", "3,3,25,25",
    "--shrink-range", "0:4:2", "--shift-range=-3:3:3",
]
CASES += [
    (f"boxsim_{norm}_{mode}", [*_SWEEP, "--norm", norm, "--mode", mode])
    for norm in ("native", "28x28")
    for mode in ("conservative", "literal")
]
_EVAL = ["eval", "--proposals", "@proposals.txt", "--gt", "@scene.pgm"]
CASES += [
    ("eval", _EVAL),
    ("eval_no_nms", [*_EVAL, "--box-nms", "none", "--top", "0", "--nms", "none"]),
]

DIGESTS = {
    "dt": "ab14355e86e5a9def617ec1814bb0dfe2e8352b586d05e1c8b8fbafebdaf9b27",
    "dt_r5": "1307d02d2c760eb91acb035acdfad4ca2b958952d3faec9f12e546035e4c7836",
    "encode": "7e268411ab8300f5c9f4f5e0e892809b85b413024fcf31c50a0e803960a39a60",
    "encode_b3_r4": "23c607be619f77f220f9dfac424f73dcfc079210cb003c2707e37955ebed3cd5",
    "decode": "cd50e1348b37eff520801272d355c0e9ff155a262260a71594a2845cb69292d9",
    "decode_literal": "19c7d8ea80acf35dc3be191471d6d8e1dfe0265af0dbfb087436aad0004a9260",
    "softdecode_flip0.02": "09602249cc57cffbb3bf91425cebe1cdbfc57f247e8713ef2659430e476c82a5",
    "softdecode_flip0.3": "6b2ab30bafa8658304afc4243620386161d335d5400d5129b6f0bef5479c14e4",
    "boxsim_native_conservative": "8ef4b0a9948c8b7f0088e60ca15dd85708858aca59b05a83b6efc339309990cd",
    "boxsim_native_literal": "f3d93268d5f27dc4677306fd26361e35fd91b64dbcbf5bedc928eec54fec4959",
    "boxsim_28x28_conservative": "0b987ec1d0825413c21ad09a65639dbe413366f0c94404978b337ef8f8007066",
    "boxsim_28x28_literal": "19717311195823d54626a82d43a5cacdfee233c40904e3bebdf9b90b108efcc3",
    "eval": "f4c02639331c46bd3614c419a674b9e1d5837b9e73f9c6902f45429ba9823468",
    "eval_no_nms": "4d31c5fac3f2f80c16da6e37eccf92a48c7064a662235dce36e69cb282533a8f",
}


def data_digest(path: Path) -> str:
    """sha256 of a file's lines that do not start with '#'."""
    h = hashlib.sha256()
    for line in path.read_bytes().splitlines():
        if not line.startswith(b"#"):
            h.update(line + b"\n")
    return h.hexdigest()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")

    def resolve(arg: str) -> str:
        if arg.startswith("@"):
            return str(GOLDEN / arg[1:])
        if arg.startswith("$"):
            return str(tmp / arg[1:])
        return arg

    codes = {}
    for case, argv in CASES:
        codes[case] = main([*map(resolve, argv), "--out", str(tmp / case)])
    return tmp, codes


@pytest.mark.parametrize("case", [case for case, _ in CASES])
def test_output_matches_golden_digest(outputs, case):
    tmp, codes = outputs
    assert codes[case] == 0
    assert data_digest(tmp / case) == DIGESTS[case]
