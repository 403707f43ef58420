"""Seeded inputs, CLI items and output checks for the three workloads.

An item is one unit of user work, run through `dtmask.cli.main(argv)`.
Every workload is a fixed, repeating pattern of item kinds (a "pass");
the seed changes only the random content of each slot, never the mix,
so runs on different seeds do the same amount of work of each kind.
More than half of every pattern is small items, so the median item
reads the small case and the tail reads the large case.

The generator writes the program's plain-text formats with its own
writers and stores the raw arrays beside them for the checks, so no
check trusts a dtmask reader or writer.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
from scipy import ndimage

# --------------------------------------------------------------------------
# writers for the program's input formats (independent of dtmask.io)


def write_pbm(path: str, mask: np.ndarray) -> None:
    h, w = mask.shape
    body = np.full((h, 2 * w), ord(" "), dtype=np.uint8)
    body[:, 0::2] = np.where(mask, ord("1"), ord("0"))
    body[:, -1] = ord("\n")
    with open(path, "wb") as fh:
        fh.write(f"P1\n{w} {h}\n".encode("ascii"))
        fh.write(body.tobytes())


def write_pgm(path: str, labels: np.ndarray) -> None:
    h, w = labels.shape
    rows = "\n".join(" ".join(map(str, row)) for row in labels.tolist())
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"P2\n{w} {h}\n{int(labels.max())}\n{rows}\n")


def read_pbm(path: str) -> np.ndarray:
    """Minimal P1 reader for checks: comments dropped, digits packed or spaced."""
    with open(path, "rb") as fh:
        lines = [ln.split(b"#", 1)[0] for ln in fh.read().split(b"\n")]
    tokens = b" ".join(lines).split()
    if not tokens or tokens[0] != b"P1":
        raise CheckFailed(f"{os.path.basename(path)}: not a P1 bitmap")
    w, h = int(tokens[1]), int(tokens[2])
    digits = np.frombuffer(b"".join(tokens[3:]), dtype=np.uint8) - ord("0")
    if digits.size != w * h or (digits > 1).any():
        raise CheckFailed(f"{os.path.basename(path)}: bad bitmap body")
    return digits.reshape(h, w).astype(bool)


def data_rows(path: str) -> list[bytes]:
    """Lines of an output file with the '#' provenance lines left out."""
    with open(path, "rb") as fh:
        return [ln for ln in fh.read().split(b"\n") if not ln.startswith(b"#")]


def digest_outputs(outputs: list[tuple[str, str]]) -> str:
    h = hashlib.sha256()
    for role, path in outputs:
        h.update(role.encode() + b"\0")
        for ln in data_rows(path):
            h.update(ln + b"\n")
    return h.hexdigest()


class CheckFailed(Exception):
    """An item's output is wrong."""


def interior(mask: np.ndarray) -> np.ndarray:
    """Object pixels whose four edge neighbours are all object (off-image = background)."""
    p = np.pad(mask, 1, constant_values=False)
    return mask & p[:-2, 1:-1] & p[2:, 1:-1] & p[1:-1, :-2] & p[1:-1, 2:]


# --------------------------------------------------------------------------
# shapes


def noise_mask(rng, size: int, sigma: float) -> np.ndarray:
    """Thresholded smoothed noise: fine structure for small sigma, blobs for large."""
    return ndimage.gaussian_filter(rng.random((size, size)), sigma, mode="wrap") > 0.5


def ellipse_blob(rng, r: int) -> np.ndarray:
    """A (2r+1)^2 ellipse of semi-axes r and 0.8r with a rough edge.

    The long axis is horizontal or vertical, never oblique: an oblique
    ellipse has a larger box, and box size sets the cost of a sweep.
    """
    yy, xx = np.mgrid[-r : r + 1, -r : r + 1].astype(np.float64)
    u, v = (xx, yy) if rng.random() < 0.5 else (yy, xx)
    rough = ndimage.gaussian_filter(rng.standard_normal(xx.shape), max(r / 6, 1.5))
    rough *= 0.08 / max(float(rough.std()), 1e-9)
    return (u / r) ** 2 + (v / (0.8 * r)) ** 2 + rough < 1.0


def place_grid(rng, size: int, cells: tuple[int, int], radii: list[int]) -> np.ndarray:
    """Label map with one blob per grid cell (row-major), ids 1.. in order."""
    rows, cols = cells
    ch, cw = size // rows, size // cols
    labels = np.zeros((size, size), dtype=np.int32)
    for k, r in enumerate(radii):
        cy0, cx0 = (k // cols) * ch, (k % cols) * cw
        my, mx = ch - 2 * r - 1, cw - 2 * r - 1
        if my < 2 or mx < 2:
            raise ValueError(f"radius {r} does not fit a {cw}x{ch} cell")
        y = cy0 + 1 + int(rng.integers(0, my - 1))
        x = cx0 + 1 + int(rng.integers(0, mx - 1))
        blob = ellipse_blob(rng, r)
        labels[y : y + 2 * r + 1, x : x + 2 * r + 1][blob] = k + 1
    return labels


def bbox(mask: np.ndarray) -> tuple[int, int, int, int]:
    ys, xs = np.nonzero(mask)
    return int(xs.min()), int(ys.min()), int(xs.max()) + 1, int(ys.max()) + 1


# --------------------------------------------------------------------------
# workloads


class Workload:
    """A pool of slots: `pattern` repeated `passes_per_pool` times.

    Subclasses set `name`, `pattern`, `passes_per_pool`, the tail
    percentile (the highest with about ten items beyond it in a run) and
    `make_slot`, `run` and `check`.
    """

    name: str
    pattern: tuple[str, ...]
    passes_per_pool: int
    tail_percentile: int

    def slots(self):
        return [k for _ in range(self.passes_per_pool) for k in self.pattern]

    def generate(self, seed: int, root: str) -> list[dict]:
        """Write every slot's inputs under `root`; return the slot list."""
        out = []
        for i, kind in enumerate(self.slots()):
            # One stream per slot, so a slot's content depends only on (seed, i).
            rng = np.random.default_rng([seed, i])
            d = os.path.join(root, f"slot{i:02d}")
            os.makedirs(d)
            out.append(dict(kind=kind, dir=f"slot{i:02d}", **self.make_slot(rng, kind, d)))
        return out


class Codec(Workload):
    """encode -> decode -> softdecode of one mask file."""

    name = "codec"
    # Fine-structure masks of 160^2 and 256^2; blobby 1200^2 at R=13 and
    # 768^2 at R=25 (larger disks), sized to cost about the same.  The
    # median falls inside the fine256 group, the tail inside the blobs.
    pattern = ("fine160", "fine256", "blob1200r13", "fine256", "fine256", "blob768r25")
    passes_per_pool = 2
    tail_percentile = 80
    KINDS = {
        "fine160": (160, 2.0, 13),
        "fine256": (256, 2.5, 13),
        "blob1200r13": (1200, 20.0, 13),
        "blob768r25": (768, 16.0, 25),
    }

    def make_slot(self, rng, kind, d):
        size, sigma, radius = self.KINDS[kind]
        mask = noise_mask(rng, size, sigma)
        write_pbm(os.path.join(d, "mask.pbm"), mask)
        np.save(os.path.join(d, "mask.npy"), mask)
        return {"radius": radius}

    def run(self, slot, src, out):
        bps, hard, soft = out("stack.bps"), out("hard.pbm"), out("soft.pbm")
        calls = [
            ["encode", "--in", os.path.join(src, "mask.pbm"), "--radius", str(slot["radius"]), "--out", bps],
            ["decode", "--in", bps, "--out", hard],
            ["softdecode", "--in", bps, "--flip-prob", "0.02", "--out", soft],
        ]
        return calls, [("bps", bps), ("hard", hard), ("soft", soft)]

    def check(self, slot, src, outputs):
        mask = np.load(os.path.join(src, "mask.npy"))
        files = dict(outputs)
        inner = interior(mask)
        hard = read_pbm(files["hard"])
        if hard.shape != mask.shape or not np.array_equal(hard, inner):
            raise CheckFailed("conservative decode differs from the mask interior")
        soft = read_pbm(files["soft"])
        if soft.shape != mask.shape:
            raise CheckFailed("soft decode has the wrong size")
        # 2% flips add disks but drop few: nearly all of the interior survives.
        kept = (soft & inner).sum() / max(int(inner.sum()), 1)
        if kept < 0.9:
            raise CheckFailed(f"soft decode keeps only {kept:.3f} of the interior")


class Boxsim(Workload):
    """One robustness sweep over a shrink x shift grid with the identity."""

    name = "boxsim"
    # small: 28x28-normalised sweep of a medium instance, native sweep of a
    # small instance (both 384^2 scenes, bound by the per-perturbation EDT);
    # large: native sweep of a large instance of a 512^2 scene (bound by
    # decode_to_canvas).
    pattern = ("norm28", "native_small", "native_large")
    passes_per_pool = 4
    tail_percentile = 75
    SHRINK = "0:4:4"
    SHIFT = "-4:4:4"  # must be passed as --shift-range=-4:4:4 (argparse)
    PERTURBATIONS = 2 * 3 * 3

    def make_slot(self, rng, kind, d):
        if kind == "native_large":
            radii = [88, 40, 40, 24]
            labels = place_grid(rng, 512, (2, 2), radii)
            target, norm = 1, "native"
        else:
            radii = [44, 20, 44, 20, 44, 20, 44, 20, 44]
            labels = place_grid(rng, 384, (3, 3), radii)
            target, norm = (1, "28x28") if kind == "norm28" else (2, "native")
        write_pgm(os.path.join(d, "scene.pgm"), labels)
        return {"id": target, "box": list(bbox(labels == target)), "norm": norm}

    def run(self, slot, src, out):
        csv = out("sweep.csv")
        calls = [[
            "boxsim", "--labels", os.path.join(src, "scene.pgm"), "--id", str(slot["id"]),
            "--box", ",".join(map(str, slot["box"])), "--shrink-range", self.SHRINK,
            f"--shift-range={self.SHIFT}", "--norm", slot["norm"], "--out", csv,
        ]]
        return calls, [("csv", csv)]

    def check(self, slot, src, outputs):
        rows = [r for r in data_rows(outputs[0][1]) if r][1:]
        if len(rows) != self.PERTURBATIONS:
            raise CheckFailed(f"expected {self.PERTURBATIONS} rows, got {len(rows)}")
        identity = 0
        for r in rows:
            dx, dy, sx, sy, beyond, inside = r.split(b",")
            beyond, inside = float(beyond), float(inside)
            if not (0.0 <= inside <= 1.0 and 0.0 <= beyond <= 1.0):
                raise CheckFailed(f"IoU outside [0, 1]: {r!r}")
            if slot["norm"] != "native":
                continue
            if beyond < inside:
                raise CheckFailed(f"native row with iou_beyond < iou_inside: {r!r}")
            if (int(dx), int(dy), float(sx), float(sy)) == (0, 0, 1.0, 1.0):
                identity += 1
                if beyond != 1.0:
                    raise CheckFailed(f"identity row with iou_beyond != 1: {r!r}")
        if slot["norm"] == "native" and identity != 1:
            raise CheckFailed("native sweep has no identity row")


class Eval(Workload):
    """One eval call with the default pipeline on box-anchored proposals."""

    name = "eval"
    # sparse: 5 GT, 100 proposals; crowded: 20 GT, 1000 proposals; all 256^2.
    pattern = ("sparse", "sparse", "crowded")
    passes_per_pool = 4
    tail_percentile = 75
    KINDS = {
        "sparse": ((2, 3), [26, 14, 22, 12, 18], 100),
        "crowded": ((4, 5), [20, 10, 16, 8, 14] * 4, 1000),
    }

    def make_slot(self, rng, kind, d):
        cells, radii, n_props = self.KINDS[kind]
        labels = place_grid(rng, 256, cells, radii)
        write_pgm(os.path.join(d, "gt.pgm"), labels)
        gts = [labels == k for k in range(1, len(radii) + 1)]
        lines = []
        for j in range(n_props):
            if j % 5 == 4:  # one in five is a false positive
                w, h = (int(v) for v in rng.integers(8, 48, 2))
                x0, y0 = int(rng.integers(0, 256 - w)), int(rng.integers(0, 256 - h))
                box = (x0, y0, x0 + w, y0 + h)
                r = max(w, h) // 2
                m = ellipse_blob(rng, r)[r - h // 2 : r - h // 2 + h, r - w // 2 : r - w // 2 + w]
                score = rng.uniform(0.0, 0.8)
            else:
                g = gts[j % len(gts)]
                x0, y0, x1, y1 = bbox(g)
                w, h = x1 - x0, y1 - y0
                jit = np.round(rng.normal(0.0, 0.12, 4) * [w, h, w, h]).astype(int)
                bx0 = min(max(0, x0 + jit[0]), 254)
                by0 = min(max(0, y0 + jit[1]), 254)
                bx1 = min(256, max(bx0 + 2, x1 + jit[2]))
                by1 = min(256, max(by0 + 2, y1 + jit[3]))
                box = (int(bx0), int(by0), int(bx1), int(by1))
                m = g[by0:by1, bx0:bx1]
                steps = int(rng.integers(0, 3))
                if steps:
                    op = ndimage.binary_dilation if rng.random() < 0.5 else ndimage.binary_erosion
                    m = op(m, iterations=steps)
                score = rng.uniform(0.2, 1.0)
            name = f"m{j:04d}.pbm"
            write_pbm(os.path.join(d, name), m)
            lines.append(f"{j} {box[0]} {box[1]} {box[2]} {box[3]} {score!r} {name}")
        with open(os.path.join(d, "proposals.txt"), "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
        return {"gt": len(radii)}

    def run(self, slot, src, out):
        csv = out("report.csv")
        calls = [["eval", "--proposals", os.path.join(src, "proposals.txt"),
                  "--gt", os.path.join(src, "gt.pgm"), "--out", csv]]
        return calls, [("csv", csv)]

    def check(self, slot, src, outputs):
        rows = [r.split(b",") for r in data_rows(outputs[0][1]) if r][1:]
        recall = []
        for section, key, value in rows:
            v = float(value)
            if section == b"count":
                if key == b"ground_truth" and int(value) != slot["gt"]:
                    raise CheckFailed(f"ground truth count {value!r} != {slot['gt']}")
                continue
            if not 0.0 <= v <= 1.0:
                raise CheckFailed(f"{section!r} {key!r} = {v} outside [0, 1]")
            if section == b"recall":
                recall.append((float(key), v))
        if not recall or any(b[1] > a[1] for a, b in zip(recall, recall[1:])):
            raise CheckFailed("recall curve is missing or increases")


WORKLOADS = {w.name: w for w in (Codec(), Boxsim(), Eval())}


def generate(workload: str, seed: int, root: str) -> None:
    wl = WORKLOADS[workload]
    slots = wl.generate(seed, root)
    with open(os.path.join(root, "manifest.json"), "w", encoding="ascii") as fh:
        json.dump({"workload": workload, "seed": seed, "slots": slots}, fh, indent=1)


def input_digest(root: str) -> str:
    """Digest of every generated file, to prove the generator reproducible."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for f in sorted(filenames):
            p = os.path.join(dirpath, f)
            h.update(os.path.relpath(p, root).encode() + b"\0")
            with open(p, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()
