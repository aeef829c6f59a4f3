#!/usr/bin/env python
"""Regenerate the golden-figure snapshots under tests/goldens/.

The goldens pin every figure of the pinned-seed study byte-for-byte
(see ``repro.experiments.goldens``).  Run this ONLY when a change is
*supposed* to alter results — a model fix, a calibration change — and
explain the shift in the commit message.  A pure optimization or
refactor must never need it.

Usage (from the repo root):

    PYTHONPATH=src python scripts/regen_goldens.py [--out tests/goldens]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.goldens import (  # noqa: E402
    GOLDEN_SCALE,
    GOLDEN_SEED,
    golden_context,
    write_goldens,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        default=Path(__file__).resolve().parent.parent / "tests" / "goldens",
        type=Path,
        help="directory to write the goldens into (default: tests/goldens)",
    )
    args = parser.parse_args(argv)

    print(
        f"running pinned golden study (seed={GOLDEN_SEED}, "
        f"scale={GOLDEN_SCALE})..."
    )
    started = time.time()
    ctx = golden_context()
    print(f"  {len(ctx.dataset)} records in {time.time() - started:.1f}s")
    written = write_goldens(ctx, args.out)
    for path in written:
        print(f"  wrote {path}")
    print(f"{len(written) - 1} figure goldens regenerated.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
