#!/usr/bin/env python3
"""Per-tag performance trajectory over the committed bench recordings.

Each bench family commits one ``BENCH_<rev>[_<tag>].json`` recording
per landmark revision (see ``tools/bench_compare.py``).  This tool
reads every recording in ``--out-dir``, groups them by tag, orders each
family by its recorded run time (the ``datetime`` stamp inside the
JSON, not file mtime — a fresh checkout rewrites mtimes), and prints
the mean-time trajectory of every benchmark across the family's
recordings.

The newest recording of a family is then diffed against its
predecessor: any benchmark whose mean grew by more than ``--threshold``
(default 0.10 = 10%) is a regression and makes the exit code non-zero,
so ``make bench-trend`` can gate a landing that quietly slowed a
family between baseline refreshes.  Families with a single recording
are shown but cannot regress; a family whose recordings hold no
benchmarks is listed as such.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT_DIR = REPO_ROOT / "benchmarks" / "results"


def parse_stem(stem: str) -> tuple:
    """``BENCH_<rev>[_<tag>]`` -> (rev, tag); tag '' when untagged."""
    parts = stem.split("_")
    rev = parts[1] if len(parts) > 1 else "unknown"
    return rev, "_".join(parts[2:])


def load_recording(path: Path) -> dict:
    data = json.loads(path.read_text())
    rev, tag = parse_stem(path.stem)
    return {
        "path": path,
        "rev": rev,
        "tag": tag,
        "datetime": data.get("datetime", ""),
        "means": {
            bench["fullname"]: bench["stats"]["mean"]
            for bench in data.get("benchmarks", [])
        },
    }


def families(out_dir: Path) -> dict:
    """Tag -> chronologically ordered recordings."""
    grouped: dict = {}
    for path in sorted(out_dir.glob("BENCH_*.json")):
        try:
            recording = load_recording(path)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"skipping unreadable {path.name}: {exc}", file=sys.stderr)
            continue
        grouped.setdefault(recording["tag"], []).append(recording)
    for tag in grouped:
        grouped[tag].sort(key=lambda recording: recording["datetime"])
    return grouped


def shorten(fullname: str) -> str:
    return fullname.rsplit("::", 1)[-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out-dir",
        type=Path,
        default=DEFAULT_OUT_DIR,
        help="where BENCH_<rev>[_<tag>].json recordings live",
    )
    parser.add_argument(
        "--tag",
        action="append",
        default=None,
        help="only show these families (repeatable; default: all)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="allowed newest-vs-previous slowdown before failing "
        "(default 0.10)",
    )
    args = parser.parse_args(argv)

    grouped = families(args.out_dir)
    if args.tag is not None:
        grouped = {tag: grouped[tag] for tag in args.tag if tag in grouped}
    if not grouped:
        print(f"no BENCH_*.json recordings under {args.out_dir}")
        return 0

    regressions = 0
    for tag in sorted(grouped):
        chain = grouped[tag]
        label = tag or "(default)"
        revs = " -> ".join(recording["rev"] for recording in chain)
        print(f"family {label}: {len(chain)} recording(s)  [{revs}]")
        names = sorted({name for recording in chain for name in recording["means"]})
        if not names:
            print("  (no benchmarks)\n")
            continue
        width = max(len(shorten(name)) for name in names)
        for name in names:
            points = [
                (recording["rev"], recording["means"][name])
                for recording in chain
                if name in recording["means"]
            ]
            trajectory = "  ".join(f"{mean * 1e3:8.1f}ms" for _, mean in points)
            line = f"  {shorten(name):<{width}}  {trajectory}"
            if len(points) >= 2:
                old, new = points[-2][1], points[-1][1]
                ratio = new / old if old else float("inf")
                line += f"  ({ratio - 1.0:+.1%})"
                if ratio > 1.0 + args.threshold:
                    line += "  REGRESSION"
                    regressions += 1
            print(line)
        print()

    if regressions:
        print(
            f"{regressions} benchmark(s) regressed beyond "
            f"{args.threshold:.0%} against their previous recording."
        )
        return 1
    print(f"no family regressed beyond {args.threshold:.0%}.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
