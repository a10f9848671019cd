#!/usr/bin/env python
"""Normalise a benchmark's raw measurement dump into a ``BENCH_*.json`` artifact.

Benchmarks that measure wall-clock themselves (e.g.
``benchmarks/test_serve_scaling.py`` with ``SERVE_SCALING_JSON`` set) write a
flat JSON object of raw numbers.  CI runs this script to wrap those numbers
in a stable artifact envelope::

    python scripts/bench_to_json.py /tmp/serve_scaling.raw.json \
        --name serve_scaling --out BENCH_serve_scaling.json

The envelope carries a schema version and the producing commit (when git is
available), so downstream tooling can diff artifacts across runs without
guessing at their provenance.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

SCHEMA_VERSION = 1


def _git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except OSError:
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def build_artifact(raw: dict, name: str) -> dict:
    """Wrap raw benchmark numbers in the artifact envelope."""
    if not isinstance(raw, dict) or not raw:
        raise ValueError("raw benchmark dump must be a non-empty JSON object")
    non_numeric = [
        key
        for key, value in raw.items()
        if not isinstance(value, (int, float, bool, str))
    ]
    if non_numeric:
        raise ValueError(
            f"raw dump values must be scalars; offending keys: {non_numeric}"
        )
    artifact = {
        "schema_version": SCHEMA_VERSION,
        "benchmark": name,
        "metrics": dict(raw),
    }
    commit = _git_commit()
    if commit:
        artifact["commit"] = commit
    return artifact


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("raw", help="path to the raw measurement JSON dump")
    parser.add_argument("--name", required=True, help="benchmark name")
    parser.add_argument("--out", required=True, help="artifact path to write")
    args = parser.parse_args(argv)

    with open(args.raw, encoding="utf-8") as fh:
        raw = json.load(fh)
    artifact = build_artifact(raw, args.name)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(artifact, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out} ({len(artifact['metrics'])} metrics)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
