"""Rewrite the schema "4" golden reports and certify manifest as schema "5".

Schema "5" removes keys and adds none, so a schema "5" report is its
schema "4" report with these keys deleted, ``schema_version`` set to "5"
and the rest dumped again in the canonical form
(``json.dumps(report, sort_keys=True, indent=2) + "\\n"``):

- the top-level ``family`` section (``certify``, ``params``);
- ``constants.d``, ``k``, ``l``, ``r``, ``s`` and ``t`` (``params``);
- ``intertwining.synthetic_maps`` (``trace-sim``).

The manifest pins certify reports by their hashes only, so this script
re-makes each schema "4" report with a schema "4" checkout of ahcert,
checks it against the manifest's hash, transforms it and hashes it again.
Run it from the repository root on the goldens at schema "4":

    python tests/golden/schema5.py <src directory of a schema "4" checkout>
"""

import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stdout

GOLDEN = os.path.dirname(os.path.abspath(__file__))

REMOVED = {
    (): ("family",),
    ("constants",): ("d", "k", "l", "r", "s", "t"),
    ("intertwining",): ("synthetic_maps",),
}


def to_schema5(text: str) -> str:
    """The schema "5" text of a schema "4" report's text."""
    report = json.loads(text)
    if report["schema_version"] != "4":
        raise ValueError(f"not a schema 4 report: {report['schema_version']!r}")
    for path, keys in REMOVED.items():
        section = report
        for key in path:
            section = section.get(key, {})
        for key in keys:
            section.pop(key, None)
    report["schema_version"] = "5"
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def main(old_src: str) -> None:
    for name in sorted(os.listdir(GOLDEN)):
        path = os.path.join(GOLDEN, name)
        if not name.endswith(".json") or name == "certify_manifest.json":
            continue
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if '"schema_version"' not in text:  # a family spec, not a report
            continue
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(to_schema5(text))

    sys.path.insert(0, old_src)
    from ahcert.cli import main as old_main

    manifest_path = os.path.join(GOLDEN, "certify_manifest.json")
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    for argv, entry in manifest.items():
        out = io.StringIO()
        with redirect_stdout(out):
            code = old_main(argv.split())
        text = out.getvalue()
        if (code, hashlib.sha256(text.encode()).hexdigest()) != (entry["exit"], entry["sha256"]):
            raise SystemExit(f"{argv}: {old_src} does not write the manifest's report")
        entry["sha256"] = hashlib.sha256(to_schema5(text).encode()).hexdigest()
    with open(manifest_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1])
