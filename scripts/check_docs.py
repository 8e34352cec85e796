#!/usr/bin/env python3
"""Docs drift gate: keep README.md + docs/ honest against the code.

Four checks, all cheap enough to run on every CI build:

  * every *relative* markdown link in README.md and docs/*.md must resolve
    to an existing file (anchors are stripped; http(s)/mailto links are
    trusted — CI must not flake on the public internet), and
  * every wire verb in the `MsgType` enum of src/net/frame.hpp must appear
    by name in docs/wire-protocol.md — adding a verb without documenting it
    is exactly the drift this gate exists to catch, and
  * the kStats payload version (kStatsPayloadVersion in src/net/wire.hpp)
    must appear as "payload v<N>" in docs/wire-protocol.md, so a payload
    change that is not documented fails the same way, and
  * every backticked knob in the first column of a "| knob |" table in
    docs/operations.md must still appear as an identifier in the code under
    src/ (comments do not count; for a dotted name such as gossip.period, its
    last component), so a retired knob cannot stay documented.

Usage:
    check_docs.py [--repo-root DIR]
"""

import argparse
import pathlib
import re
import sys

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# Enum entries like "kCompile = 2," inside the MsgType block.
MSG_TYPE_RE = re.compile(r"^\s*(k[A-Za-z0-9]+)\s*=\s*\d+\s*,", re.MULTILINE)
STATS_VERSION_RE = re.compile(r"kStatsPayloadVersion\s*=\s*(\d+)\s*;")
KNOB_TABLE_RE = re.compile(r"^\|\s*knob\s*\|")
IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
COMMENT_RE = re.compile(r"//[^\n]*|/\*.*?\*/", re.DOTALL)


def markdown_files(root):
    files = [root / "README.md"]
    files.extend(sorted((root / "docs").glob("*.md")))
    return [f for f in files if f.exists()]


def strip_code_blocks(text):
    """Fenced code blocks hold example paths, not navigation links."""
    return re.sub(r"```.*?```", "", text, flags=re.DOTALL)


def check_links(root):
    failures = []
    checked = 0
    for md in markdown_files(root):
        body = strip_code_blocks(md.read_text(encoding="utf-8"))
        for target in LINK_RE.findall(body):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = (md.parent / path).resolve()
            checked += 1
            if not resolved.exists():
                failures.append(f"{md.relative_to(root)}: broken link -> {target}")
    print(f"  links: {checked} relative link(s) checked across {len(markdown_files(root))} files")
    return failures


def check_wire_verbs(root):
    frame = root / "src" / "net" / "frame.hpp"
    doc = root / "docs" / "wire-protocol.md"
    failures = []
    if not frame.exists():
        return [f"missing {frame.relative_to(root)}"]
    if not doc.exists():
        return [f"missing {doc.relative_to(root)} (wire verbs must be documented)"]
    header = frame.read_text(encoding="utf-8")
    enum = re.search(r"enum class MsgType[^{]*\{(.*?)\}", header, re.DOTALL)
    if enum is None:
        return [f"{frame.relative_to(root)}: could not find the MsgType enum"]
    verbs = MSG_TYPE_RE.findall(enum.group(1))
    if not verbs:
        return [f"{frame.relative_to(root)}: MsgType enum parsed to zero verbs"]
    documented = doc.read_text(encoding="utf-8")
    for verb in verbs:
        if verb not in documented:
            failures.append(
                f"docs/wire-protocol.md: wire verb '{verb}' (src/net/frame.hpp) is undocumented"
            )
    print(f"  verbs: {len(verbs)} MsgType entr(ies) checked against docs/wire-protocol.md")
    return failures


def check_stats_payload_version(root):
    wire = root / "src" / "net" / "wire.hpp"
    doc = root / "docs" / "wire-protocol.md"
    if not wire.exists():
        return [f"missing {wire.relative_to(root)}"]
    if not doc.exists():
        return [f"missing {doc.relative_to(root)} (the kStats payload must be documented)"]
    match = STATS_VERSION_RE.search(wire.read_text(encoding="utf-8"))
    if match is None:
        return [f"{wire.relative_to(root)}: could not find kStatsPayloadVersion"]
    version = match.group(1)
    print(f"  stats payload: v{version} checked against docs/wire-protocol.md")
    if re.search(rf"payload v{version}\b", doc.read_text(encoding="utf-8")) is None:
        return [
            f"docs/wire-protocol.md: kStats payload v{version} (src/net/wire.hpp) is "
            f"undocumented (expected the text 'payload v{version}')"
        ]
    return []


def documented_knobs(text):
    """(line number, knob) for each backticked name in a knob table's first column."""
    knobs = []
    in_table = False
    for number, line in enumerate(text.splitlines(), start=1):
        if KNOB_TABLE_RE.match(line):
            in_table = True
            continue
        if not line.startswith("|"):
            in_table = False
            continue
        if not in_table or set(line) <= set("|-: "):
            continue
        first_cell = line.split("|")[1]
        knobs.extend((number, knob) for knob in re.findall(r"`([^`]+)`", first_cell))
    return knobs


def check_knobs(root):
    doc = root / "docs" / "operations.md"
    if not doc.exists():
        return [f"missing {doc.relative_to(root)}"]
    identifiers = set()
    for source in sorted((root / "src").rglob("*")):
        if source.suffix in (".cpp", ".hpp"):
            code = COMMENT_RE.sub("", source.read_text(encoding="utf-8"))
            identifiers.update(IDENTIFIER_RE.findall(code))
    failures = []
    knobs = documented_knobs(doc.read_text(encoding="utf-8"))
    for number, knob in knobs:
        name = knob.split(".")[-1]
        if not IDENTIFIER_RE.fullmatch(name):
            failures.append(f"docs/operations.md:{number}: knob `{knob}` is not an identifier")
        elif name not in identifiers:
            failures.append(
                f"docs/operations.md:{number}: knob `{knob}` names nothing under src/ "
                f"(retired? remove its row)"
            )
    print(f"  knobs: {len(knobs)} documented knob(s) checked against src/")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repo-root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent)
    args = parser.parse_args()
    root = args.repo_root.resolve()

    failures = (check_links(root) + check_wire_verbs(root) + check_stats_payload_version(root) +
                check_knobs(root))
    if failures:
        print("\ndocs drift gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\ndocs drift gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
