"""Scripted stand-in for the real backend.

Replays recorded transcripts keyed by (source digest, mode). Fixture files are
plain text: a one-line header, then the backend output verbatim.

    # digest=<sha256 hex> mode=<system|function:NAME> [sleep=<seconds>]
    ...output...

The mode field exists because enforce- and replace-mode instrumentations of a
one-function program can be byte-identical; the digest alone cannot key them.
A header without mode= matches any mode. Output bytes are replayed exactly, so
repeated runs are bit-identical. Unknown inputs produce a loud non-verdict
line, which the driver maps to a tool error.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from typing import Iterable, Optional, Tuple

HEADER_PREFIX = "# digest="
FIXTURES_ENV = "CONTRACTOR_MOCK_FIXTURES"


def source_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _parse_header(line: str) -> Optional[Tuple[str, Optional[str], float]]:
    if not line.startswith(HEADER_PREFIX):
        return None
    digest = None
    mode = None
    sleep_s = 0.0
    for part in line[2:].split():
        if part.startswith("digest="):
            digest = part[len("digest="):]
        elif part.startswith("mode="):
            mode = part[len("mode="):]
        elif part.startswith("sleep="):
            sleep_s = float(part[len("sleep="):])
    if digest is None:
        return None
    return digest, mode, sleep_s


def _iter_transcripts(fixtures_dir: str) -> Iterable[str]:
    for name in sorted(os.listdir(fixtures_dir)):
        if name.endswith(".txt"):
            yield os.path.join(fixtures_dir, name)


def _read_transcript(path: str, digest: str, mode: str) -> Optional[Tuple[str, float]]:
    """(output, sleep_s) of the file at path if its header carries exactly
    this digest and mode."""
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except FileNotFoundError:
        return None
    with fh:
        parsed = _parse_header(fh.readline().rstrip("\n"))
        if parsed is None or parsed[:2] != (digest, mode):
            return None
        return fh.read(), parsed[2]


def _scan(fixtures_dir: str, digest: str, mode: str) -> Optional[Tuple[str, float]]:
    fallback = None
    for path in _iter_transcripts(fixtures_dir):
        with open(path, "r", encoding="utf-8", newline="") as fh:
            header = fh.readline().rstrip("\n")
            parsed = _parse_header(header)
            if not parsed:
                continue
            t_digest, t_mode, sleep_s = parsed
            if t_digest != digest:
                continue
            body = fh.read()
            if t_mode == mode:
                return body, sleep_s
            if t_mode is None and fallback is None:
                fallback = (body, sleep_s)
    return fallback


def lookup(fixtures_dir: str, digest: str, mode: str) -> Optional[Tuple[str, float]]:
    """(output, sleep_s) of the transcript matching digest and mode, if any.

    The file `transcript_name(digest, mode)` names is read first. Every
    transcript is scanned only when that file is missing or its header does
    not carry this digest and mode: a header without mode=, a file named
    otherwise, or two digests sharing their first 16 hex digits."""
    named = os.path.join(fixtures_dir, transcript_name(digest, mode))
    return _read_transcript(named, digest, mode) or _scan(fixtures_dir, digest, mode)


def transcript_name(digest: str, mode: str) -> str:
    safe_mode = mode.replace(":", "_")
    return f"{digest[:16]}__{safe_mode}.txt"


def write_transcript(
    fixtures_dir: str,
    source_text: str,
    mode: str,
    output: str,
    sleep_s: Optional[float] = None,
) -> str:
    """Record one fixture; overwrites any previous recording for the same key.
    Returns the file path."""
    os.makedirs(fixtures_dir, exist_ok=True)
    digest = source_digest(source_text)
    header = f"{HEADER_PREFIX}{digest} mode={mode}"
    if sleep_s:
        header += f" sleep={sleep_s}"
    path = os.path.join(fixtures_dir, transcript_name(digest, mode))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        fh.write(output)
    return path


def _mode_from_args(enforce: Optional[str]) -> str:
    return f"function:{enforce}" if enforce else "system"


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="contractor-mock-bmc",
        description="replay recorded backend transcripts by source digest",
    )
    parser.add_argument("--fixtures", default=os.environ.get(FIXTURES_ENV),
                        help="transcript directory (or set %s)" % FIXTURES_ENV)
    parser.add_argument("--enforce-contract", dest="enforce", default=None)
    parser.add_argument("--replace-call-with-contract", dest="replace",
                        action="append", default=[])
    parser.add_argument("source", nargs=1)
    args, _unknown = parser.parse_known_args(argv)

    if not args.fixtures or not os.path.isdir(args.fixtures):
        print("MOCK: no fixtures directory configured")
        return 0

    with open(args.source[0], "r", encoding="utf-8", newline="") as fh:
        digest = source_digest(fh.read())
    mode = _mode_from_args(args.enforce)

    hit = lookup(args.fixtures, digest, mode)
    if hit is None:
        print(f"MOCK: no transcript for digest={digest} mode={mode}")
        return 0
    output, sleep_s = hit
    if sleep_s:
        time.sleep(sleep_s)
    sys.stdout.write(output)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
