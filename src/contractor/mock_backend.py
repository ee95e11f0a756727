"""Scripted stand-in for the real backend.

Replays recorded transcripts keyed by (source digest, mode). Fixture files are
plain text: a one-line header, then the backend output verbatim.

    # digest=<sha256 hex> mode=<system|function:NAME> [sleep=<seconds>]
    ...output...

The mode field exists because enforce- and replace-mode instrumentations of a
one-function program can be byte-identical; the digest alone cannot key them.
A check reads exactly one file, `transcript_name(digest, mode)`, and replays
it only if its header carries that digest and that mode. Output bytes are
replayed exactly, so repeated runs are bit-identical. Anything else is a miss:
a loud non-verdict line, which the driver maps to a tool error.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from typing import Optional, Tuple

HEADER_PREFIX = "# digest="
FIXTURES_ENV = "CONTRACTOR_MOCK_FIXTURES"


def source_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def lookup(fixtures_dir: str, digest: str, mode: str) -> Optional[Tuple[str, float]]:
    """(output, sleep_s) of the file `transcript_name(digest, mode)` names, if
    its header carries exactly this digest and mode; None otherwise."""
    try:
        fh = open(os.path.join(fixtures_dir, transcript_name(digest, mode)),
                  "r", encoding="utf-8", newline="")
    except FileNotFoundError:
        return None
    with fh:
        header = fh.readline().rstrip("\n")
        fields = dict(part.partition("=")[::2] for part in header[2:].split())
        if not header.startswith(HEADER_PREFIX) or \
                (fields.get("digest"), fields.get("mode")) != (digest, mode):
            return None
        return fh.read(), float(fields.get("sleep", 0.0))


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
    mode = f"function:{args.enforce}" if args.enforce else "system"

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
