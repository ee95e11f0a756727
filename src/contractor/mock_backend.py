"""Scripted stand-in for the real backend.

Replays recorded transcripts keyed by (source digest, mode). Fixture files are
plain text: a one-line header, then the backend output verbatim.

    # digest=<sha256 hex> mode=<system|function:NAME> [sleep=<seconds>]
    ...output...

The mode field exists because enforce- and replace-mode instrumentations of a
one-function program can be byte-identical; the digest alone cannot key them.
A check reads exactly one file, `transcript_name(digest, mode)`, and replays
it only if its header carries that digest and that mode. The output is
written to stdout as its UTF-8 bytes, whatever the stdout encoding, so
repeated runs are bit-identical. Anything else is a miss: a loud non-verdict
line, which the driver maps to a tool error.

The driver starts this file as a script, `python -I -S mock_backend.py ...`,
so a check pays for a bare interpreter start and nothing more: the module
imports only `os`, `sys`, `time` and CPython's built-in SHA-256, never
`site`, `argparse`, `typing` or the rest of `contractor`. Arguments are read
by hand: the last one is the source file, `--enforce-contract NAME` makes the
mode `function:NAME` (else `system`), `--fixtures DIR` overrides
CONTRACTOR_MOCK_FIXTURES, and every other argument is ignored.

`source_digest` is the package's one SHA-256. It lives here so that neither a
check nor the pipeline process loads OpenSSL's `_hashlib` for it.
"""

import os
import sys
import time

try:
    from _sha2 import sha256 as _sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # CPython 3.10, 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

HEADER_PREFIX = "# digest="
FIXTURES_ENV = "CONTRACTOR_MOCK_FIXTURES"
ENFORCE_FLAG = "--enforce-contract"
FIXTURES_FLAG = "--fixtures"


def source_digest(data: str | bytes) -> str:
    """SHA-256 hex digest of bytes, or of a str's UTF-8 encoding."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return _sha256(data).hexdigest()


def lookup(fixtures_dir: str, digest: str, mode: str) -> tuple[str, float] | None:
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
    sleep_s: float | None = None,
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


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    if not args:
        print("usage: contractor-mock-bmc [--fixtures DIR] [--enforce-contract NAME] "
              "[other flags, ignored] SOURCE", file=sys.stderr)
        return 2
    read = {FIXTURES_FLAG: os.environ.get(FIXTURES_ENV), ENFORCE_FLAG: None}
    options = iter(args[:-1])
    for arg in options:
        if arg in read:
            read[arg] = next(options, None)
    fixtures, enforce = read[FIXTURES_FLAG], read[ENFORCE_FLAG]

    if not fixtures or not os.path.isdir(fixtures):
        print("MOCK: no fixtures directory configured")
        return 0

    with open(args[-1], "rb") as fh:
        digest = source_digest(fh.read())
    mode = f"function:{enforce}" if enforce else "system"

    hit = lookup(fixtures, digest, mode)
    if hit is None:
        print(f"MOCK: no transcript for digest={digest} mode={mode}")
        return 0
    output, sleep_s = hit
    if sleep_s:
        time.sleep(sleep_s)
    out = sys.stdout.buffer
    out.write(output.encode("utf-8"))
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
