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

The driver starts a check as `python -I -S -c <bootstrap> ...`
(`verifier.MOCK_COMMAND`): the bootstrap appends this file's directory to
`sys.path`, imports this module from its cached bytecode and ends with
`exit_now(main())`. At module level the module imports only `sys`, `posix`
(the POSIX module `os` wraps, which interpreter start-up has already loaded)
and CPython's built-in SHA-256, so a check loads nothing a bare
`python -I -S -c pass` does not load, apart from that one module. `time` is
imported only to honour a `sleep=` field, and `os` only by
`write_transcript`, which runs in the pipeline process, or off POSIX. The
environment is read from `posix.environ`, the dict `os.environ` reads and
writes through, so a `main(argv)` called in-process sees every change made to
`os.environ`.

`exit_now` flushes stdout and stderr and ends the process with
`posix._exit`, skipping interpreter finalization (garbage collection, module
teardown, freeing memory). Once the reply is flushed the driver has all it
reads, so that teardown would only spend CPU, about a sixth of a check's.
`main` returns its exit code and never ends the process itself, so tests and
`contractor-mock-bmc` call it in-process. If it raises, the bootstrap never
reaches `exit_now`: the traceback and exit code 1 stay, and the driver reads
a tool error. The script form, `python -I -S mock_backend.py ...`, ends
through `exit_now` too, and `contractor-mock-bmc` replays the same bytes.

Arguments are read by hand: the last one is the source file,
`--enforce-contract NAME` makes the mode `function:NAME` (else `system`),
`--fixtures DIR` overrides CONTRACTOR_MOCK_FIXTURES, and every other argument
is ignored.

`source_digest` is the package's one SHA-256. It lives here so that neither a
check nor the pipeline process loads OpenSSL's `_hashlib` for it.
"""

import sys

try:
    import posix  # the module `os` wraps, which interpreter start-up has loaded
except ImportError:  # not a POSIX system: _environ and _is_dir use os
    posix = None

try:
    if sys.version_info >= (3, 12):
        from _sha2 import sha256 as _sha256
    else:
        from _sha256 import sha256 as _sha256
except ImportError:  # an interpreter built without its own SHA-256
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
        fh = open(f"{fixtures_dir}/{transcript_name(digest, mode)}",
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
    import os

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


def _environ(name: str) -> str | None:
    """os.environ.get(name). On POSIX, os.environ keeps its data in
    posix.environ, by bytes, and writes every change through to it."""
    if posix is None:
        import os

        return os.environ.get(name)
    value = posix.environ.get(name.encode())
    if value is None:
        return None
    return value.decode(sys.getfilesystemencoding(), sys.getfilesystemencodeerrors())


def _is_dir(path: str) -> bool:
    """os.path.isdir(path)."""
    if posix is None:
        import os

        return os.path.isdir(path)
    try:
        return posix.stat(path).st_mode & 0o170000 == 0o040000
    except (OSError, ValueError):
        return False


def exit_now(code: int) -> None:
    """Flush stdout and stderr, then end the process with code without
    finalizing the interpreter (`posix._exit`). Off POSIX, sys.exit(code)."""
    sys.stdout.flush()
    sys.stderr.flush()
    if posix is None:
        sys.exit(code)
    posix._exit(code)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    if not args:
        print("usage: contractor-mock-bmc [--fixtures DIR] [--enforce-contract NAME] "
              "[other flags, ignored] SOURCE", file=sys.stderr)
        return 2
    read = {FIXTURES_FLAG: _environ(FIXTURES_ENV), ENFORCE_FLAG: None}
    options = iter(args[:-1])
    for arg in options:
        if arg in read:
            read[arg] = next(options, None)
    fixtures, enforce = read[FIXTURES_FLAG], read[ENFORCE_FLAG]

    if not fixtures or not _is_dir(fixtures):
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
        import time

        time.sleep(sleep_s)
    out = sys.stdout.buffer
    out.write(output.encode("utf-8"))
    out.flush()
    return 0


if __name__ == "__main__":
    exit_now(main())
