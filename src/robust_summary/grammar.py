"""The one reader of each text grammar the package reads.

- ``numbers``: a comma list of ints or floats, ``1,2,3``; blank text is [].
- ``read_ids``: an id file, ids separated by commas or whitespace.
- ``parse_spec``: a ``kind key=value ...`` spec (matroids, generators).
- ``parse_lines``: a file of ``key=value`` lines (instances, summaries);
  ``#`` comments and blank lines are skipped.

A key given twice is an error (``once``), except the keys a line file lets
repeat.  Every malformed input raises a one-line ValueError worded the same
for every caller; which keys a kind takes and what they mean stay with it.
"""

from __future__ import annotations

from pathlib import Path


def numbers(text: str, convert=int) -> list:
    text = text.strip()
    return [convert(t) for t in text.split(",")] if text else []


def read_ids(path) -> list[int]:
    """The ids of an id file; a token ``int`` refuses is an error naming the file and the token."""
    tokens = Path(path).read_text(encoding="utf-8").replace(",", " ").split()
    try:
        return list(map(int, tokens))
    except ValueError:
        for token in tokens:
            try:
                int(token)
            except ValueError:
                raise ValueError(f"id file {str(path)!r}: {token!r} is not an integer") from None
        raise


def once(table: dict, key, value, where: str) -> None:
    """``table[key] = value``; a key already in ``table`` is an error."""
    if key in table:
        raise ValueError(f"{where} {key!r} given twice")
    table[key] = value


def parse_spec(spec: str, what: str) -> tuple[str, dict[str, str]]:
    """The kind a ``what`` spec names, and its arguments."""
    tokens = spec.split()
    if not tokens:
        raise ValueError(f"empty {what} spec")
    kind, args = tokens[0], {}
    for token in tokens[1:]:
        key, sep, value = token.partition("=")
        if not sep:
            raise ValueError(f"{kind} {what} spec: {token!r} is not key=value")
        once(args, key, value, f"{kind} {what} spec: key")
    return kind, args


def parse_lines(text: str, what: str, repeatable=()) -> tuple[dict[str, str], dict[str, list[str]]]:
    """The value of each single key, and the values of each repeatable key in file order."""
    single: dict[str, str] = {}
    repeated: dict[str, list[str]] = {key: [] for key in repeatable}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{what}: line {line!r} has no '='")
        key, value = key.strip(), value.strip()
        if key in repeated:
            repeated[key].append(value)
        else:
            once(single, key, value, f"{what}: key")
    return single, repeated
