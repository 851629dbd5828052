"""Plain-text key=value configuration of the CLI.

A file is UTF-8 text, with or without a byte-order mark. Blank lines and
``#`` comments are ignored; values keep everything after the first ``=``.
Each key may appear once, and must be one the caller allows. The same
format serves as run manifest: effective parameters as key=value entries,
provenance as comment lines, so a manifest can be fed back as a config file.
"""

from __future__ import annotations

from pathlib import Path

from .errors import SchemaError, ValidationError


def parse_kv_text(text: str, keys: set[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SchemaError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise SchemaError(f"config line {lineno}: empty key")
        if key not in keys:
            raise SchemaError(f"config line {lineno}: no command reads the key {key!r}")
        if key in out:
            raise SchemaError(f"config line {lineno}: repeated key {key!r}")
        out[key] = value.strip()
    return out


def not_utf8(path: str | Path, exc: UnicodeDecodeError) -> ValidationError:
    return ValidationError(f"{path}: not UTF-8 text ({exc.reason}, byte {exc.object[exc.start]:#x})")


def load_config(path: str | Path, keys: set[str]) -> dict[str, str]:
    try:
        return parse_kv_text(Path(path).read_text(encoding="utf-8-sig"), keys)
    except UnicodeDecodeError as exc:
        raise not_utf8(path, exc) from None


def format_kv(entries: dict[str, str], comments: list[str] | None = None) -> str:
    lines = [f"# {c}" for c in (comments or [])]
    lines += [f"{key} = {value}" for key, value in entries.items()]
    return "\n".join(lines) + "\n"
