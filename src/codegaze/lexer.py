"""Language-agnostic source tokenizer with line/column spans, and the
input-file checks every reader shares.

The lexer is deterministic and total: identifiers, numbers, quoted
strings, single-character operator/punct tokens, and comment bodies
split on whitespace. Columns are reported after tab expansion, so they
line up with a monospace rendering of the code.

A DataError is bad input: an input file that is not UTF-8 text or is
malformed, or an unknown snippet id. Every input reader opens its file
with `read_text`, and each raises its own DataError subclass.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import typing
from dataclasses import dataclass, fields
from enum import Enum
from operator import itemgetter
from pathlib import Path


class DataError(ValueError):
    """Raised on bad input data; the CLI exits 2 on it."""


class UnknownSnippetError(DataError, KeyError):
    """Raised when a snippet id is not in the corpus."""

    __str__ = ValueError.__str__  # not KeyError's, which quotes the message


class LexError(DataError):
    """Raised on malformed input, e.g. an unterminated string literal."""


class LabelFileError(DataError):
    """Raised on a malformed labels CSV."""


class TokenKind(str, Enum):
    IDENTIFIER = "identifier"
    KEYWORD = "keyword"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCT = "punct"
    COMMENT_WORD = "comment_word"


class LabelKind(str, Enum):
    CLASS = "class"
    BUG = "bug"


@dataclass
class TaskLabel:
    kind: LabelKind
    value: int


@dataclass
class Token:
    text: str
    kind: TokenKind
    line: int
    col_start: int
    col_end: int  # exclusive


@dataclass
class Snippet:
    id: str
    tokens: list[Token]
    n_lines: int
    task: TaskLabel | None = None


OPERATOR_CHARS = set("+-*/=<>!&|%^~.?@$\\")
COMMENT_MARKERS = ("//", "#")
_MARKER_STARTS = frozenset(m[0] for m in COMMENT_MARKERS)


def tokenize(source: str, keyword_set: set[str] | frozenset[str] = frozenset(),
             tab_width: int = 4, snippet_id: str = "") -> Snippet:
    """Lex `source` into a Snippet. Empty input yields zero tokens."""
    tokens: list[Token] = []
    lines = source.split("\n")
    for line_no, raw in enumerate(lines):
        line = raw.expandtabs(tab_width)
        i = 0
        n = len(line)
        while i < n:
            ch = line[i]
            if ch.isspace():
                i += 1
                continue
            marker = None
            if ch in _MARKER_STARTS:
                marker = next((m for m in COMMENT_MARKERS if line.startswith(m, i)), None)
            if marker is not None:
                body_start = i + len(marker)
                j = body_start
                while j < n:
                    if line[j].isspace():
                        j += 1
                        continue
                    k = j
                    while k < n and not line[k].isspace():
                        k += 1
                    tokens.append(Token(line[j:k], TokenKind.COMMENT_WORD, line_no, j, k))
                    j = k
                i = n
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < n and (line[j].isalnum() or line[j] == "_"):
                    j += 1
                text = line[i:j]
                kind = TokenKind.KEYWORD if text in keyword_set else TokenKind.IDENTIFIER
                tokens.append(Token(text, kind, line_no, i, j))
                i = j
                continue
            if ch.isdigit():
                j = i
                while j < n and (line[j].isdigit() or line[j] == "."):
                    j += 1
                tokens.append(Token(line[i:j], TokenKind.NUMBER, line_no, i, j))
                i = j
                continue
            if ch in ("'", '"'):
                j = i + 1
                while j < n and line[j] != ch:
                    j += 1
                if j >= n:
                    raise LexError(f"unterminated string literal at line {line_no}")
                tokens.append(Token(line[i:j + 1], TokenKind.STRING, line_no, i, j + 1))
                i = j + 1
                continue
            # Anything else (brackets, commas, unicode symbols etc.) is punctuation.
            kind = TokenKind.OPERATOR if ch in OPERATOR_CHARS else TokenKind.PUNCT
            tokens.append(Token(ch, kind, line_no, i, i + 1))
            i += 1
    return Snippet(id=snippet_id, tokens=tokens, n_lines=len(lines))


def read_text(path: str | os.PathLike, error: type[DataError]) -> str:
    """The text of UTF-8 file `path`, each "\\r\\n" or "\\r" read as "\\n" as
    `open` reads it. Raises `error`, naming `path:line`, if it is not UTF-8."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise error(f"{path}:{line}: not UTF-8 text ({e.reason})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def write_jsonl(path: str | os.PathLike, objs) -> None:
    """Each object as one line of canonical JSON (sorted keys)."""
    with open(path, "w", encoding="utf-8") as f:
        for obj in objs:
            f.write(json.dumps(obj, sort_keys=True) + "\n")


def read_csv_rows(path: str | os.PathLike, columns: tuple[str, ...], what: str,
                  error: type[DataError]):
    """Yields (line number, the `columns` fields) of each non-blank row of a
    CSV file. Raises `error` on a header that lacks one of `columns` and,
    naming `path:line`, on a row whose field count differs from the header's."""
    reader = csv.reader(io.StringIO(read_text(path, error)))
    try:
        header = next(reader, None)
        if header is None or not set(columns).issubset(header):
            raise error(f"{what} {path}: header must contain {','.join(columns)}")
        pick = itemgetter(*(header.index(name) for name in columns))
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise error(f"{path}:{reader.line_num}: {len(row)} fields, "
                            f"the header has {len(header)}")
            yield reader.line_num, pick(row)
    except csv.Error as e:  # a field longer than csv.field_size_limit()
        raise error(f"{path}:{reader.line_num}: {e}") from None


def finite_floats(texts, names, error: type[DataError], path: str | os.PathLike,
                  line: int) -> list[float]:
    """`texts`, read from line `line` of file `path`, parsed as floats. Raises
    `error`, naming `path:line` and, by its entry of `names`, the first text
    that is not a finite number."""
    values = []
    for name, text in zip(names, texts):
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise error(f"{path}:{line}: {name} {text!r} is not a finite number")
        values.append(value)
    return values


def lookup_snippet(corpus: dict[str, Snippet], sid: str, message: str) -> Snippet:
    """`corpus[sid]`; raises UnknownSnippetError(message) if there is none."""
    if sid not in corpus:
        raise UnknownSnippetError(message)
    return corpus[sid]


def load_corpus(corpus_dir: str | os.PathLike, keyword_set: set[str] | frozenset[str] = frozenset(),
                tab_width: int = 4) -> dict[str, Snippet]:
    """Read a directory of source files; snippet id = filename stem."""
    corpus: dict[str, Snippet] = {}
    for path in sorted(Path(corpus_dir).iterdir()):
        if not path.is_file():
            continue
        snippet = tokenize(read_text(path, LexError), keyword_set,
                           tab_width=tab_width, snippet_id=path.stem)
        corpus[snippet.id] = snippet
    return corpus


LABEL_COLUMNS = ("snippet_id", "kind", "value")


def load_labels(labels_path: str | os.PathLike) -> dict[str, dict[LabelKind, int]]:
    """Read a `snippet_id,kind,value` CSV; a snippet may carry several kinds.

    Blank lines are skipped. Raises LabelFileError, naming `path:line`, on a
    row whose field count differs from the header's, whose kind is not a
    LabelKind or whose value is not an integer.
    """
    labels: dict[str, dict[LabelKind, int]] = {}
    kinds = ", ".join(kind.value for kind in LabelKind)
    for line, (sid, kind, value) in read_csv_rows(labels_path, LABEL_COLUMNS, "labels file",
                                                  LabelFileError):
        try:
            kind = LabelKind(kind)
        except ValueError:
            raise LabelFileError(f"{labels_path}:{line}: kind {kind!r} is not one of "
                                 f"{kinds}") from None
        try:
            value = int(value)
        except ValueError:
            raise LabelFileError(f"{labels_path}:{line}: value {value!r} is not an "
                                 f"integer") from None
        labels.setdefault(sid, {})[kind] = value
    return labels


def attach_labels(corpus: dict[str, Snippet], labels: dict[str, dict[LabelKind, int]],
                  prefer: LabelKind | None = None) -> None:
    """Set Snippet.task from a labels table; `prefer` picks the kind when both exist."""
    for sid, snippet in corpus.items():
        kinds = labels.get(sid)
        if not kinds:
            continue
        kind = next(k for k in (prefer, LabelKind.BUG, LabelKind.CLASS) if k in kinds)
        snippet.task = TaskLabel(kind, kinds[kind])


def check_json_object(obj, types: dict[str, type], what: str) -> None:
    """Raises ValueError unless `obj` is a dict from keys of `types` to values
    of their types; an int passes for a float, a bool or a float not for an int."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(obj).__name__}")
    unknown = sorted(set(obj) - set(types))
    if unknown:
        raise ValueError(f"unknown {what} keys {unknown}")
    for key, value in obj.items():
        want = types[key]
        if type(value) is not want and not (want is float and type(value) is int):
            raise ValueError(f"{what} key {key!r} must be {want.__name__}, "
                             f"not {type(value).__name__}")


def field_types(cls) -> dict[str, type]:
    """Each field of dataclass `cls` mapped to its annotated type."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}
