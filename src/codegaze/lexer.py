"""Language-agnostic source tokenizer with line/column spans.

The lexer is deterministic and total: identifiers, numbers, quoted
strings, single-character operator/punct tokens, and comment bodies
split on whitespace. Columns are reported after tab expansion, so they
line up with a monospace rendering of the code.
"""

from __future__ import annotations

import csv
import os
import typing
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path


class LexError(ValueError):
    """Raised on malformed input, e.g. an unterminated string literal."""


class LabelFileError(ValueError):
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


PUNCT_CHARS = set("()[]{},;:")
OPERATOR_CHARS = set("+-*/=<>!&|%^~.?@$\\")
COMMENT_MARKERS = ("//", "#")
_MARKER_STARTS = frozenset(m[0] for m in COMMENT_MARKERS)


def _expand_tabs(line: str, tab_width: int) -> str:
    return line.expandtabs(tab_width)


def tokenize(source: str, keyword_set: set[str] | frozenset[str] = frozenset(),
             tab_width: int = 4, snippet_id: str = "") -> Snippet:
    """Lex `source` into a Snippet. Empty input yields zero tokens."""
    tokens: list[Token] = []
    lines = source.split("\n")
    for line_no, raw in enumerate(lines):
        line = _expand_tabs(raw, tab_width)
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
            if ch in PUNCT_CHARS:
                tokens.append(Token(ch, TokenKind.PUNCT, line_no, i, i + 1))
                i += 1
                continue
            if ch in OPERATOR_CHARS:
                tokens.append(Token(ch, TokenKind.OPERATOR, line_no, i, i + 1))
                i += 1
                continue
            # Anything else (unicode symbols etc.) is treated as punctuation.
            tokens.append(Token(ch, TokenKind.PUNCT, line_no, i, i + 1))
            i += 1
    return Snippet(id=snippet_id, tokens=tokens, n_lines=len(lines))


def load_corpus(corpus_dir: str | os.PathLike, keyword_set: set[str] | frozenset[str] = frozenset(),
                tab_width: int = 4) -> dict[str, Snippet]:
    """Read a directory of source files; snippet id = filename stem."""
    corpus: dict[str, Snippet] = {}
    for path in sorted(Path(corpus_dir).iterdir()):
        if not path.is_file():
            continue
        snippet = tokenize(path.read_text(encoding="utf-8"), keyword_set,
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
    with open(labels_path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or not set(LABEL_COLUMNS).issubset(header):
            raise LabelFileError(f"labels file {labels_path}: header must contain "
                                 f"{','.join(LABEL_COLUMNS)}")
        sid_col, kind_col, value_col = (header.index(name) for name in LABEL_COLUMNS)
        kinds = ", ".join(kind.value for kind in LabelKind)
        for row in reader:
            if not row:
                continue
            where = f"{labels_path}:{reader.line_num}"
            if len(row) != len(header):
                raise LabelFileError(f"{where}: {len(row)} fields, the header has {len(header)}")
            try:
                kind = LabelKind(row[kind_col])
            except ValueError:
                raise LabelFileError(f"{where}: kind {row[kind_col]!r} is not one of "
                                     f"{kinds}") from None
            try:
                value = int(row[value_col])
            except ValueError:
                raise LabelFileError(f"{where}: value {row[value_col]!r} is not an "
                                     f"integer") from None
            labels.setdefault(row[sid_col], {})[kind] = value
    return labels


def attach_labels(corpus: dict[str, Snippet], labels: dict[str, dict[LabelKind, int]],
                  prefer: LabelKind | None = None) -> None:
    """Set Snippet.task from a labels table; `prefer` picks the kind when both exist."""
    for sid, snippet in corpus.items():
        kinds = labels.get(sid)
        if not kinds:
            continue
        if prefer is not None and prefer in kinds:
            snippet.task = TaskLabel(prefer, kinds[prefer])
        elif LabelKind.BUG in kinds:
            snippet.task = TaskLabel(LabelKind.BUG, kinds[LabelKind.BUG])
        else:
            snippet.task = TaskLabel(LabelKind.CLASS, kinds[LabelKind.CLASS])


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
