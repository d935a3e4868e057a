"""Vocabulary building and per-token state feature vectors.

Supported representations: bag-of-words one-hot, one-hot plus normalized
position, hashed character n-gram counts, and an external embedding table.
The one-hot modes are kept by index, as `TokenIds`: one vocabulary id per
token, plus the two position columns for `onehot_pos`, so their memory
grows with the tokens alone, not with tokens x vocabulary. The n-gram and
external modes are dense (n_tokens x d_feat) matrices. Either form has the
`shape` of the matrix it stands for, and `stack` joins a group's into one.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .lexer import DataError, Snippet, finite_floats, read_text

UNK_ID = 0
UNK_TEXT = "<unk>"

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


class EmbeddingTableError(DataError):
    """Raised on a malformed external embedding table."""


@dataclass
class Vocab:
    ids: dict[str, int] = field(default_factory=lambda: {UNK_TEXT: UNK_ID})
    min_count: int = 1

    def __len__(self):
        return len(self.ids)

    def lookup(self, text: str) -> int:
        return self.ids.get(text, UNK_ID)


@dataclass
class FeatureSpec:
    mode: str  # "onehot" | "onehot_pos" | "char_ngram" | "external"
    ngram_n: int = 3
    buckets: int = 64
    path: str = ""

    def __post_init__(self):
        if self.ngram_n < 1:
            raise ValueError(f"ngram_n must be at least 1, not {self.ngram_n}")
        if self.buckets < 1:
            raise ValueError(f"buckets must be at least 1, not {self.buckets}")

    def dim(self, vocab: Vocab, table: dict[str, np.ndarray] | None = None) -> int:
        if self.mode == "onehot":
            return len(vocab)
        if self.mode == "onehot_pos":
            return len(vocab) + 2
        if self.mode == "char_ngram":
            return self.buckets
        if self.mode == "external":
            if not table:
                raise ValueError("external feature mode requires a loaded table")
            return next(iter(table.values())).shape[0]
        raise ValueError(f"unknown feature mode {self.mode!r}")


class TokenIds(NamedTuple):
    """One-hot token features kept by index. Row i of the (n, dim) matrix
    they stand for is 1 in column ids[i] and 0 elsewhere, except that its
    last pos.shape[1] columns hold pos[i] (the normalized line and column
    for `onehot_pos`, none for `onehot`)."""
    ids: np.ndarray  # (n,) vocabulary ids
    pos: np.ndarray  # (n, k) trailing columns
    dim: int

    @property
    def shape(self) -> tuple[int, int]:
        return self.ids.shape[0], self.dim


Features = np.ndarray | TokenIds


def stack(features: list[Features]) -> Features:
    """A group's features as one: the rows of each in turn."""
    if isinstance(features[0], TokenIds):
        return TokenIds(np.concatenate([f.ids for f in features]),
                        np.concatenate([f.pos for f in features]), features[0].dim)
    return np.concatenate(features)


def build_vocab(snippets: list[Snippet], min_count: int = 1) -> Vocab:
    """Frequency-ordered dense ids; ties broken lexicographically; 0 is UNK."""
    if not snippets:
        raise ValueError("build_vocab: no snippets")
    counts = Counter(tok.text for sn in snippets for tok in sn.tokens)
    kept = sorted(
        (text for text, c in counts.items() if c >= min_count),
        key=lambda t: (-counts[t], t),
    )
    vocab = Vocab(min_count=min_count)
    for text in kept:
        vocab.ids[text] = len(vocab.ids)
    return vocab


def fnv1a64(data: bytes) -> int:
    h = FNV_OFFSET
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & _MASK64
    return h


def load_embedding_table(path: str | os.PathLike) -> dict[str, np.ndarray]:
    """One line per token: `<text> <v1> ... <vd>`; all rows must agree on d.

    Raises EmbeddingTableError, naming `path:line`, on a row with no
    values, a value that is not a finite number, or a width that differs
    from the first row's.
    """
    table: dict[str, np.ndarray] = {}
    width = None
    for line_no, line in enumerate(read_text(path, EmbeddingTableError).split("\n"), start=1):
        parts = line.split()
        if not parts:
            continue
        vec = np.array(finite_floats(parts[1:], repeat("value"), EmbeddingTableError, path,
                                     line_no), dtype=np.float64)
        if width is None:
            width = vec.shape[0]
            if width == 0:
                raise EmbeddingTableError(f"{path}:{line_no}: token {parts[0]!r} "
                                          f"has no values")
        elif vec.shape[0] != width:
            raise EmbeddingTableError(f"{path}:{line_no}: width {vec.shape[0]}, "
                                      f"the first row's is {width}")
        table[parts[0]] = vec
    if not table:
        raise EmbeddingTableError(f"embedding table {path}: empty")
    return table


def featurize(snippet: Snippet, spec: FeatureSpec, vocab: Vocab,
              table: dict[str, np.ndarray] | None = None) -> Features:
    """Per-token features of shape (n_tokens, d_feat): `TokenIds` for the
    one-hot modes, a dense matrix otherwise."""
    if spec.mode == "external" and table is None:
        table = load_embedding_table(spec.path)
    dim = spec.dim(vocab, table)
    if spec.mode in ("onehot", "onehot_pos"):
        tokens = snippet.tokens
        ids = np.fromiter(map(vocab.ids.get, (tok.text for tok in tokens), repeat(UNK_ID)),
                          dtype=np.intp, count=len(tokens))
        if spec.mode == "onehot":
            return TokenIds(ids, np.zeros((len(ids), 0)), dim)
        # Each position is one IEEE division of two exact integers, so the
        # same bits as Python's int / int.
        pos = np.empty((len(tokens), 2))
        pos[:, 0] = np.fromiter((tok.line for tok in tokens), np.float64, len(tokens))
        pos[:, 1] = np.fromiter((tok.col_start for tok in tokens), np.float64, len(tokens))
        pos[:, 0] /= max(snippet.n_lines, 1)
        pos[:, 1] /= max((tok.col_end for tok in tokens), default=1)
        return TokenIds(ids, pos, dim)
    out = np.zeros((len(snippet.tokens), dim))
    if spec.mode == "char_ngram":
        for i, tok in enumerate(snippet.tokens):
            text = tok.text
            for j in range(len(text) - spec.ngram_n + 1):
                gram = text[j:j + spec.ngram_n]
                out[i, fnv1a64(gram.encode("utf-8")) % spec.buckets] += 1.0
    else:  # external: `dim` has rejected any other mode
        for i, tok in enumerate(snippet.tokens):
            vec = table.get(tok.text)
            if vec is not None:
                out[i] = vec
    return out
