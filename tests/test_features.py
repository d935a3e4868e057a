import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codegaze.features import (UNK_ID, EmbeddingTableError, FeatureSpec, TokenIds,
                               build_vocab, featurize, fnv1a64, load_embedding_table, stack)
from codegaze.lexer import tokenize


def make_snippets(*sources):
    return [tokenize(src, snippet_id=f"s{i}") for i, src in enumerate(sources)]


def test_vocab_by_frequency_then_lex():
    vocab = build_vocab(make_snippets("a a b"), min_count=1)
    assert vocab.ids == {"<unk>": 0, "a": 1, "b": 2}


def test_vocab_threshold_leaves_only_unk():
    vocab = build_vocab(make_snippets("a b"), min_count=5)
    assert vocab.ids == {"<unk>": 0}


def test_vocab_order_independent_of_file_order():
    a = build_vocab(make_snippets("x y", "z z"), min_count=1)
    b = build_vocab(make_snippets("z z", "x y"), min_count=1)
    assert a.ids == b.ids


def test_vocab_requires_snippets():
    with pytest.raises(ValueError):
        build_vocab([], min_count=1)


def test_onehot_rows():
    snippets = make_snippets("a b c a")
    vocab = build_vocab(snippets, 1)
    rows = featurize(snippets[0], FeatureSpec(mode="onehot"), vocab)
    assert isinstance(rows, TokenIds)
    assert rows.shape == (4, len(vocab))
    assert rows.ids.tolist() == [vocab.lookup(tok.text) for tok in snippets[0].tokens]
    assert rows.ids[0] == rows.ids[3] != UNK_ID
    assert rows.pos.shape == (4, 0)


def test_onehot_pos_ratios():
    # token at line 2 of 4 lines, col 0 -> positional tail [0.5, 0.0]
    snippets = make_snippets("a\nb\nc\nd")
    vocab = build_vocab(snippets, 1)
    rows = featurize(snippets[0], FeatureSpec(mode="onehot_pos"), vocab)
    assert rows.shape == (4, len(vocab) + 2)
    assert rows.pos[2] == pytest.approx([0.5, 0.0])
    assert rows.ids[2] == vocab.lookup("c")


def test_unknown_token_gets_unk_id():
    vocab = build_vocab(make_snippets("a"), 1)
    rows = featurize(make_snippets("a zz")[0], FeatureSpec(mode="onehot"), vocab)
    assert rows.ids.tolist() == [vocab.lookup("a"), UNK_ID]


def test_empty_snippet_has_no_rows():
    vocab = build_vocab(make_snippets("a"), 1)
    for mode in ("onehot", "onehot_pos", "char_ngram"):
        assert featurize(make_snippets("")[0], FeatureSpec(mode=mode), vocab).shape[0] == 0


def per_token_ids_and_pos(snippet, vocab):
    """The one-hot_pos features a token at a time, as Python floats."""
    n_lines = max(snippet.n_lines, 1)
    max_cols = max((tok.col_end for tok in snippet.tokens), default=1)
    ids = np.array([vocab.lookup(tok.text) for tok in snippet.tokens], dtype=np.intp)
    pos = [(tok.line / n_lines, tok.col_start / max_cols) for tok in snippet.tokens]
    return ids, np.array(pos, dtype=np.float64).reshape(-1, 2)


@settings(max_examples=200, deadline=None)
@given(source=st.text(alphabet="ab x=(\n\t#", max_size=80),
       known=st.text(alphabet="ab x=(\n", max_size=20))
@example(source="", known="a")             # no tokens
@example(source="a b (x", known="a b")     # one line, unknown tokens
@example(source="a\n\n  b\n", known="")  # every token unknown
def test_featurize_equals_the_per_token_loop(source, known):
    snippet, vocab = tokenize(source, snippet_id="s"), build_vocab(make_snippets(known))
    ids, pos = per_token_ids_and_pos(snippet, vocab)
    for mode in ("onehot", "onehot_pos"):
        rows = featurize(snippet, FeatureSpec(mode=mode), vocab)
        assert rows.ids.dtype == ids.dtype and rows.ids.tobytes() == ids.tobytes()
        if mode == "onehot_pos":
            assert rows.pos.shape == pos.shape and rows.pos.tobytes() == pos.tobytes()


@pytest.mark.parametrize("field,value", [("ngram_n", 0), ("ngram_n", -2), ("buckets", 0),
                                         ("buckets", -4)])
def test_ngram_settings_below_one_are_rejected(field, value):
    with pytest.raises(ValueError, match=f"{field} must be at least 1, not {value}"):
        FeatureSpec(mode="char_ngram", **{field: value})


def test_stack_joins_rows_in_order():
    snippets = make_snippets("a b", "c\nd e")
    vocab = build_vocab(snippets, 1)
    parts = [featurize(sn, FeatureSpec(mode="onehot_pos"), vocab) for sn in snippets]
    joined = stack(parts)
    assert joined.shape == (5, len(vocab) + 2)
    assert joined.ids.tolist() == parts[0].ids.tolist() + parts[1].ids.tolist()
    assert (joined.pos == np.concatenate([parts[0].pos, parts[1].pos])).all()
    dense = [featurize(sn, FeatureSpec(mode="char_ngram", ngram_n=1), vocab) for sn in snippets]
    assert (stack(dense) == np.concatenate(dense)).all()


def test_char_bigram_single_bucket():
    snippets = make_snippets("ab")
    vocab = build_vocab(snippets, 1)
    rows = featurize(snippets[0], FeatureSpec(mode="char_ngram", ngram_n=2, buckets=32), vocab)
    assert (rows[0] != 0).sum() == 1
    assert rows[0].max() == 1.0


def test_char_ngram_position_invariant():
    snippets = make_snippets("foo x\nbar foo")
    vocab = build_vocab(snippets, 1)
    spec = FeatureSpec(mode="char_ngram", ngram_n=2, buckets=16)
    rows = featurize(snippets[0], spec, vocab)
    texts = [t.text for t in snippets[0].tokens]
    i, j = texts.index("foo"), len(texts) - 1 - texts[::-1].index("foo")
    assert i != j
    assert (rows[i] == rows[j]).all()


def test_fnv1a64_known_vector():
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C


def test_external_table(tmp_path):
    table_path = tmp_path / "emb.txt"
    table_path.write_text("a 1 2 3\nb 4 5 6\n", encoding="utf-8")
    snippets = make_snippets("a q b")
    vocab = build_vocab(snippets, 1)
    rows = featurize(snippets[0], FeatureSpec(mode="external", path=str(table_path)), vocab)
    assert rows[0] == pytest.approx([1, 2, 3])
    assert rows[1] == pytest.approx([0, 0, 0])  # unknown text -> all-zero
    assert rows[2] == pytest.approx([4, 5, 6])


def test_external_table_width_mismatch(tmp_path):
    bad = tmp_path / "emb.txt"
    bad.write_text("a 1 2 3\nb 4 5\n", encoding="utf-8")
    with pytest.raises(ValueError, match="width"):
        load_embedding_table(bad)


@pytest.mark.parametrize("text,message", [
    ("a\nb 1\n", "1: token 'a' has no values"),
    ("a 1 2\n\nb 4 x\n", "3: value 'x' is not a finite number"),
    ("a 1 2\nb nan 5\n", "2: value 'nan' is not a finite number"),
    ("a 1 2\nb inf 5\n", "2: value 'inf' is not a finite number"),
    ("a 1 2\n\n\nb 4\n", "4: width 1, the first row's is 2"),
])
def test_external_table_bad_row_names_its_line(tmp_path, text, message):
    bad = tmp_path / "emb.txt"
    bad.write_text(text, encoding="utf-8")
    with pytest.raises(EmbeddingTableError) as err:
        load_embedding_table(bad)
    assert str(err.value) == f"{bad}:{message}"


def test_external_table_empty(tmp_path):
    empty = tmp_path / "emb.txt"
    empty.write_text("\n\n", encoding="utf-8")
    with pytest.raises(EmbeddingTableError, match="empty"):
        load_embedding_table(empty)


def test_external_table_missing():
    with pytest.raises(FileNotFoundError):
        load_embedding_table("/nonexistent/emb.txt")
