import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codegaze.lexer import (DataError, LabelFileError, LabelKind, LexError, TokenKind,
                            UnknownSnippetError, attach_labels, load_corpus, load_labels,
                            lookup_snippet, tokenize)


def spans(snippet):
    return [(t.text, t.kind, t.line, t.col_start, t.col_end) for t in snippet.tokens]


def test_empty_source():
    assert tokenize("").tokens == []


def test_keyword_and_identifier_spans():
    sn = tokenize("if (x1)", {"if"})
    assert spans(sn) == [
        ("if", TokenKind.KEYWORD, 0, 0, 2),
        ("(", TokenKind.PUNCT, 0, 3, 4),
        ("x1", TokenKind.IDENTIFIER, 0, 4, 6),
        (")", TokenKind.PUNCT, 0, 6, 7),
    ]


def test_comment_split_on_whitespace():
    sn = tokenize("a = b // sum it")
    assert [t.text for t in sn.tokens] == ["a", "=", "b", "sum", "it"]
    assert [t.kind for t in sn.tokens[-2:]] == [TokenKind.COMMENT_WORD] * 2


def test_hash_comment_marker():
    sn = tokenize("x # note here")
    assert [t.text for t in sn.tokens] == ["x", "note", "here"]


def test_number_is_maximal_digit_point_run():
    sn = tokenize("3.14+9")
    assert [(t.text, t.kind) for t in sn.tokens] == [
        ("3.14", TokenKind.NUMBER), ("+", TokenKind.OPERATOR), ("9", TokenKind.NUMBER)]


def test_string_literal_single_token():
    sn = tokenize('x = "a b" ;')
    assert [t.text for t in sn.tokens] == ["x", "=", '"a b"', ";"]
    assert sn.tokens[2].kind == TokenKind.STRING


def test_unterminated_string_names_line():
    with pytest.raises(LexError, match="line 1"):
        tokenize('ok\nx = "oops')


def test_operator_runs_split_single_char():
    sn = tokenize("a<=b")
    assert [t.text for t in sn.tokens] == ["a", "<", "=", "b"]


def test_tab_expansion_columns():
    sn = tokenize("\tx", tab_width=4)
    assert sn.tokens[0].col_start == 4


def test_tokens_sorted_and_nonoverlapping():
    sn = tokenize("for i in range\n  total = total + i", {"for", "in"})
    order = [(t.line, t.col_start) for t in sn.tokens]
    assert order == sorted(order)
    for a, b in zip(sn.tokens, sn.tokens[1:]):
        if a.line == b.line:
            assert a.col_end <= b.col_start


def test_deterministic_and_total():
    import random
    rng = random.Random(0)
    alphabet = "ab1 _+(){};\n\t='x'#/"
    for _ in range(200):
        src = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 60)))
        try:
            first = spans(tokenize(src, {"ab"}))
        except LexError:
            with pytest.raises(LexError):
                tokenize(src, {"ab"})
            continue
        assert spans(tokenize(src, {"ab"})) == first


@settings(max_examples=300, deadline=None)
@given(source=st.text(), tab_width=st.integers(1, 16))
def test_tokenize_is_total_and_spans_are_exact(source, tab_width):
    try:
        sn = tokenize(source, {"if"}, tab_width=tab_width)
    except LexError:
        return
    lines = [raw.expandtabs(tab_width) for raw in source.split("\n")]
    assert sn.n_lines == len(lines)
    for a, b in zip(sn.tokens, sn.tokens[1:]):
        assert (a.line, a.col_end) <= (b.line, b.col_start)
    for t in sn.tokens:
        assert t.col_start < t.col_end
        assert lines[t.line][t.col_start:t.col_end] == t.text


def test_round_trip_covers_non_whitespace():
    src = "while (k < 10) { k = k + 1 ; } // inc k"
    sn = tokenize(src, {"while"})
    rebuilt = [" "] * len(src)
    for t in sn.tokens:
        rebuilt[t.col_start:t.col_end] = src[t.col_start:t.col_end]
    for i, ch in enumerate(src):
        if ch.isspace() or (i in (src.index("//"), src.index("//") + 1)):
            continue
        assert rebuilt[i] == ch


def test_corpus_and_labels(tmp_path):
    (tmp_path / "corpus").mkdir()
    (tmp_path / "corpus" / "a.txt").write_text("if x", encoding="utf-8")
    (tmp_path / "corpus" / "b.txt").write_text("y = 1", encoding="utf-8")
    (tmp_path / "labels.csv").write_text(
        "snippet_id,kind,value\na,class,1\nb,class,0\nb,bug,2\n", encoding="utf-8")
    corpus = load_corpus(tmp_path / "corpus", {"if"})
    assert set(corpus) == {"a", "b"}
    labels = load_labels(tmp_path / "labels.csv")
    attach_labels(corpus, labels)
    assert corpus["a"].task.kind is LabelKind.CLASS and corpus["a"].task.value == 1
    assert corpus["b"].task.kind is LabelKind.BUG and corpus["b"].task.value == 2
    attach_labels(corpus, labels, prefer=LabelKind.CLASS)
    assert corpus["b"].task.kind is LabelKind.CLASS


def test_labels_header_validated(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("id,k,v\na,class,1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        load_labels(bad)


def test_labels_columns_in_any_order_and_lines_counted(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("value,snippet_id,kind\n1,a,class\n\n2,a,bug\n", encoding="utf-8")
    assert load_labels(path) == {"a": {LabelKind.CLASS: 1, LabelKind.BUG: 2}}
    path.write_text(path.read_text() + "x,b,bug\n", encoding="utf-8")
    with pytest.raises(LabelFileError) as e:
        load_labels(path)
    assert str(e.value) == f"{path}:5: value 'x' is not an integer"


def test_unknown_snippet_error_is_a_key_error_with_a_plain_message():
    corpus = {"a": tokenize("x", snippet_id="a")}
    assert lookup_snippet(corpus, "a", "unused") is corpus["a"]
    with pytest.raises(UnknownSnippetError) as info:
        lookup_snippet(corpus, "b", "snippet 'b' not found")
    assert isinstance(info.value, KeyError) and isinstance(info.value, DataError)
    assert str(info.value) == "snippet 'b' not found"
