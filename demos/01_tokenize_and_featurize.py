#!/usr/bin/env python3
"""
Tokenizing source code and turning tokens into feature vectors
==============================================================

Walks one snippet through the front of the pipeline: lexing into
positioned tokens, building a vocabulary, and producing the per-token
features the policy consumes.
"""

from codegaze.features import FeatureSpec, build_vocab, featurize
from codegaze.lexer import tokenize

SOURCE = """\
for i = 0 ; i < n
\tacc = acc + i ;
// running total
"""

snippet = tokenize(SOURCE, keyword_set={"for"}, tab_width=4, snippet_id="demo")

print(f"snippet {snippet.id!r}: {len(snippet.tokens)} tokens over {snippet.n_lines} lines")
print(f"{'idx':>3}  {'text':<8} {'kind':<12} line  cols")
for i, tok in enumerate(snippet.tokens):
    print(f"{i:>3}  {tok.text:<8} {tok.kind.value:<12} {tok.line:>4}  "
          f"{tok.col_start}-{tok.col_end}")

# Vocabulary is frequency-ordered with a reserved unknown slot at id 0,
# so held-out snippets with unseen identifiers still featurize.
vocab = build_vocab([snippet], min_count=1)
print(f"\nvocab size {len(vocab)} (id 0 is the unknown token)")
print("ids:", {text: vocab.ids[text] for text in list(vocab.ids)[:8]})

# Identity features plus normalized line/column position. The one-hot part
# is kept as one vocabulary id per token, not as a row of |V| floats: the
# policy's embedding reads row `id` of its input matrix, plus the two
# position columns times that matrix's last two rows.
spec = FeatureSpec(mode="onehot_pos")
X = featurize(snippet, spec, vocab)
print(f"\nfeatures stand for a {X.shape} matrix (vocab one-hot + 2 positional columns),"
      f" kept as {X.ids.shape[0]} ids and a {X.pos.shape} position block")
print(f"{'idx':>3}  {'text':<8} {'id':>2}  line/n  col/max")
for i, tok in enumerate(snippet.tokens):
    print(f"{i:>3}  {tok.text:<8} {X.ids[i]:>2}  {X.pos[i, 0]:6.3f}  {X.pos[i, 1]:6.3f}")
acc_rows = [i for i, t in enumerate(snippet.tokens) if t.text == "acc"]
a, b = acc_rows[0], acc_rows[1]
print(f"the two 'acc' tokens share id {X.ids[a]} and differ only in position: "
      f"{X.pos[a].tolist()} vs {X.pos[b].tolist()}")

# Hashed character n-grams need no vocabulary at all; useful when the
# train and test corpora share morphology but not exact identifiers.
X_ngram = featurize(snippet, FeatureSpec(mode="char_ngram", ngram_n=3, buckets=32), vocab)
print(f"char-trigram features: {X_ngram.shape}, nonzero buckets per token "
      f"{(X_ngram > 0).sum(axis=1).tolist()}")
