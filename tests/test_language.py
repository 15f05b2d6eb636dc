import re

import numpy as np
import pytest

from motionscope.language import (
    ADV,
    NOUN,
    OTHER,
    PREP,
    VERB,
    ExprToken,
    TaggedExpression,
    decouple,
)
from motionscope.tensor import Parameter, Tensor

from gradcheck import grad_check


def make_expr(specs, targets=()):
    return TaggedExpression(
        tokens=[ExprToken(s, tag, i) for i, (s, tag) in enumerate(specs)],
        target_ids=list(targets),
    )


BIRD_SENTENCE = [
    ("bird", NOUN),
    ("standing", VERB),
    ("on", PREP),
    ("hand", NOUN),
    ("then", OTHER),
    ("flying", VERB),
    ("away", ADV),
]


class TestDecouple:
    def test_bird_sentence_split(self):
        rng = np.random.default_rng(0)
        emb = Tensor(rng.normal(size=(7, 4)))
        cues = decouple(make_expr(BIRD_SENTENCE), emb)
        sentence = emb.data.mean(axis=0)
        # vocab id = position: static rows are bird, on, hand; motion rows are
        # standing, flying, away, each plus the sentence embedding
        assert np.allclose(cues.static.data, emb.data[[0, 2, 3]] + sentence, atol=1e-12)
        assert np.allclose(cues.motion.data, emb.data[[1, 5, 6]] + sentence, atol=1e-12)
        assert cues.static.shape == (3, 4)
        assert cues.motion.shape == (3, 4)

    def test_all_noun_expression_names_the_missing_motion_cue(self):
        expr = make_expr([("cat", NOUN), ("dog", NOUN)])
        with pytest.raises(ValueError, match=re.escape(
                "expression ['cat', 'dog'] has no motion cue: it needs a word tagged one of "
                "['ADV', 'VERB']")):
            decouple(expr, Tensor(np.zeros((2, 5))))

    def test_single_verb_expression_names_the_missing_static_cue(self):
        with pytest.raises(ValueError, match=re.escape(
                "expression ['running'] has no static cue: it needs a word tagged one of "
                "['ADJ', 'NOUN', 'PREP']")):
            decouple(make_expr([("running", VERB)]), Tensor(np.zeros((1, 6))))

    def test_sentence_is_mean_of_all_tokens(self):
        rng = np.random.default_rng(3)
        emb = Tensor(rng.normal(size=(7, 4)))
        expr = make_expr(BIRD_SENTENCE)
        cues = decouple(expr, emb)
        assert np.allclose(cues.sentence.data, emb.data.mean(axis=0), atol=1e-15)

    def test_token_count_partition(self):
        rng = np.random.default_rng(4)
        emb = Tensor(rng.normal(size=(7, 4)))
        expr = make_expr(BIRD_SENTENCE)
        cues = decouple(expr, emb)
        n_other = len([t for t in expr.tokens if t.tag == OTHER])
        assert cues.static.shape[0] + cues.motion.shape[0] + n_other == len(expr.tokens)

    def test_same_class_permutation_permutes_rows(self):
        rng = np.random.default_rng(5)
        emb = Tensor(rng.normal(size=(7, 4)))
        expr = make_expr(BIRD_SENTENCE)
        swapped = make_expr(BIRD_SENTENCE)
        swapped.tokens[0], swapped.tokens[3] = swapped.tokens[3], swapped.tokens[0]
        a = decouple(expr, emb)
        b = decouple(swapped, emb)
        # sentence mean is summed in token order, so equality is up to roundoff
        assert np.allclose(a.static.data[[2, 1, 0]], b.static.data, atol=1e-12)
        assert np.allclose(a.motion.data, b.motion.data, atol=1e-12)

    def test_subtracting_sentence_recovers_embedding(self):
        rng = np.random.default_rng(6)
        emb = Tensor(rng.normal(size=(7, 4)))
        expr = make_expr(BIRD_SENTENCE)
        cues = decouple(expr, emb)
        recovered = cues.static.data - cues.sentence.data
        expected = emb.data[[0, 2, 3]]
        assert np.allclose(recovered, expected, atol=1e-12)
        # exact when embeddings are dyadic rationals
        emb2 = Tensor(np.round(rng.normal(size=(7, 4)) * 8) / 8)
        cues2 = decouple(expr, emb2)
        assert np.array_equal(cues2.motion.data - cues2.sentence.data, emb2.data[[1, 5, 6]])

    def test_no_sentence_variant(self):
        rng = np.random.default_rng(7)
        emb = Tensor(rng.normal(size=(7, 4)))
        cues = decouple(make_expr(BIRD_SENTENCE), emb, add_sentence=False)
        assert np.array_equal(cues.static.data, emb.data[[0, 2, 3]])

    def test_empty_expression_rejected(self):
        with pytest.raises(ValueError):
            decouple(TaggedExpression(tokens=[]), Tensor(np.zeros((2, 2))))

    def test_vocab_bounds_checked(self):
        expr = TaggedExpression(tokens=[ExprToken("x", NOUN, 5)])
        with pytest.raises(ValueError):
            decouple(expr, Tensor(np.zeros((2, 2))))

    def test_gradients_reach_embedding(self):
        rng = np.random.default_rng(8)
        emb = Parameter("embed", rng.normal(size=(7, 4)))
        expr = make_expr(BIRD_SENTENCE)

        def loss():
            cues = decouple(expr, emb)
            return (cues.static * cues.static).sum() + (cues.motion * cues.motion).sum()

        assert grad_check([emb], loss) < 1e-8

