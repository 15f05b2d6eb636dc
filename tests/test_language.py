import json

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
    expression_from_json,
    expression_to_json,
)
from motionscope.tensor import Parameter, Tensor

from gradcheck import grad_check


def make_expr(specs, targets=(), video="v0"):
    return TaggedExpression(
        tokens=[ExprToken(s, tag, i) for i, (s, tag) in enumerate(specs)],
        target_ids=list(targets),
        video=video,
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

    def test_all_noun_expression_falls_back_to_sentence_row(self):
        rng = np.random.default_rng(1)
        emb = Tensor(rng.normal(size=(3, 5)))
        expr = make_expr([("cat", NOUN), ("dog", NOUN)])
        cues = decouple(expr, emb)
        assert cues.motion.shape == (1, 5)
        assert np.array_equal(cues.motion.data[0], cues.sentence.data)

    def test_single_verb_doubles_embedding(self):
        rng = np.random.default_rng(2)
        emb = Tensor(rng.normal(size=(1, 6)))
        cues = decouple(make_expr([("running", VERB)]), emb)
        assert np.allclose(cues.sentence.data, emb.data[0])
        assert np.allclose(cues.motion.data[0], 2.0 * emb.data[0])

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


class TestExpressionIO:
    def test_json_roundtrip(self):
        exprs = [
            make_expr(BIRD_SENTENCE, targets=[1], video="scene-7"),
            make_expr([("circle", NOUN), ("drifting", VERB)], targets=[], video="scene-8"),
        ]
        loaded = [expression_from_json(json.loads(json.dumps(expression_to_json(e))))
                  for e in exprs]
        assert len(loaded) == 2
        assert loaded[0].tokens == exprs[0].tokens
        assert loaded[0].target_ids == [1]
        assert loaded[1].video == "scene-8"

    def test_json_shape(self):
        obj = {"tokens": [["bird", "NOUN", 0]], "target_ids": [2], "video": "v"}
        expr = expression_from_json(obj)
        assert expr.tokens[0] == ExprToken("bird", "NOUN", 0)

    @pytest.mark.parametrize("missing", ["tokens", "target_ids", "video"])
    def test_missing_key_rejected(self, missing):
        obj = {"tokens": [["bird", "NOUN", 0]], "target_ids": [2], "video": "v"}
        del obj[missing]
        with pytest.raises(KeyError):
            expression_from_json(obj)
