"""Splitting pre-tagged expressions into static and motion cues.

Nouns, adjectives and prepositions ground per-frame appearance; verbs and
adverbs describe temporal behaviour.  Both cue sets carry the sentence
embedding (the mean of all token embeddings) added element-wise so each cue
keeps sentence context.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor, take

NOUN = "NOUN"
ADJ = "ADJ"
PREP = "PREP"
VERB = "VERB"
ADV = "ADV"
OTHER = "OTHER"

STATIC_TAGS = frozenset({NOUN, ADJ, PREP})
MOTION_TAGS = frozenset({VERB, ADV})
ALL_TAGS = STATIC_TAGS | MOTION_TAGS | {OTHER}


@dataclass(frozen=True)
class ExprToken:
    surface: str
    tag: str
    vocab_id: int


@dataclass
class TaggedExpression:
    tokens: list[ExprToken]
    target_ids: list[int] = field(default_factory=list)


@dataclass
class CueSet:
    """Static cues [K_s x C], motion cues [K_m x C], sentence embedding [C]."""

    static: Tensor
    motion: Tensor
    sentence: Tensor


def decouple(expr: TaggedExpression, embedding: Tensor, add_sentence: bool = True) -> CueSet:
    """Split an expression into static/motion cue matrices.

    The sentence embedding is the mean over all token embeddings.  An
    expression needs at least one word of each cue class, static and motion,
    as every generated expression holds a noun and a verb; one without raises
    ValueError naming the missing class.  `add_sentence=False` drops the
    element-wise sentence add from the cue rows (ablation path).
    """
    vocab_size = embedding.shape[0]
    for tok in expr.tokens:
        if tok.tag not in ALL_TAGS:
            raise ValueError(f"unknown POS tag {tok.tag!r}")
        if not 0 <= tok.vocab_id < vocab_size:
            raise ValueError(f"vocab id {tok.vocab_id} out of range for table of {vocab_size}")
    static_pos = [i for i, t in enumerate(expr.tokens) if t.tag in STATIC_TAGS]
    motion_pos = [i for i, t in enumerate(expr.tokens) if t.tag in MOTION_TAGS]
    for name, positions, tags in (("static", static_pos, STATIC_TAGS),
                                  ("motion", motion_pos, MOTION_TAGS)):
        if not positions:
            raise ValueError(f"expression {[t.surface for t in expr.tokens]} has no {name} cue: "
                             f"it needs a word tagged one of {sorted(tags)}")

    ids = np.array([t.vocab_id for t in expr.tokens], dtype=np.intp)
    word_rows = take(embedding, ids, axis=0)
    sentence = word_rows.mean(axis=0)

    def cue_rows(positions):
        rows = take(word_rows, np.array(positions, dtype=np.intp), axis=0)
        if add_sentence:
            rows = rows + sentence
        return rows

    return CueSet(
        static=cue_rows(static_pos),
        motion=cue_rows(motion_pos),
        sentence=sentence,
    )
