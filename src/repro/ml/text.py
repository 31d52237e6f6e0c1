"""Text-processing substrate: the CoreNLP stand-in.

The IE and genomics workloads need tokenization, sentence splitting,
stop-word filtering and a lightweight part-of-speech tagger (the paper's IE
workflow uses POS tags among its fine-grained features).  These are simple,
deterministic, rule-based implementations — the point is to exercise the same
expensive "NLP parsing" DPR step whose reuse dominates the NLP experiment
(Figure 5c), not linguistic accuracy.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = [
    "tokenize",
    "split_sentences",
    "remove_stop_words",
    "pos_tag",
    "STOP_WORDS",
]

_TOKEN_PATTERN = re.compile(r"[A-Za-z0-9_']+")
_SENTENCE_PATTERN = re.compile(r"(?<=[.!?])\s+")

#: A small English stop-word list (sufficient for the synthetic corpora).
STOP_WORDS = frozenset(
    """a an and are as at be by for from has have he her his in is it its of on
    or she that the their they this to was were which who will with""".split()
)

_DETERMINERS = {"the", "a", "an", "this", "that", "these", "those"}
_PRONOUNS = {"he", "she", "it", "they", "we", "i", "you", "her", "him", "them"}
_PREPOSITIONS = {"of", "in", "on", "at", "by", "for", "with", "from", "to", "into"}
_CONJUNCTIONS = {"and", "or", "but", "nor", "so", "yet"}
_VERB_SUFFIXES = ("ing", "ed", "ize", "ise", "ify")
_COMMON_VERBS = {
    "is", "are", "was", "were", "be", "been", "has", "have", "had", "said",
    "married", "met", "works", "lives", "announced", "reported", "found",
    "discovered", "encodes", "regulates", "binds", "expresses", "causes",
}
_ADVERB_SUFFIX = "ly"


def tokenize(text: str, lowercase: bool = True) -> List[str]:
    """Split text into word tokens (alphanumerics, underscores and apostrophes)."""
    tokens = _TOKEN_PATTERN.findall(text)
    return [t.lower() for t in tokens] if lowercase else tokens


def split_sentences(text: str) -> List[str]:
    """Split text into sentences on terminal punctuation."""
    sentences = [s.strip() for s in _SENTENCE_PATTERN.split(text.strip())]
    return [s for s in sentences if s]


def remove_stop_words(tokens: Iterable[str]) -> List[str]:
    """Filter out stop words (case-insensitive)."""
    return [t for t in tokens if t.lower() not in STOP_WORDS]


def pos_tag(tokens: Sequence[str]) -> List[Tuple[str, str]]:
    """A rule-based part-of-speech tagger.

    Tags: DT (determiner), PRP (pronoun), IN (preposition), CC (conjunction),
    CD (number), VB (verb), RB (adverb), NNP (capitalized proper noun) and NN
    (everything else).  Intentionally simple but deterministic, so POS-based
    features are stable across runs.
    """
    tags: List[Tuple[str, str]] = []
    for token in tokens:
        lowered = token.lower()
        if lowered in _DETERMINERS:
            tag = "DT"
        elif lowered in _PRONOUNS:
            tag = "PRP"
        elif lowered in _PREPOSITIONS:
            tag = "IN"
        elif lowered in _CONJUNCTIONS:
            tag = "CC"
        elif re.fullmatch(r"\d+(\.\d+)?", token):
            tag = "CD"
        elif lowered in _COMMON_VERBS or lowered.endswith(_VERB_SUFFIXES):
            tag = "VB"
        elif lowered.endswith(_ADVERB_SUFFIX) and len(lowered) > 3:
            tag = "RB"
        elif token[:1].isupper():
            tag = "NNP"
        else:
            tag = "NN"
        tags.append((token, tag))
    return tags
