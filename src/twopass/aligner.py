"""Second-pass acoustic scoring: Viterbi forced alignment of word sequences
against phoneme posteriors through a pronunciation graph.

The graph is a DAG of emitting states, one per phoneme position of each
pronunciation, with optional silence states between words and at both ends.
A state occupies one or more consecutive frames (self-loop); pronunciation
log-priors are charged once, on entering the first phoneme; silence carries
prior log 1. The alignment score is the sum of frame log-posteriors plus the
charged priors, maximized over pronunciation choices and segmentations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    MINUS_INF,
    AlignmentError,
    Hypothesis,
    Lexicon,
    OOVError,
    PosteriorMatrix,
    Vocabulary,
    detokenize,
)

DEFAULT_FLOOR_LOG_PROB = math.log(1e-4)


@dataclass(frozen=True)
class AlignOptions:
    """Alignment policy knobs.

    oov_policy "strict" raises for any unalignable hypothesis (OOV word,
    empty word sequence, dangling continuation token, too few frames);
    "floor" scores such hypotheses as frames * floor_log_prob (<= 0) instead.
    phoneme_log_priors, when given, are subtracted from each frame row
    (posteriors used as pseudo-likelihoods); defaults off.
    """

    allow_silence: bool = False
    silence_phoneme: int | None = None
    oov_policy: str = "strict"
    floor_log_prob: float = DEFAULT_FLOOR_LOG_PROB
    phoneme_log_priors: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.oov_policy not in ("strict", "floor"):
            raise ValueError("oov_policy must be 'strict' or 'floor'")
        if self.allow_silence and self.silence_phoneme is None:
            raise ValueError("allow_silence requires silence_phoneme")
        if not self.floor_log_prob <= 0.0:
            raise ValueError("floor_log_prob must be <= 0, got %r" % self.floor_log_prob)


@dataclass(frozen=True)
class PronGraph:
    """Emitting-state DAG for one word sequence.

    phoneme_ids[s] is the phoneme emitted by state s; preds[s] lists
    (predecessor state, transition charge); entries lists (state, entry
    charge) for utterance-initial states; finals may end the utterance.
    """

    phoneme_ids: tuple[int, ...]
    preds: tuple[tuple[tuple[int, float], ...], ...]
    entries: tuple[tuple[int, float], ...]
    finals: frozenset[int]

    def min_path_states(self) -> int:
        """Length in states of the shortest source-to-sink path."""
        best = [None] * len(self.phoneme_ids)
        for s, _ in self.entries:
            best[s] = 1
        for s in range(len(self.phoneme_ids)):
            for p, _ in self.preds[s]:
                if best[p] is not None:
                    cand = best[p] + 1
                    if best[s] is None or cand < best[s]:
                        best[s] = cand
        feasible = [best[s] for s in self.finals if best[s] is not None]
        if not feasible:
            raise AlignmentError("pronunciation graph has no complete path")
        return min(feasible)


def expand_pronunciations(words, lexicon: Lexicon, allow_silence: bool = False,
                          silence_phoneme: int | None = None) -> PronGraph:
    """Build the pronunciation graph for a word sequence.

    Raises OOVError for words missing from the lexicon and ValueError for an
    empty word sequence. With silence enabled, an optional silence state is
    inserted before the first word, between words, and after the last word.
    """
    words = list(words)
    if not words:
        raise ValueError("empty word sequence")
    if allow_silence and silence_phoneme is None:
        raise ValueError("allow_silence requires silence_phoneme")
    prons_per_word = [lexicon.pronunciations(w) for w in words]

    phoneme_ids: list[int] = []
    preds: list[list[tuple[int, float]]] = []
    entries: list[tuple[int, float]] = []

    def new_state(phoneme: int) -> int:
        phoneme_ids.append(phoneme)
        preds.append([])
        return len(phoneme_ids) - 1

    # frontier: states any next word may follow (ends of previous layer).
    frontier: list[int] = []
    if allow_silence:
        sil = new_state(silence_phoneme)
        entries.append((sil, 0.0))
        frontier.append(sil)
    at_start = True
    for i, prons in enumerate(prons_per_word):
        word_ends: list[int] = []
        for phones, prior in prons:
            log_prior = math.log(prior)
            first = new_state(phones[0])
            if at_start:
                entries.append((first, log_prior))
            for f in frontier:
                preds[first].append((f, log_prior))
            state = first
            for ph in phones[1:]:
                nxt = new_state(ph)
                preds[nxt].append((state, 0.0))
                state = nxt
            word_ends.append(state)
        at_start = False
        frontier = list(word_ends)
        if allow_silence:
            sil = new_state(silence_phoneme)
            for e in word_ends:
                preds[sil].append((e, 0.0))
            frontier.append(sil)
    finals = frozenset(frontier)
    return PronGraph(
        tuple(phoneme_ids),
        tuple(tuple(p) for p in preds),
        tuple(entries),
        finals)


def viterbi_align(posteriors: PosteriorMatrix, graph: PronGraph,
                  log_prior_shift=None) -> tuple[float, tuple[int, ...]]:
    """Best-path alignment of all T frames through the graph.

    Returns (log-score, per-frame phoneme ids). Each state on the winning
    path occupies at least one frame and all frames are consumed. Raises
    AlignmentError when T is smaller than the shortest pronunciation path.
    log_prior_shift (per-phoneme log-priors, optional) is subtracted from
    every frame row before scoring.
    """
    n_states = len(graph.phoneme_ids)
    for ph in graph.phoneme_ids:
        if not (0 <= ph < posteriors.symbols):
            raise ValueError("phoneme id %d outside posterior matrix" % ph)
    if posteriors.frames < graph.min_path_states():
        raise AlignmentError("utterance too short to align")

    rows = posteriors.values.astype(float)
    if log_prior_shift is not None:
        shift = list(log_prior_shift)
        if len(shift) != posteriors.symbols:
            raise ValueError("log_prior_shift length mismatch")
        rows = rows - [shift]
    # emissions[t][s]: the frame-t log-score of state s, as Python floats.
    emissions = rows[:, list(graph.phoneme_ids)].tolist()
    delta = [MINUS_INF] * n_states
    e = emissions[0]
    for s, charge in graph.entries:
        cand = charge + e[s]
        if cand > delta[s]:
            delta[s] = cand
    back: list[list[int]] = []
    for e in emissions[1:]:
        nxt = [MINUS_INF] * n_states
        bp = [-1] * n_states
        for s, preds in enumerate(graph.preds):
            best = delta[s]  # self-loop
            best_p = s
            for p, charge in preds:
                cand = delta[p] + charge
                if cand > best:
                    best = cand
                    best_p = p
            if best != MINUS_INF:
                nxt[s] = best + e[s]
                bp[s] = best_p
        delta = nxt
        back.append(bp)

    best_final = None
    best_score = MINUS_INF
    for s in sorted(graph.finals):
        if delta[s] > best_score:
            best_score = delta[s]
            best_final = s
    if best_final is None or best_score == MINUS_INF:
        raise AlignmentError("utterance too short to align")
    states = [best_final]
    for bp in reversed(back):
        states.append(bp[states[-1]])
    states.reverse()
    alignment = tuple(graph.phoneme_ids[s] for s in states)
    return float(best_score), alignment


def am_score(hypothesis: Hypothesis, posteriors: PosteriorMatrix,
             lexicon: Lexicon, vocab: Vocabulary,
             options: AlignOptions = AlignOptions()) -> float:
    """Acoustic log-score of one hypothesis via forced alignment.

    Detokenizes the hypothesis, expands its pronunciation graph and aligns
    it against the phoneme posteriors. Unalignable hypotheses follow the
    OOV policy: strict raises, floor returns frames * floor_log_prob.
    """
    try:
        words = detokenize(hypothesis.tokens, vocab)
        if not words:
            raise AlignmentError("empty hypothesis")
        graph = expand_pronunciations(
            words, lexicon, allow_silence=options.allow_silence,
            silence_phoneme=options.silence_phoneme)
        return viterbi_align(
            posteriors, graph, log_prior_shift=options.phoneme_log_priors)[0]
    except (OOVError, AlignmentError):
        if options.oov_policy == "floor":
            return posteriors.frames * options.floor_log_prob
        raise
