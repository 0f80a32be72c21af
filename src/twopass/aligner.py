"""Second-pass acoustic scoring: Viterbi forced alignment of word sequences
against phoneme posteriors through a pronunciation graph.

The graph is a DAG of emitting states, one per phoneme position of each
pronunciation, with optional silence states between words and at both ends.
A state occupies one or more consecutive frames (self-loop); pronunciation
log-priors are charged once, on entering the first phoneme; silence carries
prior log 1. The alignment score is the sum of frame log-posteriors plus the
charged priors, maximized over pronunciation choices and segmentations.

One array recursion, _viterbi, serves both scorers. The predecessors of
every state are packed into K slots, padded with a sentinel state that
stays -inf, and each frame's values are written over that frame's gathered
emission row, so a pass keeps one T x states array. am_scores scores an
N-best list in one pass over a word-prefix trie of the list's word
sequences, the tree lexicon of Ney & Ortmanns (IEEE SPM 1999): hypotheses
that share a word prefix share its states, because a state's value depends
only on the states before it; each reads its best final from the last row.
viterbi_align runs the pass over one word sequence's graph, picks the best
final (the smallest final state among ties) and backtraces, re-deriving
each frame's winner from the stored row by the scalar rule: the self-loop
first, then a strict > over the predecessors in order.

Both give the scalar frame x state x predecessor recursion's scores and
alignments bit for bit. Every state value comes from the same float64
additions (predecessor + charge, then + emission), and max does not
depend on the order of its operands: posteriors are finite, so no NaN
enters, and no state value is ever -0.0 (each is a sum that starts from a
finite entry charge, and x + y is -0.0 only when both are), so equal values
have equal bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    MINUS_INF,
    AlignmentError,
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


class _WordTrie:
    """Emitting states of a word-prefix trie, in expand_pronunciations' order.

    Node 0 is the empty prefix and owns the optional leading silence state.
    Every other node owns the states of one word after its parent's prefix:
    each pronunciation's phonemes in lexicon order, the first charged the
    pronunciation's log-prior (on entry at the root, else from every state
    of the parent's frontier), then the optional silence state after the
    word. frontiers[node] are the states a next word may follow, which are
    also the finals of a word sequence that ends at the node; shortest[node]
    is the number of states on its shortest path from the start.
    """

    def __init__(self, silence_phoneme: int | None) -> None:
        self.silence = silence_phoneme
        self.phoneme_ids: list[int] = []
        self.preds: list[list[tuple[int, float]]] = []
        self.entries: list[tuple[int, float]] = []
        self.frontiers: list[tuple[int, ...]] = [()]
        self.shortest: list[int] = [0]
        self._children: dict[tuple[int, str], int] = {}
        if silence_phoneme is not None:
            sil = self._new_state(silence_phoneme, [])
            self.entries.append((sil, 0.0))
            self.frontiers[0] = (sil,)

    def _new_state(self, phoneme: int, preds: list[tuple[int, float]]) -> int:
        self.phoneme_ids.append(phoneme)
        self.preds.append(preds)
        return len(self.phoneme_ids) - 1

    def add(self, words, prons_per_word) -> int:
        """The node of a word sequence whose pronunciations are given,
        adding the nodes its prefixes lack."""
        node = 0
        for word, prons in zip(words, prons_per_word):
            child = self._children.get((node, word))
            if child is None:
                frontier = self.frontiers[node]
                ends = []
                for phones, prior in prons:
                    log_prior = math.log(prior)
                    first = len(self.phoneme_ids)
                    if node == 0:
                        self.entries.append((first, log_prior))
                    self.phoneme_ids.extend(phones)
                    self.preds.append([(f, log_prior) for f in frontier])
                    self.preds.extend([(s, 0.0)] for s in range(
                        first, first + len(phones) - 1))
                    ends.append(len(self.phoneme_ids) - 1)
                if self.silence is not None:
                    ends.append(self._new_state(
                        self.silence, [(e, 0.0) for e in ends]))
                child = self._children[node, word] = len(self.frontiers)
                self.frontiers.append(tuple(ends))
                self.shortest.append(self.shortest[node] + min(
                    len(phones) for phones, _ in prons))
            node = child
        return node


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
    trie = _WordTrie(silence_phoneme if allow_silence else None)
    node = trie.add(words, prons_per_word)
    return PronGraph(
        tuple(trie.phoneme_ids),
        tuple(tuple(p) for p in trie.preds),
        tuple(trie.entries),
        frozenset(trie.frontiers[node]))


def _emission_rows(posteriors: PosteriorMatrix, log_prior_shift) -> np.ndarray:
    """The float64 frame rows, with the per-phoneme log-priors subtracted."""
    rows = posteriors.values.astype(float)
    if log_prior_shift is not None:
        shift = list(log_prior_shift)
        if len(shift) != posteriors.symbols:
            raise ValueError("log_prior_shift length mismatch")
        rows = rows - [shift]
    return rows


def _viterbi(phoneme_ids, preds, entries, rows) -> np.ndarray:
    """The T x (states + 1) Viterbi values after each frame of rows, written
    over the gathered emission rows; the last column is the -inf sentinel.

    K slots (the largest fan-in, at least 1) hold each state's predecessors,
    padded with the sentinel at charge 0. A frame is one take of the slots,
    an add of their charges, a max over them, a maximum with the self-loop
    and an add into the frame's emission row.
    """
    n_states = len(phoneme_ids)
    ids = np.array(list(phoneme_ids) + [0])  # state n_states: the sentinel
    outside = (ids < 0) | (ids >= rows.shape[1])
    if outside.any():
        raise ValueError(
            "phoneme id %d outside posterior matrix" % ids[outside.argmax()])
    fan_in = max([1, *map(len, preds)])
    pred_ids = [[n_states] * (n_states + 1) for _ in range(fan_in)]
    charges = [[0.0] * (n_states + 1) for _ in range(fan_in)]
    for s, state_preds in enumerate(preds):
        for j, (p, charge) in enumerate(state_preds):
            pred_ids[j][s] = p
            charges[j][s] = charge
    pred_ids, charges = np.array(pred_ids), np.array(charges)
    delta = rows[:, ids]
    first = np.full(n_states + 1, MINUS_INF)
    for s, charge in entries:
        first[s] = max(first[s], charge + delta[0, s])
    delta[0] = first
    cand = np.empty(charges.shape)
    best = np.empty(n_states + 1)
    for prev, row in zip(delta, delta[1:]):
        prev.take(pred_ids, out=cand, mode="clip")  # ids are in range; unbuffered
        np.add(cand, charges, out=cand)
        cand.max(axis=0, out=best)
        np.maximum(best, prev, out=best)  # self-loop
        np.add(row, best, out=row)
    return delta


def viterbi_align(posteriors: PosteriorMatrix, graph: PronGraph,
                  log_prior_shift=None) -> tuple[float, tuple[int, ...]]:
    """Best-path alignment of all T frames through the graph.

    Returns (log-score, per-frame phoneme ids). Each state on the winning
    path occupies at least one frame and all frames are consumed. Raises
    AlignmentError when T is smaller than the shortest pronunciation path.
    log_prior_shift (per-phoneme log-priors, optional) is subtracted from
    every frame row before scoring. Ties go to the smallest final state,
    and at each frame to the self-loop, then to the earliest predecessor.
    """
    for ph in graph.phoneme_ids:
        if not (0 <= ph < posteriors.symbols):
            raise ValueError("phoneme id %d outside posterior matrix" % ph)
    if posteriors.frames < graph.min_path_states():
        raise AlignmentError("utterance too short to align")
    delta = _viterbi(graph.phoneme_ids, graph.preds, graph.entries,
                     _emission_rows(posteriors, log_prior_shift))
    state = max(sorted(graph.finals), key=delta[-1].__getitem__)
    score = float(delta[-1, state])
    if score == MINUS_INF:
        raise AlignmentError("utterance too short to align")
    states = [state]
    for prev in delta[-2::-1]:
        s = states[-1]
        best, winner = prev[s], s  # self-loop
        for p, charge in graph.preds[s]:
            if prev[p] + charge > best:
                best, winner = prev[p] + charge, p
        states.append(winner)
    states.reverse()
    return score, tuple(graph.phoneme_ids[s] for s in states)


def am_scores(hypotheses, posteriors: PosteriorMatrix, lexicon: Lexicon,
              vocab: Vocabulary,
              options: AlignOptions = AlignOptions()) -> list[float]:
    """Acoustic log-scores of a list of hypotheses, in list order.

    Each hypothesis is detokenized and checked in list order; one that is
    dangling, empty, holds an OOV word or has fewer frames than its shortest
    pronunciation path follows the OOV policy: strict raises, floor scores
    it frames * floor_log_prob. The others share one word-prefix trie and
    one Viterbi pass, and each scores the best of its finals after the last
    frame: the score viterbi_align gives its own graph, bit for bit.
    """
    trie = _WordTrie(options.silence_phoneme if options.allow_silence else None)
    floor = posteriors.frames * options.floor_log_prob
    finals: list[tuple[int, ...] | None] = []  # None: floored
    for hyp in hypotheses:
        try:
            words = detokenize(hyp.tokens, vocab)
            if not words:
                raise AlignmentError("empty hypothesis")
            node = trie.add(words, [lexicon.pronunciations(w) for w in words])
            if posteriors.frames < trie.shortest[node]:
                raise AlignmentError("utterance too short to align")
        except (OOVError, AlignmentError):
            if options.oov_policy == "floor":
                finals.append(None)
                continue
            raise
        finals.append(trie.frontiers[node])
    if all(ends is None for ends in finals):
        return [floor] * len(finals)
    last = _viterbi(trie.phoneme_ids, trie.preds, trie.entries,
                    _emission_rows(posteriors, options.phoneme_log_priors))[-1]
    return [floor if ends is None else max(last[list(ends)].tolist())
            for ends in finals]
