"""Second-pass acoustic scoring: Viterbi forced alignment of word sequences
against phoneme posteriors through a pronunciation graph.

The graph is a DAG of emitting states, one per phoneme position of each
pronunciation, with optional silence states between words and at both ends.
A state occupies one or more consecutive frames (self-loop); pronunciation
log-priors are charged once, on entering the first phoneme; silence carries
prior log 1. The alignment score is the sum of frame log-posteriors plus the
charged priors, maximized over pronunciation choices and segmentations.

Word templates. A word's states are laid out the same way wherever it
occurs, so _Templates builds one template per lexicon word, once per
scorer: the phonemes of each pronunciation in lexicon order and then the
optional silence state, the internal predecessor edges as (local state,
slot, local predecessor), each pronunciation's first state with the
math.log(prior) charged on entering it, the end states and the shortest
pronunciation's length. A word sequence's states are a chain of trie
nodes, each a (template, parent node, base state); the root node holds
only the optional leading silence state. _layout turns any set of nodes
into flat arrays with NumPy fancy indexing over the templates: a first
state follows every end state of its parent's word, in slot order.
expand_pronunciations is the same layout of one word sequence's chain,
read back into a PronGraph.

The chunk layout. AmScorer scores N-best lists over a word-prefix trie per
list, the tree lexicon of Ney & Ortmanns (IEEE SPM 1999): hypotheses that
share a word prefix share its states, because a state's value depends only
on the states before it. The tries of a chunk of consecutive lists are
laid out one after another behind state 0, a sentinel that stays -inf, in
order of frame count, longest first, so that the states still running at
frame t are a prefix of the state array. A chunk holds lists while its
(longest frames) x (states + 1) pass array stays within CHUNK_CELLS
float64 cells, and at least one list.

One frame step serves both scorers. The predecessors of every state are
packed into K slots, padded with the sentinel at charge 0, and each
frame's values are written over that frame's gathered emission row, so a
pass keeps one frames x states array. A frame is one take of the slots,
an add of their charges, a max over them, a maximum with the self-loop
and an add into the emission row, over the running prefix. Each
hypothesis reads the best of its finals from the row of its list's last
frame. viterbi_align runs the pass over one word sequence's graph (a
chunk of one), picks the best final (the smallest final state among
ties) and backtraces, re-deriving each frame's winner from the stored row
by the scalar rule: the self-loop first, then a strict > over the
predecessors in order.

Both give the scalar frame x state x predecessor recursion's scores and
alignments bit for bit, whatever the chunk. Every state value comes from
the same float64 additions (predecessor + charge, then + emission), and
max does not depend on the order of its operands: posteriors are finite,
so no NaN enters, and no state value is ever -0.0 (each is a sum that
starts from a finite entry charge, and x + y is -0.0 only when both are),
so equal values have equal bits.

Errors keep list order, as if each list were scored alone: each list is
checked before it joins a chunk, and when a list, or the source of the
lists, raises, the lists before it are scored first. A chunk whose pass
raises is scored again one list at a time.
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

# Cells of one chunk's (frames x states) float64 pass array, 2 MiB; see
# AmScorer. Its size is the lever on peak RSS: the demo pipeline's read
# 0.6 MiB more at this size than at 1 << 17, while long_rescore, whose
# chunks hold only 1-4 lists, rescored 27% faster.
CHUNK_CELLS = 1 << 18


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


def _flat(parts, dtype=np.intp):
    """(items, offsets) of a list of lists: part w is
    items[offsets[w]:offsets[w + 1]]."""
    return (np.array([x for part in parts for x in part], dtype),
            np.cumsum([0] + [len(part) for part in parts]))


def _rows(offsets, tmpl):
    """(rows, owner): the rows offsets[w] .. offsets[w + 1] - 1 of each w of
    tmpl, one after another, and the index into tmpl of each row's w."""
    counts = offsets[tmpl + 1] - offsets[tmpl]
    owner = np.repeat(np.arange(len(tmpl)), counts)
    return np.arange(len(owner)) + (offsets[tmpl] - counts.cumsum() + counts)[owner], owner


def _word_template(prons, silence: int | None):
    """(states, edges, heads, ends, shortest) of one word's template: the
    phoneme of each state, each pronunciation's phonemes in lexicon order
    and then the optional silence state; the internal edges, each a (local
    state, slot, local predecessor) at charge 0: a phoneme follows the one
    before it, and the silence state follows every pronunciation's last
    phoneme; each pronunciation's first state with the log-prior charged on
    entering it; the end states in slot order; the length of the shortest
    pronunciation."""
    states, edges, heads, ends = [], [], [], []
    for pron, prior in prons:
        heads.append((len(states), math.log(prior)))
        edges += [(s, 0, s - 1) for s in range(len(states) + 1, len(states) + len(pron))]
        states += pron
        ends.append(len(states) - 1)
    if silence is not None:
        edges += [(len(states), j, e) for j, e in enumerate(ends)]
        ends.append(len(states))
        states.append(silence)
    return states, edges, heads, ends, min(len(pron) for pron, _ in prons)


class _Templates:
    """The _word_template of every word of a lexicon, in flat arrays;
    template 0 is the root's, the optional leading silence state alone.

    Template w's states emit phones[at[w]:at[w + 1]], its internal edges
    are the rows edge_at[w]:edge_at[w + 1] of edges, and its first states
    the rows head_at[w]:head_at[w + 1] of head_state, charged head_charge.
    ends[w] lists its end states, padded with -1; size[w] is its state
    count and shortest[w] its shortest pronunciation's length. index maps a
    word to its template.
    """

    def __init__(self, lexicon: Lexicon, silence: int | None) -> None:
        self.lexicon = lexicon
        self.index = {}
        root = [] if silence is None else [silence]
        templates = [(root, [], [], list(range(len(root))), 0)]
        for word, prons in lexicon.entries.items():
            self.index[word] = len(templates)
            templates.append(_word_template(prons, silence))
        states, edges, heads, tails, self.shortest = zip(*templates)
        self.size = [len(part) for part in states]
        self.phones, self.at = _flat(states)
        self.edges, self.edge_at = _flat(edges)
        self.edges = self.edges.reshape(-1, 3)
        self.head_state, self.head_at = _flat([[s for s, _ in part] for part in heads])
        self.head_charge = _flat([[c for _, c in part] for part in heads], float)[0]
        self.ends = np.full((len(tails), max(map(len, tails))), -1, np.intp)
        for row, part in zip(self.ends, tails):
            row[:len(part)] = part
        self.phone_range = (self.phones.min(initial=0), self.phones.max(initial=0))

    def ids(self, words) -> list[int]:
        """The templates of words; an OOV word raises the lexicon's OOVError."""
        try:
            return [self.index[w] for w in words]
        except KeyError as exc:
            self.lexicon.pronunciations(exc.args[0])  # raises OOVError
            raise


class _Trie:
    """Word-prefix trie nodes of one list: template, parent node and base
    state (from 0) of each, node 0 the root; shortest[node] is the number of
    states on its shortest path from the start, states the total."""

    def __init__(self, templates: _Templates) -> None:
        self.templates = templates
        self.tmpl, self.parent, self.base = [0], [0], [0]
        self.shortest = [0]
        self.states = templates.size[0]
        self._children: dict[tuple[int, int], int] = {}

    def add(self, ids) -> int:
        """The node of a word sequence given by its templates, adding the
        nodes its prefixes lack."""
        node = 0
        for w in ids:
            child = self._children.get((node, w))
            if child is None:
                child = self._children[node, w] = len(self.tmpl)
                self.tmpl.append(w)
                self.parent.append(node)
                self.base.append(self.states)
                self.states += self.templates.size[w]
                self.shortest.append(self.shortest[node] + self.templates.shortest[w])
            node = child
        return node


def _layout(templates: _Templates, tmpl, parent, base):
    """(phones, pred_ids, charges, entry) of the nodes (template, parent
    node, base state from 1) laid out one after another behind the
    sentinel, state 0; entry holds each state's entry charge, -inf for one
    that cannot start an utterance."""
    tp = templates
    tmpl, parent, base = (np.asarray(a, np.intp) for a in (tmpl, parent, base))
    phones = np.append(0, tp.phones[_rows(tp.at, tmpl)[0]])
    rows, node = _rows(tp.edge_at, tmpl)
    state, slot, pred = tp.edges[rows].T
    # Entering a word: each first state follows every end of the parent's
    # word, charged its log-prior; below the root it is also an entry.
    heads, node_of_head = _rows(tp.head_at, tmpl)
    first = base[node_of_head] + tp.head_state[heads]
    up = parent[node_of_head]
    ends = tp.ends[tmpl[up]]
    i, j = (ends >= 0).nonzero()
    pred_ids, charges = _pack(
        len(phones), np.append(base[node] + state, first[i]), np.append(slot, j),
        np.append(base[node] + pred, base[up[i]] + ends[i, j]),
        np.append(np.zeros(len(rows)), tp.head_charge[heads[i]]))
    entry = np.full(len(phones), MINUS_INF)
    below_root = tmpl[up] == 0
    entry[first[below_root]] = tp.head_charge[heads[below_root]]
    if tp.size[0]:
        entry[base[tmpl == 0]] = 0.0  # the leading silence state
    return phones, pred_ids, charges, entry


def _pack(n, state, slot, pred, charge):
    """(pred_ids, charges): K x n slot arrays of the edges (state, slot,
    predecessor, charge), K the largest slot + 1 and at least 1; an empty
    slot holds the sentinel, state 0, at charge 0."""
    k = int(slot.max()) + 1 if len(slot) else 1
    pred_ids = np.zeros((k, n), np.intp)
    charges = np.zeros((k, n))
    pred_ids[slot, state] = pred
    charges[slot, state] = charge
    return pred_ids, charges


def _prior_shift(log_prior_shift, symbols: int):
    """The per-phoneme log-priors as float64, or None; checks the length."""
    if log_prior_shift is None:
        return None
    shift = np.array(list(log_prior_shift), float)
    if len(shift) != symbols:
        raise ValueError("log_prior_shift length mismatch")
    return shift


def _emissions(matrices, sizes, phones, shift) -> np.ndarray:
    """The (longest frames x states) float64 emission array of lists laid
    out one after another behind the sentinel: matrices[i] emits for the
    next sizes[i] states from its own rows and columns, and state s reads
    column phones[s] less shift. The rows past a list's last frame are left
    unset: the pass never reads them."""
    delta = np.empty((max(m.frames for m in matrices), len(phones)))
    delta[:, 0] = 0.0  # the sentinel's
    stop = 1
    for m, size in zip(matrices, sizes):
        start, stop = stop, stop + size
        block, own = delta[:m.frames, start:stop], phones[start:stop]
        block[...] = m.values[:, own]
        if shift is not None:
            block -= shift[own]
    return delta


def _viterbi(delta, pred_ids, charges, entry, running) -> None:
    """Run the Viterbi recursion in place over the emission rows delta:
    after it, delta[t, s] is state s's value after frame t, for the
    running[t] states of the prefix still running at frame t."""
    np.add(entry, delta[0], out=delta[0])
    n = None
    for t in range(1, len(delta)):
        if running[t] != n:  # a list has ended: slice the prefix once
            n = running[t]
            ids, chg = pred_ids[:, :n].copy(), charges[:, :n].copy()
            cand, best = np.empty(ids.shape), np.empty(n)
        prev, row = delta[t - 1], delta[t, :n]
        prev.take(ids, out=cand, mode="clip")  # ids are in range; unbuffered
        np.add(cand, chg, out=cand)
        np.maximum.reduce(cand, axis=0, out=best)
        np.maximum(best, prev[:n], out=best)  # self-loop
        np.add(row, best, out=row)


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
    silence = silence_phoneme if allow_silence else None
    # The words' own lexicon; the first OOV word raises.
    own = Lexicon({w: lexicon.pronunciations(w) for w in words})
    templates = _Templates(own, silence)
    trie = _Trie(templates)
    node = trie.add(templates.ids(words))
    phones, pred_ids, charges, entry = _layout(
        templates, trie.tmpl, trie.parent, np.add(trie.base, 1))
    # Layout state s + 1 is state s of the graph; state 0 is the sentinel,
    # which fills a state's unused slots.
    preds = tuple(tuple((p - 1, c) for p, c in zip(ps, cs) if p)
                  for ps, cs in zip(pred_ids.T[1:].tolist(), charges.T[1:].tolist()))
    entries = tuple((s, c) for s, c in enumerate(entry[1:].tolist()) if c != MINUS_INF)
    ends = templates.ends[trie.tmpl[node]]
    return PronGraph(tuple(phones[1:].tolist()), preds, entries,
                     frozenset((trie.base[node] + ends[ends >= 0]).tolist()))


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
    shift = _prior_shift(log_prior_shift, posteriors.symbols)
    n = len(graph.phoneme_ids) + 1  # state s of the graph is state s + 1
    edges = np.array([(s, j, p, c) for s, preds in enumerate(graph.preds, 1)
                      for j, (p, c) in enumerate(preds)], float).reshape(-1, 4)
    state, slot, pred = edges[:, :3].T.astype(np.intp)
    pred_ids, charges = _pack(n, state, slot, pred + 1, edges[:, 3])
    entry = np.full(n, MINUS_INF)
    for s, charge in graph.entries:
        entry[s + 1] = max(entry[s + 1], charge)
    phones = np.array([0, *graph.phoneme_ids], np.intp)
    delta = _emissions([posteriors], [n - 1], phones, shift)
    _viterbi(delta, pred_ids, charges, entry, [n] * posteriors.frames)
    delta = delta[:, 1:]
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


@dataclass
class _List:
    """One checked N-best list: its posteriors, trie, the trie node of each
    hypothesis (None: floored), the floor score and the trie states the
    pass runs; when every hypothesis floors, no posteriors and no states."""

    posteriors: PosteriorMatrix | None
    trie: _Trie
    nodes: list
    floor: float
    states: int


class AmScorer:
    """Acoustic log-scores of N-best lists, a chunk of lists per Viterbi pass.

    The word templates of the lexicon are built once, when the scorer is;
    silence and the OOV policy come from options. Each hypothesis is
    detokenized and checked in list order; one that is dangling, empty,
    holds an OOV word or has fewer frames than its shortest pronunciation
    path follows the OOV policy: strict raises, floor scores it frames *
    floor_log_prob. Each other scores the best of its finals after its
    list's last frame: the score viterbi_align gives its own graph, bit for
    bit.
    """

    def __init__(self, lexicon: Lexicon, vocab: Vocabulary,
                 options: AlignOptions = AlignOptions()) -> None:
        self.vocab = vocab
        self.options = options
        self.templates = _Templates(
            lexicon, options.silence_phoneme if options.allow_silence else None)

    def scores(self, lists):
        """Yield the scores of each (hypotheses, posteriors) pair of lists,
        in order: a list of floats per list, in hypothesis order.

        The lists are read one at a time and scored in chunks of
        consecutive lists whose pass array holds at most CHUNK_CELLS
        cells. When a list fails its checks, or reading the next list
        raises, the lists before it are yielded first.
        """
        chunk, longest, states = [], 0, 0
        lists = iter(lists)
        while True:
            try:
                pair = next(lists, None)
                if pair is None:
                    break
                item = self._check(*pair)
            except Exception:
                yield from self._run(chunk)  # the lists before the fault first
                raise
            if item.states:
                frames = max(longest, item.posteriors.frames)
                if chunk and frames * (1 + states + item.states) > CHUNK_CELLS:
                    yield from self._run(chunk)
                    chunk, frames, states = [], item.posteriors.frames, 0
                longest, states = frames, states + item.states
            chunk.append(item)
        yield from self._run(chunk)

    def _check(self, hypotheses, posteriors: PosteriorMatrix) -> _List:
        """A list's trie after its checks, in list order: each hypothesis is
        detokenized and one that is dangling, empty, holds an OOV word or
        has fewer frames than its shortest path follows the OOV policy;
        then, if any is scored, the prior shift and the phoneme ids."""
        options = self.options
        trie = _Trie(self.templates)
        nodes = []
        for hyp in hypotheses:
            try:
                words = detokenize(hyp.tokens, self.vocab)
                if not words:
                    raise AlignmentError("empty hypothesis")
                node = trie.add(self.templates.ids(words))
                if posteriors.frames < trie.shortest[node]:
                    raise AlignmentError("utterance too short to align")
            except (OOVError, AlignmentError):
                if options.oov_policy == "floor":
                    nodes.append(None)
                    continue
                raise
            nodes.append(node)
        scored = any(node is not None for node in nodes)
        if scored:
            _prior_shift(options.phoneme_log_priors, posteriors.symbols)
            tp = self.templates
            if not 0 <= tp.phone_range[0] <= tp.phone_range[1] < posteriors.symbols:
                phones = tp.phones[_rows(tp.at, np.array(trie.tmpl))[0]]
                outside = (phones < 0) | (phones >= posteriors.symbols)
                if outside.any():
                    raise ValueError(
                        "phoneme id %d outside posterior matrix" % phones[outside.argmax()])
        # A list whose every hypothesis floors keeps only its floor.
        return _List(posteriors if scored else None, trie, nodes,
                     posteriors.frames * options.floor_log_prob, trie.states if scored else 0)

    def _run(self, chunk):
        """Yield the scores of each checked list of a chunk; a chunk whose
        pass raises is scored again one list at a time."""
        try:
            scores = self._score_chunk(chunk)
        except Exception:
            for item in chunk:
                yield from self._score_chunk([item])  # the first to fail raises
            raise  # none fails alone: the fault is the chunk's
        yield from scores

    def _score_chunk(self, chunk) -> list[list[float]]:
        """The scores of each checked list of a chunk, from one pass over
        the tries of the lists with a scored hypothesis."""
        live = sorted((item for item in chunk if item.states),
                      key=lambda item: -item.posteriors.frames)
        scores = {id(item): [item.floor] * len(item.nodes) for item in chunk}
        if not live:
            return list(scores.values())
        tmpl, parent, base, first_node, first_state = [], [], [], [0], [1]
        for item in live:
            tmpl += item.trie.tmpl
            parent += item.trie.parent
            base += item.trie.base
            first_node.append(first_node[-1] + len(item.trie.tmpl))
            first_state.append(first_state[-1] + item.trie.states)
        node_counts = np.diff(first_node)
        tmpl = np.array(tmpl)
        parent = np.add(parent, np.repeat(first_node[:-1], node_counts))
        base = np.add(base, np.repeat(first_state[:-1], node_counts))
        phones, pred_ids, charges, entry = _layout(self.templates, tmpl, parent, base)
        sizes = np.diff(first_state)
        frames = np.array([item.posteriors.frames for item in live])
        delta = _emissions([item.posteriors for item in live], sizes, phones, _prior_shift(
            self.options.phoneme_log_priors, live[0].posteriors.symbols))
        still = (frames > np.arange(frames[0])[:, None]).sum(axis=1)
        _viterbi(delta, pred_ids, charges, entry, np.array(first_state)[still])
        # Each scored hypothesis: the best of its node's ends, read from the
        # row of its list's last frame (padding reads the -inf sentinel).
        nodes, rows = [], []
        for k, item in enumerate(live):
            scored = [first_node[k] + node for node in item.nodes if node is not None]
            nodes += scored
            rows += [item.posteriors.frames - 1] * len(scored)
        ends = self.templates.ends[tmpl[nodes]]
        ends = np.where(ends >= 0, base[nodes, None] + ends, 0)
        flat = np.multiply(rows, delta.shape[1])[:, None] + ends
        best = iter(delta.ravel().take(flat).max(axis=1).tolist())
        for item in live:
            scores[id(item)] = [item.floor if node is None else next(best)
                                for node in item.nodes]
        return list(scores.values())

