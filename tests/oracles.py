"""Reference implementations that only tests use.

ctc_label_prob is the exact CTC forward sum that the decoder tests and
acceptance checks 02-03 compare the beam search against; tune_weights is
the one-call form of grid search plus weight selection.
"""
from twopass.core import MINUS_INF, AlignmentError, PosteriorMatrix, log_add
from twopass.fusion import grid_search, select_weights


def ctc_label_prob(posteriors: PosteriorMatrix, labels) -> float:
    """Exact log P(labels | posteriors): forward sum over all alignments.

    labels are non-blank token ids; raises AlignmentError when the sequence
    (plus blanks forced between repeats) cannot fit in the frame count.
    """
    labels = tuple(labels)
    t_frames = posteriors.frames
    n_symbols = posteriors.symbols
    for lab in labels:
        if lab == 0:
            raise ValueError("labels must not contain blank")
        if not (0 < lab < n_symbols):
            raise ValueError("label id %d out of range" % lab)
    repeats = sum(1 for a, b in zip(labels, labels[1:]) if a == b)
    if len(labels) + repeats > t_frames:
        raise AlignmentError("sequence too long to align")
    values = posteriors.values
    if not labels:
        return float(values[:, 0].astype(float).sum())
    # Expanded state sequence: blank, l1, blank, l2, ..., blank.
    expanded = [0]
    for lab in labels:
        expanded.extend((lab, 0))
    n_states = len(expanded)
    row = values[0].astype(float).tolist()
    alpha = [MINUS_INF] * n_states
    alpha[0] = row[0]
    alpha[1] = row[expanded[1]]
    for t in range(1, t_frames):
        row = values[t].astype(float).tolist()
        nxt = [MINUS_INF] * n_states
        for s in range(n_states):
            best = alpha[s]
            if s >= 1:
                best = log_add(best, alpha[s - 1])
            if s >= 2 and expanded[s] != 0 and expanded[s] != expanded[s - 2]:
                best = log_add(best, alpha[s - 2])
            if best != MINUS_INF:
                nxt[s] = best + row[expanded[s]]
        alpha = nxt
    return log_add(alpha[-1], alpha[-2])


def tune_weights(dev, grid, vocab):
    """(best weights, best corpus WER) of grid_search, by select_weights."""
    return select_weights(grid_search(dev, grid, vocab))
