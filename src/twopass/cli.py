"""Command-line front end: synth | decode | rescore | tune | score | buckets.

Exit codes: 0 success, 1 usage error, 2 data error. Results go to stdout or
the requested output files; the effective configuration and progress notes
are logged to stderr. An optional "key = value" config file may give any
flag, required ones included: its lines become flags placed before the
command line's, so argparse checks them and flags on the command line take
precedence. Usage is settled before any input file is read.
Utterance-level parallelism is available through --jobs (default 1);
outputs are order-stable regardless of the worker count.
"""
from __future__ import annotations

import argparse
import dataclasses
import logging
import multiprocessing
import os
import sys

from . import core, fusion, metrics, synth
from .aligner import AlignOptions
from .decoder import BeamConfig, batch_size, decode_batch
from .core import FormatError, FusionWeights, ToolkitError
from .ngram import load_arpa, train_add_one, write_arpa

log = logging.getLogger("twopass")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises _UsageError on bad usage; keeps its actions by dest, the keys
    of a config file."""

    def __init__(self, *args, **kwargs):
        self.actions_by_dest: dict[str, argparse.Action] = {}
        super().__init__(*args, **kwargs)

    def _add_action(self, action):  # argparse hook; groups add through it too
        self.actions_by_dest[action.dest] = action
        return super()._add_action(action)

    def error(self, message):  # noqa: A003 - argparse API
        raise _UsageError("%s: %s" % (self.prog, message))


def _float_list(text: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated floats") from None
    if not values:
        raise argparse.ArgumentTypeError("expected at least one float")
    return values


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


# SynthConfig field -> its flag, or the (lo, hi) flags of a range field.
_SYNTH_FLAGS = {
    "seed": "--seed",
    "vocab_size": "--vocab-size",
    "phoneme_count": "--phonemes",
    "zipf_exponent": "--zipf",
    "train_utts": "--train-utts",
    "dev_utts": "--dev-utts",
    "test_utts": "--test-utts",
    "len_range": ("--min-len", "--max-len"),
    "frames_per_symbol": ("--frames-min", "--frames-max"),
    "blank_prob": "--blank-prob",
    "silence_prob": "--silence-prob",
    "alpha": "--alpha",
    "delta": "--delta",
    "rare_quantile": "--rare-quantile",
    "pron_len_range": ("--pron-min", "--pron-max"),
    "second_pron_prob": "--second-pron-prob",
    "confusion_share": ("--confusion-lo", "--confusion-hi"),
    "ngram_order": "--ngram-order",
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _synth_config(args) -> synth.SynthConfig:
    values = {}
    for name, flags in _SYNTH_FLAGS.items():
        if isinstance(flags, tuple):
            values[name] = tuple(getattr(args, _dest(f)) for f in flags)
        else:
            values[name] = getattr(args, _dest(flags))
    return synth.SynthConfig(**values)


def _build_parsers() -> tuple[_Parser, dict[str, _Parser]]:
    top = _Parser(prog="twopass", description=__doc__)
    sub = top.add_subparsers(dest="command", metavar="command", required=True)
    parsers: dict[str, _Parser] = {}

    p = parsers["synth"] = sub.add_parser(
        "synth", help="generate a synthetic corpus with posterior matrices")
    p.add_argument("--config", help="key = value defaults file")
    p.add_argument("--out-dir", required=True)
    for field in dataclasses.fields(synth.SynthConfig):
        flags = _SYNTH_FLAGS[field.name]
        if field.default is dataclasses.MISSING:
            p.add_argument(flags, type=int, required=True)
        elif isinstance(flags, tuple):
            for flag, default in zip(flags, field.default):
                p.add_argument(flag, type=type(default), default=default)
        else:
            p.add_argument(flags, type=type(field.default), default=field.default)

    p = parsers["decode"] = sub.add_parser(
        "decode", help="first-pass CTC prefix beam search")
    p.add_argument("--config")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--posteriors", help="single FPM1 file")
    source.add_argument("--list", dest="list_file", help="utt_id TAB fpm-path manifest")
    p.add_argument("--utt-id", help="utterance id for --posteriors (default: file stem)")
    p.add_argument("--vocab", required=True)
    p.add_argument("--beam", type=_positive_int, default=8)
    p.add_argument("--nbest", type=_positive_int, default=None,
                   help="hypotheses to keep (default min(10, beam))")
    p.add_argument("--lm", help="external LM in ARPA format")
    p.add_argument("--ilm", help="internal LM estimate in ARPA format")
    p.add_argument("--lambda-lm", type=float, default=0.0)
    p.add_argument("--lambda-ilm", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=_positive_int, default=1)

    p = parsers["rescore"] = sub.add_parser(
        "rescore", help="second-pass alignment scoring and re-ranking")
    p.add_argument("--config")
    p.add_argument("--nbest", required=True)
    p.add_argument("--vocab", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--phoneme-posteriors", help="single FPM1 file")
    source.add_argument("--list", dest="list_file", help="utt_id TAB fpm-path manifest")
    p.add_argument("--phoneme-vocab", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--lambda-am", type=float, default=0.0)
    p.add_argument("--lambda-lm", type=float, default=0.0)
    p.add_argument("--lambda-ilm", type=float, default=0.0)
    p.add_argument("--word-lm", help="ARPA word LM replacing the lm component")
    p.add_argument("--allow-silence", action="store_true")
    p.add_argument("--silence", default=synth.SILENCE,
                   help="silence phoneme symbol (with --allow-silence)")
    p.add_argument("--oov", choices=("strict", "floor"), default="strict")
    p.add_argument("--floor-logp", type=float,
                   default=AlignOptions().floor_log_prob)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=_positive_int, default=1)

    p = parsers["tune"] = sub.add_parser(
        "tune", help="grid-search fusion weights on a scored dev N-best")
    p.add_argument("--config")
    p.add_argument("--nbest", required=True, help="dev N-best with am scores")
    p.add_argument("--ref", required=True, help="dev reference transcripts")
    p.add_argument("--vocab", required=True)
    p.add_argument("--grid-am", type=_float_list, default=None)
    p.add_argument("--grid-lm", type=_float_list, default=None)
    p.add_argument("--grid-ilm", type=_float_list, default=None)
    p.add_argument("--report", help="per-point TSV report path")

    p = parsers["score"] = sub.add_parser(
        "score", help="corpus WER of hypotheses against references")
    p.add_argument("--config")
    p.add_argument("--ref", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--hyp", help="hypothesis transcript TSV")
    source.add_argument("--nbest", help="N-best file; top-1 scored, oracle printed")
    p.add_argument("--vocab", help="wordpiece vocabulary (with --nbest)")
    p.add_argument("--report", help="per-utterance TSV report path")

    p = parsers["buckets"] = sub.add_parser(
        "buckets", help="perplexity-bucketed WER comparison")
    p.add_argument("--config")
    p.add_argument("--ref", required=True)
    p.add_argument("--baseline-nbest", required=True)
    p.add_argument("--fused-nbest", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--lm", required=True, help="bucketing LM in ARPA format")
    p.add_argument("--k", type=_positive_int, default=5)
    p.add_argument("--report", required=True)
    return top, parsers


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, line in core.read_lines(path):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError("%s: line %d: expected key = value" % (path, lineno))
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _config_argv(argv: list[str], parsers: dict[str, _Parser]) -> list[str]:
    """argv with its --config file's values put in as flags right after the
    command, so that argparse checks them and later flags win."""
    if not argv or argv[0] not in parsers:
        return argv
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv[1:])[0].config
    if path is None:
        return argv
    flags = []
    for key, raw in _read_config_file(path).items():
        action = parsers[argv[0]].actions_by_dest.get(key)
        if action is None or key in ("help", "config"):
            raise _UsageError("unknown config key: %s" % key)
        if action.nargs == 0:
            if raw.lower() not in ("true", "false", "0", "1"):
                raise _UsageError("config key %s expects true/false" % key)
            if raw.lower() in ("true", "1"):
                flags.append(action.option_strings[0])
        else:
            flags.append("%s=%s" % (action.option_strings[0], raw))
    return [argv[0], *flags, *argv[1:]]


def _by_id(table: dict, utt: str, what: str):
    """table[utt]; an utterance missing from an input file is a data fault."""
    if utt not in table:
        raise FormatError("no %s for %s" % (what, utt))
    return table[utt]


def _log_effective(args: argparse.Namespace) -> None:
    pairs = sorted(
        (k, v) for k, v in vars(args).items() if k not in ("command",))
    log.info("effective config: %s",
             " ".join("%s=%s" % (k, v) for k, v in pairs))


# --- synth ---------------------------------------------------------------

def _cmd_synth(args) -> int:
    config = _synth_config(args)
    corpus = synth.gen_corpus(config)
    out = args.out_dir
    os.makedirs(out, exist_ok=True)
    post_dir = os.path.join(out, "posteriors")
    os.makedirs(post_dir, exist_ok=True)
    for split in ("train", "dev", "test"):
        core.write_transcripts(corpus.split(split), os.path.join(out, "%s.tsv" % split))
    core.write_lines(os.path.join(out, "lexicon.tsv"), corpus.lexicon_lines)
    core.save_vocabulary(corpus.wordpiece_vocab, os.path.join(out, "wordpieces.txt"))
    core.save_vocabulary(corpus.phoneme_vocab, os.path.join(out, "phonemes.txt"))
    if corpus.train:
        piece_sents = [
            [core.WORD_BOUNDARY + w for w in words] for _, words in corpus.train]
        piece_vocab = [s for s in corpus.wordpiece_vocab.symbols if s != core.BLANK]
        write_arpa(
            train_add_one(piece_sents, config.ngram_order, vocabulary=piece_vocab),
            os.path.join(out, "wordpiece_lm.arpa"))
        word_sents = [list(words) for _, words in corpus.train]
        word_vocab = [w[len(core.WORD_BOUNDARY):] for w in piece_vocab]
        write_arpa(
            train_add_one(word_sents, config.ngram_order, vocabulary=word_vocab),
            os.path.join(out, "word_lm.arpa"))
    else:
        log.info("no training utterances; skipping LM files")
    for split in ("dev", "test"):
        utts = corpus.split(split)
        for mode, tag in (("e2e", "e2e"), ("phoneme", "phoneme")):
            entries = []
            for index, (utt, words) in enumerate(utts):
                matrix = synth.gen_posteriors(
                    words, config, corpus, mode, split, index)
                path = os.path.join(post_dir, "%s.%s.fpm" % (utt, tag))
                core.write_posteriors(matrix, path)
                entries.append((utt, path))
            core.write_manifest(
                entries, os.path.join(out, "%s_%s.list" % (split, tag)))
    log.info("synth wrote %d train / %d dev / %d test utterances to %s",
             len(corpus.train), len(corpus.dev), len(corpus.test), out)
    return 0


# --- decode --------------------------------------------------------------

_WORKER_STATE: dict = {}


def _install_state(state: dict) -> None:
    _WORKER_STATE.clear()
    _WORKER_STATE.update(state)


def _decode_task(chunk):
    """N-best lists of a chunk of (utterance, path) pairs, in list order. When
    a file fails to load, the utterances before it are decoded first, so an
    earlier utterance's error is the one raised."""
    vocab, config = _WORKER_STATE["vocab"], _WORKER_STATE["config"]
    utts = [utt for utt, _ in chunk]
    matrices = []
    try:
        for _, path in chunk:
            matrices.append(core.load_posteriors(path, vocab))
    except (ToolkitError, OSError, ValueError):
        decode_batch(matrices, config, utts)
        raise
    return decode_batch(matrices, config, utts)


def _run_pool(tasks, worker, state, jobs, chunksize=8):
    """worker over tasks in order, with state installed in every process."""
    if jobs <= 1:
        _install_state(state)
        return [worker(task) for task in tasks]
    with multiprocessing.Pool(jobs, initializer=_install_state, initargs=(state,)) as pool:
        return list(pool.imap(worker, tasks, chunksize=chunksize))


def _cmd_decode(args) -> int:
    if args.utt_id is not None and args.posteriors is None:
        raise _UsageError("decode: --utt-id needs --posteriors")
    if args.lambda_lm > 0.0 and args.lm is None:
        raise _UsageError("decode: --lambda-lm > 0 needs --lm")
    if args.lambda_ilm > 0.0 and args.ilm is None:
        raise _UsageError("decode: --lambda-ilm > 0 needs --ilm")
    weights = FusionWeights(0.0, args.lambda_lm, args.lambda_ilm)
    beam = BeamConfig(beam_width=args.beam, n_best=args.nbest)
    vocab = core.load_vocabulary(args.vocab)
    lm = load_arpa(args.lm) if args.lm else None
    ilm = load_arpa(args.ilm) if args.ilm else None
    config = dataclasses.replace(beam, weights=weights, lm=lm, ilm=ilm)
    if args.list_file is not None:
        tasks = core.load_manifest(args.list_file)
    else:
        utt = args.utt_id
        if utt is None:
            utt = os.path.splitext(os.path.basename(args.posteriors))[0]
        tasks = [(utt, args.posteriors)]
    size = batch_size(config, len(vocab))
    chunks = [tasks[i:i + size] for i in range(0, len(tasks), size)]
    try:
        decoded = _run_pool(
            chunks, _decode_task, {"vocab": vocab, "config": config}, args.jobs, 1)
    except OverflowError as exc:
        path = args.lm if str(exc).startswith("external") else args.ilm
        raise FormatError("%s: %s" % (path, exc)) from None
    results = [nbest for chunk in decoded for nbest in chunk]
    core.write_nbest(results, vocab, args.out)
    log.info("decoded %d utterances -> %s", len(results), args.out)
    return 0


# --- rescore -------------------------------------------------------------

def _rescore_task(task):
    nbest, path = task
    matrix = core.load_posteriors(path, _WORKER_STATE["ph_vocab"])
    return fusion.rescore_nbest(
        nbest, matrix, _WORKER_STATE["lexicon"], _WORKER_STATE["vocab"],
        _WORKER_STATE["weights"], _WORKER_STATE["options"])


def _cmd_rescore(args) -> int:
    weights = FusionWeights(args.lambda_am, args.lambda_lm, args.lambda_ilm)
    options = AlignOptions(oov_policy=args.oov, floor_log_prob=args.floor_logp)
    vocab = core.load_vocabulary(args.vocab)
    ph_vocab = core.load_vocabulary(args.phoneme_vocab)
    lexicon = core.load_lexicon(args.lexicon, ph_vocab)
    nbest_lists = core.load_nbest(args.nbest, vocab)
    if args.phoneme_posteriors is not None:
        if len(nbest_lists) != 1:
            raise FormatError(
                "%s: %d N-best lists, but --phoneme-posteriors takes one "
                "utterance; use --list" % (args.nbest, len(nbest_lists)))
        paths = {nbest_lists[0].utterance_id: args.phoneme_posteriors}
    else:
        paths = dict(core.load_manifest(args.list_file))
    if args.allow_silence:
        options = dataclasses.replace(
            options, allow_silence=True, silence_phoneme=ph_vocab.id_of(args.silence))
    if args.word_lm:
        word_lm = load_arpa(args.word_lm)
        try:
            nbest_lists = [
                fusion.score_with_word_lm(nb, word_lm, vocab) for nb in nbest_lists]
        except OverflowError as exc:
            raise FormatError("%s: %s" % (args.word_lm, exc)) from None
    tasks = [(nb, _by_id(paths, nb.utterance_id, "phoneme posteriors listed"))
             for nb in nbest_lists]
    results = _run_pool(tasks, _rescore_task, {
        "ph_vocab": ph_vocab, "lexicon": lexicon, "vocab": vocab,
        "weights": weights, "options": options}, args.jobs)
    core.write_nbest(results, vocab, args.out)
    log.info("rescored %d utterances -> %s", len(results), args.out)
    return 0


# --- tune ----------------------------------------------------------------

def _load_references(path) -> list[tuple[str, tuple[str, ...]]]:
    """Reference transcripts in file order; an empty one, or none, is a data
    fault."""
    refs = core.load_transcripts(path)
    if not refs:
        raise FormatError("%s: no references" % path)
    for utt, words in refs:
        if not words:
            raise FormatError("%s: empty reference for %s" % (path, utt))
    return refs


def _cmd_tune(args) -> int:
    if args.grid_am is None and args.grid_lm is None and args.grid_ilm is None:
        grid = fusion.default_weight_grid()
    else:
        grid = [
            FusionWeights(a, l, i)
            for a in (args.grid_am or [0.0])
            for l in (args.grid_lm or [0.0])
            for i in (args.grid_ilm or [0.0])]
    vocab = core.load_vocabulary(args.vocab)
    nbest_lists = core.load_nbest(args.nbest, vocab)
    if not nbest_lists:
        raise FormatError("%s: no N-best lists" % args.nbest)
    refs = dict(_load_references(args.ref))
    dev = [(nb, _by_id(refs, nb.utterance_id, "reference")) for nb in nbest_lists]
    if any(w.lambda_am != 0.0 for w in grid) and any(
            h.scores.am is None for nb in nbest_lists for h in nb.hypotheses):
        raise FormatError(
            "%s: hypotheses lack am scores (rescore the list first)" % args.nbest)
    results = fusion.grid_search(dev, grid, vocab)
    if args.report:
        core.write_lines(args.report, (
            "%s\t%s\t%s\t%.6f" % (w.lambda_am, w.lambda_lm, w.lambda_ilm, dev_wer)
            for w, dev_wer in results))
    best, best_wer = fusion.select_weights(results)
    print("selected lambda_am=%.3f lambda_lm=%.3f lambda_ilm=%.3f dev_wer=%.6f"
          % (best.lambda_am, best.lambda_lm, best.lambda_ilm, best_wer))
    return 0


# --- score ---------------------------------------------------------------

def _cmd_score(args) -> int:
    if args.nbest is not None and args.vocab is None:
        raise _UsageError("--nbest requires --vocab")
    refs = _load_references(args.ref)
    rows = []
    oracle_total = None
    if args.hyp is not None:
        hyps = dict(core.load_transcripts(args.hyp))
        rows = [(utt, metrics.wer(ref, _by_id(hyps, utt, "hypothesis")))
                for utt, ref in refs]
    else:
        vocab = core.load_vocabulary(args.vocab)
        lists = {nb.utterance_id: nb for nb in core.load_nbest(args.nbest, vocab)}
        oracle_total = metrics.ErrorCounts()
        for utt, ref in refs:
            nb = _by_id(lists, utt, "hypotheses")
            top_words = core.detokenize(nb.top().tokens, vocab)
            rows.append((utt, metrics.wer(ref, top_words)))
            oracle_total = oracle_total + metrics.oracle_wer(nb, ref, vocab)
    total = metrics.ErrorCounts()
    for _, counts in rows:
        total = total + counts
    if args.report:
        core.write_lines(args.report, (
            "%s\t%d\t%d\t%d\t%d\t%.4f" % (
                utt, c.substitutions, c.deletions, c.insertions, c.ref_length, c.wer)
            for utt, c in rows))
    print("corpus WER %.4f" % total.wer)
    if oracle_total is not None:
        print("oracle WER %.4f" % oracle_total.wer)
    return 0


# --- buckets -------------------------------------------------------------

def _cmd_buckets(args) -> int:
    vocab = core.load_vocabulary(args.vocab)
    refs = _load_references(args.ref)
    if len(refs) < args.k:
        raise FormatError("%s: %d references, fewer than --k %d buckets"
                          % (args.ref, len(refs), args.k))
    base = {nb.utterance_id: nb
            for nb in core.load_nbest(args.baseline_nbest, vocab)}
    fused = {nb.utterance_id: nb
             for nb in core.load_nbest(args.fused_nbest, vocab)}
    bucket_lm = load_arpa(args.lm)
    corpus = []
    for utt, ref in refs:
        base_top = _by_id(base, utt, "hypotheses").top().tokens
        fused_top = _by_id(fused, utt, "hypotheses").top().tokens
        corpus.append((ref, core.detokenize(base_top, vocab),
                       core.detokenize(fused_top, vocab)))
    try:
        stats = metrics.ppl_buckets(corpus, bucket_lm, args.k, vocab)
    except OverflowError as exc:
        raise FormatError("%s: %s" % (args.lm, exc)) from None
    core.write_lines(args.report, (
        "%d\t%.4f\t%.4f\t%.4f\t%.4f" % (
            s.bucket, s.mean_ppl, s.baseline_wer, s.fused_wer, s.werr)
        for s in stats))
    log.info("bucket report -> %s", args.report)
    return 0


_HANDLERS = {
    "synth": _cmd_synth,
    "decode": _cmd_decode,
    "rescore": _cmd_rescore,
    "tune": _cmd_tune,
    "score": _cmd_score,
    "buckets": _cmd_buckets,
}


def main(argv=None) -> int:
    if not logging.getLogger().handlers and not log.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
        log.addHandler(handler)
        log.setLevel(logging.INFO)
    argv = list(sys.argv[1:] if argv is None else argv)
    top, parsers = _build_parsers()
    try:
        try:
            args = top.parse_args(_config_argv(argv, parsers))
        except SystemExit as exc:  # --help
            return int(exc.code or 0)
        _log_effective(args)
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ToolkitError, OSError) as exc:  # before ValueError: some are both
        print("twopass: %s" % exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        print("twopass: invalid arguments: %s" % exc, file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main(sys.argv[1:]))
