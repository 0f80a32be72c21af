"""Command-line interface tests.

Most commands are driven in-process through cli.main for speed; one test
runs the installed module via a real subprocess to cover the entry point.
Exit code contract: 0 ok, 1 usage problems, 2 broken or missing data.
"""
import math
import random
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from twopass import cli, core, decoder
from twopass.ngram import SENTENCE_START, load_arpa, train_add_one, write_arpa

DEMO_CFG = Path(__file__).resolve().parents[1] / "configs" / "demo.cfg"

SYNTH_ARGS = [
    "--seed", "11", "--vocab-size", "8", "--phonemes", "5",
    "--train-utts", "40", "--dev-utts", "6", "--test-utts", "6",
    "--min-len", "2", "--max-len", "4", "--delta", "0.5",
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert cli.main(["synth", "--out-dir", str(data)] + SYNTH_ARGS) == 0
    assert cli.main([
        "decode", "--list", str(data / "dev_e2e.list"),
        "--vocab", str(data / "wordpieces.txt"),
        "--beam", "8", "--out", str(root / "dev.nbest")]) == 0
    return root


def vocab_of(workdir):
    return core.load_vocabulary(str(workdir / "data" / "wordpieces.txt"))


def arpa_with_logprobs(workdir, name, path, log10, bow10=None):
    """The workdir's ARPA model name with every log10 probability set to
    log10 and, if bow10 is given, every backoff weight it lists to bow10."""
    lines = []
    for line in (workdir / "data" / name).read_text(encoding="utf-8").splitlines():
        if line.startswith("-"):
            fields = line.split("\t")
            fields[0] = log10
            if bow10 is not None and len(fields) == 3:
                fields[2] = bow10
            line = "\t".join(fields)
        lines.append(line)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def only_error_line(err):
    """The one stderr line that is not the effective-config log: no NumPy
    warning and no traceback."""
    (line,) = [line for line in err.splitlines() if not line.startswith("INFO ")]
    return line


class TestSynth:

    def test_layout(self, workdir):
        data = workdir / "data"
        for name in ("train.tsv", "dev.tsv", "test.tsv", "lexicon.tsv",
                     "wordpieces.txt", "phonemes.txt", "wordpiece_lm.arpa",
                     "word_lm.arpa", "dev_e2e.list", "dev_phoneme.list",
                     "test_e2e.list", "test_phoneme.list"):
            assert (data / name).exists(), name

    def test_manifests_point_at_readable_matrices(self, workdir):
        data = workdir / "data"
        vocab = vocab_of(workdir)
        entries = core.load_manifest(str(data / "dev_e2e.list"))
        assert len(entries) == 6
        for _, path in entries:
            core.load_posteriors(path, vocab)

    def test_synth_is_idempotent(self, workdir, tmp_path):
        again = tmp_path / "again"
        assert cli.main(["synth", "--out-dir", str(again)] + SYNTH_ARGS) == 0
        for name in ("train.tsv", "lexicon.tsv", "wordpiece_lm.arpa"):
            assert (again / name).read_bytes() \
                == (workdir / "data" / name).read_bytes(), name

    def test_seed_required(self, tmp_path):
        assert cli.main(["synth", "--out-dir", str(tmp_path / "x")]) == 1


class TestDecode:

    def test_nbest_is_well_formed(self, workdir):
        vocab = vocab_of(workdir)
        lists = core.load_nbest(str(workdir / "dev.nbest"), vocab)
        assert len(lists) == 6
        for nbest in lists:
            assert 1 <= len(nbest) <= 8
            fused = [h.scores.e2e for h in nbest.hypotheses]
            assert fused == sorted(fused, reverse=True)

    def test_decode_is_deterministic(self, workdir, tmp_path):
        out = tmp_path / "re.nbest"
        assert cli.main([
            "decode", "--list", str(workdir / "data" / "dev_e2e.list"),
            "--vocab", str(workdir / "data" / "wordpieces.txt"),
            "--beam", "8", "--out", str(out)]) == 0
        assert out.read_bytes() == (workdir / "dev.nbest").read_bytes()

    def test_parallel_jobs_keep_order(self, workdir, tmp_path):
        out = tmp_path / "par.nbest"
        assert cli.main([
            "decode", "--list", str(workdir / "data" / "dev_e2e.list"),
            "--vocab", str(workdir / "data" / "wordpieces.txt"),
            "--beam", "8", "--jobs", "2", "--out", str(out)]) == 0
        assert out.read_bytes() == (workdir / "dev.nbest").read_bytes()

    @pytest.mark.parametrize("jobs", ["1", "2", "3"])
    def test_chunks_of_a_list_decode_as_one(self, workdir, tmp_path,
                                            monkeypatch, jobs):
        # chunks of two utterances: three chunks for the six of dev
        symbols = len(vocab_of(workdir))
        monkeypatch.setattr(decoder, "BATCH_CELLS", 2 * 8 * symbols)
        out = tmp_path / "chunks.nbest"
        assert cli.main([
            "decode", "--list", str(workdir / "data" / "dev_e2e.list"),
            "--vocab", str(workdir / "data" / "wordpieces.txt"),
            "--beam", "8", "--jobs", jobs, "--out", str(out)]) == 0
        assert out.read_bytes() == (workdir / "dev.nbest").read_bytes()

    def test_single_file_mode_uses_stem_as_utt_id(self, workdir, tmp_path):
        entries = core.load_manifest(str(workdir / "data" / "dev_e2e.list"))
        out = tmp_path / "one.nbest"
        assert cli.main([
            "decode", "--posteriors", entries[0][1],
            "--vocab", str(workdir / "data" / "wordpieces.txt"),
            "--out", str(out)]) == 0
        (nbest,) = core.load_nbest(str(out), vocab_of(workdir))
        assert nbest.utterance_id == "dev-0000.e2e"

    def test_requires_exactly_one_input(self, workdir, tmp_path):
        base = ["decode", "--vocab", str(workdir / "data" / "wordpieces.txt"),
                "--out", str(tmp_path / "x.nbest")]
        assert cli.main(base) == 1
        entries = core.load_manifest(str(workdir / "data" / "dev_e2e.list"))
        assert cli.main(base + [
            "--posteriors", entries[0][1],
            "--list", str(workdir / "data" / "dev_e2e.list")]) == 1

    def test_missing_posterior_file_is_data_error(self, workdir, tmp_path):
        assert cli.main([
            "decode", "--posteriors", str(tmp_path / "absent.fpm"),
            "--vocab", str(workdir / "data" / "wordpieces.txt"),
            "--out", str(tmp_path / "x.nbest")]) == 2

    @pytest.mark.parametrize("jobs", ["-3", "0"])
    def test_jobs_below_one_is_usage_error(self, workdir, tmp_path, jobs):
        out = tmp_path / "x.nbest"
        assert cli.main([
            "decode", "--list", str(workdir / "data" / "dev_e2e.list"),
            "--vocab", str(workdir / "data" / "wordpieces.txt"),
            "--jobs", jobs, "--out", str(out)]) == 1
        assert not out.exists()

    def test_lm_weight_without_lm_is_usage_error(self, workdir, tmp_path):
        assert cli.main([
            "decode", "--list", str(workdir / "data" / "dev_e2e.list"),
            "--vocab", str(workdir / "data" / "wordpieces.txt"),
            "--lambda-lm", "0.5", "--out", str(tmp_path / "x.nbest")]) == 1

    def test_nul_byte_in_manifest_path_is_data_error(self, workdir, tmp_path,
                                                     capsys):
        listing = tmp_path / "nul.list"
        listing.write_text("u1\tx\0y.fpm\n", encoding="utf-8")
        assert cli.main([
            "decode", "--list", str(listing),
            "--vocab", str(workdir / "data" / "wordpieces.txt"),
            "--out", str(tmp_path / "x.nbest")]) == 2
        assert "nul.list: line 1: NUL byte in path" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("model,weight", [
        ("lm", "0.5"), ("lm", "0"), ("ilm", "0")])
    def test_lm_total_that_overflows_is_data_error(self, workdir, tmp_path,
                                                   capsys, model, weight, jobs):
        # each conditional is finite (-1.15e308 in natural log); a prefix of
        # two tokens sums to -inf, and at weight 0 that would fuse to NaN
        arpa = arpa_with_logprobs(workdir, "wordpiece_lm.arpa",
                                  tmp_path / "big.arpa", "-5e307")
        out = tmp_path / "x.nbest"
        assert cli.main([
            "decode", "--list", str(workdir / "data" / "dev_e2e.list"),
            "--vocab", str(workdir / "data" / "wordpieces.txt"),
            "--" + model, str(arpa), "--lambda-" + model, weight,
            "--jobs", jobs, "--out", str(out)]) == 2
        what = "external" if model == "lm" else "internal"
        assert only_error_line(capsys.readouterr().err).startswith(
            "twopass: %s: %s LM total overflows float64 in dev-" % (arpa, what))
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_lm_row_that_overflows_is_data_error(self, workdir, tmp_path,
                                                 capsys, jobs):
        # a backoff weight plus a log-prob is -inf (-1.15e308 each in
        # natural log), so the <s> row already holds -inf entries; filling
        # it must not print NumPy's overflow warning
        arpa = arpa_with_logprobs(workdir, "wordpiece_lm.arpa",
                                  tmp_path / "big.arpa", "-5e307", "-5e307")
        symbols = vocab_of(workdir).symbols[1:]
        assert -math.inf in [load_arpa(arpa).conditional((SENTENCE_START,), s)
                             for s in symbols]
        out = tmp_path / "x.nbest"
        assert cli.main([
            "decode", "--list", str(workdir / "data" / "dev_e2e.list"),
            "--vocab", str(workdir / "data" / "wordpieces.txt"),
            "--lm", str(arpa), "--lambda-lm", "0.5",
            "--jobs", jobs, "--out", str(out)]) == 2
        assert only_error_line(capsys.readouterr().err).startswith(
            "twopass: %s: external LM total overflows float64 in dev-" % arpa)
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_fused_score_that_is_nan_is_usage_error(self, workdir, tmp_path,
                                                    capsys, jobs):
        # every LM and ILM total of a token is negative, so 1e308 times
        # each is -inf and an extension fuses to -inf - -inf
        data = workdir / "data"
        out = tmp_path / "x.nbest"
        assert cli.main([
            "decode", "--list", str(data / "dev_e2e.list"),
            "--vocab", str(data / "wordpieces.txt"),
            "--lm", str(data / "wordpiece_lm.arpa"), "--lambda-lm", "1e308",
            "--ilm", str(data / "wordpiece_lm.arpa"), "--lambda-ilm", "1e308",
            "--jobs", jobs, "--out", str(out)]) == 1
        assert only_error_line(capsys.readouterr().err) == (
            "twopass: invalid arguments: fused score is NaN: "
            "a fusion weight times a score overflows")
        assert not out.exists()

    def test_fused_score_that_overflows_ranks_silently(self, workdir, tmp_path,
                                                       capsys):
        # every nonempty prefix fuses to -inf, so the empty one ranks first
        # and the rest tie, in token order
        data = workdir / "data"
        out = tmp_path / "x.nbest"
        assert cli.main([
            "decode", "--list", str(data / "dev_e2e.list"),
            "--vocab", str(data / "wordpieces.txt"),
            "--lm", str(data / "wordpiece_lm.arpa"), "--lambda-lm", "1e308",
            "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert [line for line in err.splitlines()
                if not line.startswith("INFO ")] == []
        lists = core.load_nbest(str(out), vocab_of(workdir))
        assert len(lists) == 6
        for nbest in lists:
            tokens = [h.tokens for h in nbest.hypotheses]
            assert tokens[0] == ()
            assert tokens[1:] == sorted(tokens[1:])


class TestDecodeErrorOrder:
    """A --list decode raises the first failing utterance's error in list
    order, whatever the frame each utterance fails at and whatever the
    fault, although the utterances of a chunk are searched together.

    Hand-made bigram models over <blank> a b c d, fused at weight 2. A
    backoff weight of log10 +5e307 makes every conditional after its token
    about +1.15e308: finite, and so is every single token's total, but two
    such terms sum to +inf. Both models have one on c, so an extension of
    a live c fuses to 2 x LM - 2 x ILM = +inf - +inf, a NaN. The LM also
    has one on a and b: an extension of a live a fuses to +inf, so a b is
    kept, and one frame later its LM total plus the b row overflows. Beam
    2 keeps only the empty prefix and one token alive in a frame where
    blank has 0.9 of the mass, so the posteriors decide which frame each
    utterance fails at.
    """

    SYMBOLS = ("<blank>", "▁a", "▁b", "▁c", "▁d")

    def _arpa(self, path, huge):
        unigrams = ["-1.0\t</s>", "-99.0\t<s>\t-0.3"] + [
            "-1.0\t%s\t%s" % (s, "5e307" if s in huge else "-0.3")
            for s in self.SYMBOLS[1:]]
        path.write_text("\n".join(
            ["\\data\\", "ngram 1=%d" % len(unigrams), "ngram 2=1", "",
             "\\1-grams:", *unigrams, "", "\\2-grams:", "-0.5\t<s> ▁d", "",
             "\\end\\", ""]), encoding="utf-8")
        return str(path)

    def _utterance(self, tmp_path, name, peaks):
        """A matrix whose frame t gives 0.9 to blank and the rest to
        peaks[t]'s symbol, mostly, or 0.9 to that symbol if it is
        upper-case."""
        vocab = core.Vocabulary(self.SYMBOLS)
        rows = []
        for peak in peaks:
            probs = np.full(len(self.SYMBOLS), 0.01)
            column = self.SYMBOLS.index("▁" + peak.lower())
            if peak.isupper():
                probs[column] = 0.9
                probs[0] = 0.07
            else:
                probs[0] = 0.9
                probs[column] = 0.07
            rows.append(np.log(probs / probs.sum()))
        path = tmp_path / (name + ".fpm")
        core.write_posteriors(
            core.PosteriorMatrix(np.array(rows, dtype=np.float32), vocab), str(path))
        return str(path)

    def _decode(self, tmp_path, entries, jobs):
        core.save_vocabulary(core.Vocabulary(self.SYMBOLS), str(tmp_path / "v.txt"))
        core.write_manifest(entries, str(tmp_path / "e.list"))
        lm = self._arpa(tmp_path / "lm.arpa", ("▁a", "▁b", "▁c"))
        ilm = self._arpa(tmp_path / "ilm.arpa", ("▁c",))
        out = tmp_path / "x.nbest"
        code = cli.main([
            "decode", "--list", str(tmp_path / "e.list"),
            "--vocab", str(tmp_path / "v.txt"), "--beam", "2",
            "--lm", lm, "--lambda-lm", "2", "--ilm", ilm, "--lambda-ilm", "2",
            "--jobs", jobs, "--out", str(out)])
        assert not out.exists()
        return code, lm

    def _fine(self, tmp_path, name):
        return name, self._utterance(tmp_path, name, "ddddd")

    def _overflows_late(self, tmp_path, name):
        # a live at frame 2, a b at 3; the LM sum overflows at frame 4
        return name, self._utterance(tmp_path, name, "ddAdd")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_earlier_utterance_overflowing_later_wins(self, tmp_path, capsys, jobs):
        # u3 overflows at frame 2 (a live at frame 0), before u2's frame 4
        code, lm = self._decode(tmp_path, [
            self._fine(tmp_path, "u1"), self._overflows_late(tmp_path, "u2"),
            ("u3", self._utterance(tmp_path, "u3", "Addd"))], jobs)
        assert code == 2
        assert only_error_line(capsys.readouterr().err) == (
            "twopass: %s: external LM total overflows float64 in u2" % lm)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_overflow_before_malformed_posteriors_wins(self, tmp_path, capsys, jobs):
        bad = tmp_path / "bad.fpm"
        bad.write_bytes(b"FPM1" + struct.pack("<II", 1, len(self.SYMBOLS)))
        code, lm = self._decode(tmp_path, [
            self._fine(tmp_path, "u1"), self._overflows_late(tmp_path, "u2"),
            ("u3", str(bad))], jobs)
        assert code == 2
        assert only_error_line(capsys.readouterr().err) == (
            "twopass: %s: external LM total overflows float64 in u2" % lm)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_malformed_posteriors_before_overflow_wins(self, tmp_path, capsys, jobs):
        bad = tmp_path / "bad.fpm"
        bad.write_bytes(b"FPM1" + struct.pack("<II", 1, len(self.SYMBOLS)))
        code, _ = self._decode(tmp_path, [
            self._fine(tmp_path, "u1"), ("u2", str(bad)),
            self._overflows_late(tmp_path, "u3")], jobs)
        assert code == 2
        assert only_error_line(capsys.readouterr().err) == (
            "twopass: %s: truncated payload" % bad)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_overflow_before_nan_fused_score_wins(self, tmp_path, capsys, jobs):
        # u3's extensions of c fuse to NaN at frame 1, before u2 overflows
        # at frame 4
        code, lm = self._decode(tmp_path, [
            self._fine(tmp_path, "u1"), self._overflows_late(tmp_path, "u2"),
            ("u3", self._utterance(tmp_path, "u3", "Cddd"))], jobs)
        assert code == 2
        assert only_error_line(capsys.readouterr().err) == (
            "twopass: %s: external LM total overflows float64 in u2" % lm)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_each_fault_alone(self, tmp_path, capsys, jobs):
        code, lm = self._decode(tmp_path, [
            self._fine(tmp_path, "u1"),
            ("u3", self._utterance(tmp_path, "u3", "Cddd"))], jobs)
        assert code == 1
        assert only_error_line(capsys.readouterr().err) == (
            "twopass: invalid arguments: fused score is NaN: "
            "a fusion weight times a score overflows")
        code, lm = self._decode(tmp_path, [
            self._fine(tmp_path, "u1"),
            ("u3", self._utterance(tmp_path, "u3", "Addd"))], jobs)
        assert code == 2
        assert only_error_line(capsys.readouterr().err) == (
            "twopass: %s: external LM total overflows float64 in u3" % lm)


class TestConfigFile:

    def test_config_supplies_defaults(self, workdir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beam = 4\nnbest = 1  # top hypothesis only\n")
        out = tmp_path / "cfg.nbest"
        assert cli.main([
            "decode", "--config", str(cfg),
            "--list", str(workdir / "data" / "dev_e2e.list"),
            "--vocab", str(workdir / "data" / "wordpieces.txt"),
            "--out", str(out)]) == 0
        for nbest in core.load_nbest(str(out), vocab_of(workdir)):
            assert len(nbest) == 1

    def test_flags_beat_config(self, workdir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nbest = 1\n")
        out = tmp_path / "cfg2.nbest"
        assert cli.main([
            "decode", "--config", str(cfg), "--nbest", "3",
            "--list", str(workdir / "data" / "dev_e2e.list"),
            "--vocab", str(workdir / "data" / "wordpieces.txt"),
            "--beam", "8", "--out", str(out)]) == 0
        lengths = {len(nb) for nb in core.load_nbest(str(out), vocab_of(workdir))}
        assert max(lengths) == 3

    def test_unknown_key_rejected(self, workdir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beem = 4\n")
        assert cli.main([
            "decode", "--config", str(cfg),
            "--list", str(workdir / "data" / "dev_e2e.list"),
            "--vocab", str(workdir / "data" / "wordpieces.txt"),
            "--out", str(tmp_path / "x.nbest")]) == 1

    def test_bad_value_rejected(self, workdir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beam = wide\n")
        assert cli.main([
            "decode", "--config", str(cfg),
            "--list", str(workdir / "data" / "dev_e2e.list"),
            "--vocab", str(workdir / "data" / "wordpieces.txt"),
            "--out", str(tmp_path / "x.nbest")]) == 1

    def test_abbreviated_flag_applies_the_config(self, workdir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nbest = 1\n")
        out = tmp_path / "conf.nbest"
        assert cli.main([
            "decode", "--conf", str(cfg),
            "--list", str(workdir / "data" / "dev_e2e.list"),
            "--vocab", str(workdir / "data" / "wordpieces.txt"),
            "--out", str(out)]) == 0
        for nbest in core.load_nbest(str(out), vocab_of(workdir)):
            assert len(nbest) == 1

    def test_config_gives_every_required_flag(self, workdir, tmp_path):
        data = workdir / "data"
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("out-dir = %s\n" % (tmp_path / "data") + "".join(
            "%s = %s\n" % (flag[2:], value)
            for flag, value in zip(SYNTH_ARGS[::2], SYNTH_ARGS[1::2])))
        assert cli.main(["synth", "--config", str(cfg)]) == 0
        for name in ("train.tsv", "lexicon.tsv", "wordpiece_lm.arpa"):
            assert (tmp_path / "data" / name).read_bytes() \
                == (data / name).read_bytes(), name
        cfg = tmp_path / "decode.cfg"
        cfg.write_text("list-file = %s\nvocab = %s\nout = %s\n" % (
            data / "dev_e2e.list", data / "wordpieces.txt", tmp_path / "c.nbest"))
        assert cli.main(["decode", "--config", str(cfg)]) == 0
        assert (tmp_path / "c.nbest").read_bytes() \
            == (workdir / "dev.nbest").read_bytes()

    def test_value_outside_choices_names_the_flag(self, workdir, tmp_path,
                                                   capsys):
        data = workdir / "data"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("oov = bogus\n")
        assert cli.main([
            "rescore", "--config", str(cfg), "--nbest", str(workdir / "dev.nbest"),
            "--vocab", str(data / "wordpieces.txt"),
            "--list", str(data / "dev_phoneme.list"),
            "--phoneme-vocab", str(data / "phonemes.txt"),
            "--lexicon", str(data / "lexicon.tsv"),
            "--out", str(tmp_path / "x.nbest")]) == 1
        assert "argument --oov: invalid choice: 'bogus'" in capsys.readouterr().err

    def test_flag_and_config_forms_parse_alike(self, tmp_path):
        # every option of every command, given as a flag or as a config key
        top, parsers = cli._build_parsers()

        def parse(argv):
            return top.parse_args(cli._config_argv(argv, parsers))

        checked = 0
        for command, parser in parsers.items():
            for dest, action in parser.actions_by_dest.items():
                if dest in ("help", "config"):
                    continue
                flag, value = action.option_strings[0], _sample_value(action)
                rest = _required_argv(parser, action)
                cfg = tmp_path / ("%s.%s.cfg" % (command, dest))
                if action.nargs == 0:
                    by_flag = parse([command, *rest, flag])
                    cfg.write_text("%s = true\n" % dest.replace("_", "-"))
                else:
                    by_flag = parse([command, *rest, flag, value])
                    cfg.write_text("%s = %s\n" % (dest.replace("_", "-"), value))
                by_config = parse([command, "--config", str(cfg), *rest])
                assert getattr(by_flag, dest) != action.default, (command, dest)
                assert vars(by_flag) == {**vars(by_config), "config": None}, \
                    (command, dest)
                checked += 1
        assert checked == 70


def _sample_value(action):
    """A value the action accepts, other than its default."""
    if action.choices:
        return action.choices[-1]
    return {int: "7", float: "0.25", cli._positive_int: "7",
            cli._float_list: "0.5,1"}.get(action.type, "x.txt")


def _required_argv(parser, skip):
    """Flags meeting the parser's required flags and groups, except skip's."""
    argv = []
    for action in parser.actions_by_dest.values():
        if action.required and action is not skip:
            argv += [action.option_strings[0], _sample_value(action)]
    for group in parser._mutually_exclusive_groups:
        if skip not in group._group_actions:
            first = group._group_actions[0]
            argv += [first.option_strings[0], _sample_value(first)]
    return argv


# One usage fault each, with a file that would be read if usage were not
# settled first; main must exit 1 before touching any of them.
_USAGE_FAULTS = {
    "decode no input": ["decode", "--vocab", "v.txt", "--lm", "lm.arpa",
                        "--out", "o.nbest"],
    "decode both inputs": ["decode", "--posteriors", "p.fpm", "--list", "e.list",
                           "--vocab", "v.txt", "--lm", "lm.arpa", "--out", "o.nbest"],
    "decode utt-id with list": ["decode", "--list", "e.list", "--utt-id", "u1",
                                "--vocab", "v.txt", "--out", "o.nbest"],
    "decode beam 0": ["decode", "--list", "e.list", "--vocab", "v.txt",
                      "--beam", "0", "--out", "o.nbest"],
    "decode nbest 0": ["decode", "--list", "e.list", "--vocab", "v.txt",
                       "--nbest", "0", "--out", "o.nbest"],
    "decode jobs 0": ["decode", "--list", "e.list", "--vocab", "v.txt",
                      "--jobs", "0", "--out", "o.nbest"],
    "rescore no input": ["rescore", "--nbest", "n.nbest", "--vocab", "v.txt",
                         "--phoneme-vocab", "p.txt", "--lexicon", "l.tsv",
                         "--out", "o.nbest"],
    "rescore both inputs": ["rescore", "--nbest", "n.nbest", "--vocab", "v.txt",
                            "--phoneme-posteriors", "p.fpm", "--list", "p.list",
                            "--phoneme-vocab", "p.txt", "--lexicon", "l.tsv",
                            "--out", "o.nbest"],
    "score no source": ["score", "--ref", "r.tsv"],
    "score both sources": ["score", "--ref", "r.tsv", "--hyp", "h.tsv",
                           "--nbest", "n.nbest", "--vocab", "v.txt"],
    "score nbest without vocab": ["score", "--ref", "r.tsv", "--nbest", "n.nbest"],
    "decode nbest above beam": ["decode", "--list", "e.list", "--vocab", "v.txt",
                                "--beam", "2", "--nbest", "5", "--lm", "x.arpa",
                                "--out", "o.nbest"],
    "decode lambda-lm without lm": ["decode", "--list", "e.list",
                                    "--vocab", "v.txt", "--lambda-lm", "0.5",
                                    "--ilm", "x.arpa", "--out", "o.nbest"],
    "decode lambda-ilm without ilm": ["decode", "--list", "e.list",
                                      "--vocab", "v.txt", "--lambda-ilm", "0.5",
                                      "--lm", "x.arpa", "--out", "o.nbest"],
    "decode negative lambda-lm": ["decode", "--list", "e.list", "--vocab", "v.txt",
                                  "--lambda-lm=-1", "--lm", "x.arpa",
                                  "--out", "o.nbest"],
    "rescore negative lambda-am": ["rescore", "--nbest", "n.nbest", "--vocab", "v.txt",
                                   "--list", "p.list", "--phoneme-vocab", "p.txt",
                                   "--lexicon", "l.tsv", "--lambda-am=-1",
                                   "--out", "o.nbest"],
    "rescore nan lambda-am": ["rescore", "--nbest", "n.nbest", "--vocab", "v.txt",
                              "--list", "p.list", "--phoneme-vocab", "p.txt",
                              "--lexicon", "l.tsv", "--lambda-am", "nan",
                              "--out", "o.nbest"],
    "rescore positive floor": ["rescore", "--nbest", "n.nbest", "--vocab", "v.txt",
                               "--list", "p.list", "--phoneme-vocab", "p.txt",
                               "--lexicon", "l.tsv", "--floor-logp", "5",
                               "--out", "o.nbest"],
    "tune negative grid-am": ["tune", "--nbest", "n.nbest", "--ref", "r.tsv",
                              "--vocab", "v.txt", "--grid-am=-1,0"],
    "tune nan grid-lm": ["tune", "--nbest", "n.nbest", "--ref", "r.tsv",
                         "--vocab", "v.txt", "--grid-lm=nan"],
    "tune empty grid-am": ["tune", "--nbest", "n.nbest", "--ref", "r.tsv",
                           "--vocab", "v.txt", "--grid-am="],
    "buckets k 0": ["buckets", "--ref", "r.tsv", "--baseline-nbest", "b.nbest",
                    "--fused-nbest", "f.nbest", "--vocab", "v.txt",
                    "--lm", "lm.arpa", "--k", "0", "--report", "b.tsv"],
}


@pytest.mark.parametrize("fault", sorted(_USAGE_FAULTS))
def test_usage_fault_exits_1_before_any_input_is_read(monkeypatch, fault):
    def no_read(*args, **kwargs):
        raise AssertionError("read an input before usage was settled")

    # the names through which the commands read text, matrices and LMs
    monkeypatch.setattr(core, "read_lines", no_read)
    monkeypatch.setattr(core, "load_posteriors", no_read)
    monkeypatch.setattr(cli, "load_arpa", no_read)
    assert cli.main(_USAGE_FAULTS[fault]) == 1


class TestRescore:

    def _rescore(self, workdir, out, *extra):
        data = workdir / "data"
        return cli.main([
            "rescore", "--nbest", str(workdir / "dev.nbest"),
            "--vocab", str(data / "wordpieces.txt"),
            "--list", str(data / "dev_phoneme.list"),
            "--phoneme-vocab", str(data / "phonemes.txt"),
            "--lexicon", str(data / "lexicon.tsv"),
            "--allow-silence", "--oov", "floor",
            "--out", str(out)] + list(extra))

    def test_fills_am_scores(self, workdir, tmp_path):
        out = tmp_path / "resc.nbest"
        assert self._rescore(workdir, out, "--lambda-am", "0.5") == 0
        for nbest in core.load_nbest(str(out), vocab_of(workdir)):
            for hyp in nbest.hypotheses:
                assert hyp.scores.am is not None

    def test_zero_weight_keeps_first_pass_order(self, workdir, tmp_path):
        out = tmp_path / "zero.nbest"
        assert self._rescore(workdir, out) == 0
        vocab = vocab_of(workdir)
        before = core.load_nbest(str(workdir / "dev.nbest"), vocab)
        after = core.load_nbest(str(out), vocab)
        for a, b in zip(before, after):
            assert [h.tokens for h in a.hypotheses] \
                == [h.tokens for h in b.hypotheses]

    @pytest.mark.parametrize("jobs", ["-3", "0"])
    def test_jobs_below_one_is_usage_error(self, workdir, tmp_path, jobs):
        out = tmp_path / "x.nbest"
        assert self._rescore(workdir, out, "--jobs", jobs) == 1
        assert not out.exists()

    def test_config_true_false_key_matches_flag(self, workdir, tmp_path):
        data = workdir / "data"

        def rescore(name, *extra):
            out = tmp_path / (name + ".nbest")
            rc = cli.main([
                "rescore", "--nbest", str(workdir / "dev.nbest"),
                "--vocab", str(data / "wordpieces.txt"),
                "--list", str(data / "dev_phoneme.list"),
                "--phoneme-vocab", str(data / "phonemes.txt"),
                "--lexicon", str(data / "lexicon.tsv"), "--oov", "floor",
                "--lambda-am", "0.5", "--out", str(out)] + list(extra))
            return rc, out.read_bytes() if out.exists() else None

        def config(value):
            path = tmp_path / (value + ".cfg")
            path.write_text("allow-silence = %s\n" % value)
            return rescore(value, "--config", str(path))

        flag, none = rescore("flag", "--allow-silence"), rescore("none")
        assert config("true") == flag != none == config("false")
        assert config("maybe") == (1, None)

    @pytest.mark.parametrize("floor", ["5", "inf", "nan"])
    def test_impossible_floor_is_rejected_before_aligning(
            self, workdir, tmp_path, capsys, monkeypatch, floor):
        def never(*args):
            raise AssertionError("rescored with --floor-logp %s" % floor)

        monkeypatch.setattr(cli.fusion, "rescore_nbest", never)
        out = tmp_path / "x.nbest"
        assert self._rescore(workdir, out, "--floor-logp", floor) == 1
        assert "floor_log_prob must be <= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_phoneme_posteriors_with_several_lists_is_data_error(
            self, workdir, tmp_path, capsys):
        data = workdir / "data"
        (_, phonemes), *_ = core.load_manifest(str(data / "dev_phoneme.list"))
        out = tmp_path / "x.nbest"
        assert cli.main([
            "rescore", "--nbest", str(workdir / "dev.nbest"),
            "--vocab", str(data / "wordpieces.txt"),
            "--phoneme-posteriors", phonemes,
            "--phoneme-vocab", str(data / "phonemes.txt"),
            "--lexicon", str(data / "lexicon.tsv"), "--out", str(out)]) == 2
        assert "dev.nbest: 6 N-best lists" in capsys.readouterr().err
        assert not out.exists()

    def test_rescore_is_deterministic(self, workdir, tmp_path):
        a, b = tmp_path / "a.nbest", tmp_path / "b.nbest"
        assert self._rescore(workdir, a, "--lambda-am", "0.5") == 0
        assert self._rescore(workdir, b, "--lambda-am", "0.5") == 0
        assert a.read_bytes() == b.read_bytes()

    def test_word_missing_from_word_lm_is_data_error_under_floor(
            self, workdir, tmp_path, capsys):
        # --oov governs the am column only
        lm = tmp_path / "other.arpa"
        write_arpa(train_add_one([["zz"]], 2), str(lm))
        assert self._rescore(workdir, tmp_path / "x.nbest",
                             "--word-lm", str(lm)) == 2
        assert "token not in LM vocabulary" in capsys.readouterr().err

    def test_parallel_jobs_match_one_job(self, workdir, tmp_path):
        one, two = tmp_path / "one.nbest", tmp_path / "two.nbest"
        assert self._rescore(workdir, one, "--lambda-am", "0.5") == 0
        assert self._rescore(workdir, two, "--lambda-am", "0.5",
                             "--jobs", "2") == 0
        assert two.read_bytes() == one.read_bytes()

    def test_word_lm_value_that_overflows_natural_log_is_data_error(
            self, workdir, tmp_path, capsys):
        # -1e308 is finite in log10 but -inf once scaled by ln 10
        lm = arpa_with_logprobs(workdir, "word_lm.arpa", tmp_path / "huge.arpa",
                                "-1e308")
        assert self._rescore(workdir, tmp_path / "x.nbest",
                             "--word-lm", str(lm)) == 2
        err = capsys.readouterr().err
        assert "huge.arpa: line" in err and "non-finite value" in err

    def test_word_lm_sum_that_overflows_is_data_error(self, workdir, tmp_path,
                                                      capsys):
        # each term is finite (-1.15e308 in natural log); any two sum to -inf
        lm = arpa_with_logprobs(workdir, "word_lm.arpa", tmp_path / "big.arpa",
                                "-5e307")
        assert self._rescore(workdir, tmp_path / "x.nbest",
                             "--word-lm", str(lm)) == 2
        assert "big.arpa: word LM score of " in capsys.readouterr().err

    def test_fused_score_that_is_nan_is_usage_error(self, workdir, tmp_path,
                                                    capsys):
        # lm and ilm are negative, so 1e308 times each is -inf and the
        # fused score is -inf - -inf
        data = workdir / "data"
        nbest = tmp_path / "lm.nbest"
        assert cli.main([
            "decode", "--list", str(data / "dev_e2e.list"),
            "--vocab", str(data / "wordpieces.txt"),
            "--lm", str(data / "wordpiece_lm.arpa"), "--lambda-lm", "0.1",
            "--ilm", str(data / "wordpiece_lm.arpa"), "--lambda-ilm", "0.1",
            "--out", str(nbest)]) == 0
        capsys.readouterr()
        assert self._rescore(workdir, tmp_path / "x.nbest", "--nbest", str(nbest),
                             "--lambda-lm", "1e308", "--lambda-ilm", "1e308") == 1
        assert only_error_line(capsys.readouterr().err) == (
            "twopass: invalid arguments: fused score is NaN: "
            "a fusion weight times a score overflows")

    def test_nul_byte_in_manifest_path_is_data_error(self, workdir, tmp_path,
                                                     capsys):
        data = workdir / "data"
        lines = (data / "dev_phoneme.list").read_text(
            encoding="utf-8").splitlines()
        assert len(lines) == 6
        lines[3] = lines[3].replace(".fpm", "\0.fpm")
        listing = data / "nul.list"  # relative paths resolve as before
        listing.write_text("\n".join(lines) + "\n", encoding="utf-8")
        # argparse keeps the last value of a repeated flag
        assert self._rescore(workdir, tmp_path / "x.nbest",
                             "--list", str(listing)) == 2
        assert "nul.list: line 4: NUL byte in path" in capsys.readouterr().err

    def test_prior_that_underflows_to_zero_is_data_error(self, workdir, tmp_path,
                                                         capsys):
        lexicon = tmp_path / "zero.tsv"
        lexicon.write_text(
            (workdir / "data" / "lexicon.tsv").read_text(encoding="utf-8")
            + "zz\t1\tsil\nzz\t1\tsil sil\nzz\t5e-324\tsil sil sil\n",
            encoding="utf-8")
        assert self._rescore(workdir, tmp_path / "x.nbest",
                             "--lexicon", str(lexicon)) == 2
        assert "zero.tsv: word 'zz': a probability normalizes to 0" \
            in capsys.readouterr().err


@pytest.fixture(scope="module")
def rescored(workdir, tmp_path_factory):
    out = tmp_path_factory.mktemp("tsb") / "resc.nbest"
    data = workdir / "data"
    assert cli.main([
        "rescore", "--nbest", str(workdir / "dev.nbest"),
        "--vocab", str(data / "wordpieces.txt"),
        "--list", str(data / "dev_phoneme.list"),
        "--phoneme-vocab", str(data / "phonemes.txt"),
        "--lexicon", str(data / "lexicon.tsv"),
        "--allow-silence", "--oov", "floor",
        "--out", str(out)]) == 0
    return out


class TestTuneScoreBuckets:

    def test_tune_report_and_selection(self, workdir, rescored, tmp_path,
                                       capsys):
        report = tmp_path / "tune.tsv"
        assert cli.main([
            "tune", "--nbest", str(rescored),
            "--ref", str(workdir / "data" / "dev.tsv"),
            "--vocab", str(workdir / "data" / "wordpieces.txt"),
            "--grid-am", "0,0.5,1.0",
            "--report", str(report)]) == 0
        lines = report.read_text().splitlines()
        assert len(lines) == 3
        for line in lines:
            lam_am, lam_lm, lam_ilm, dev_wer = line.split("\t")
            assert float(lam_lm) == 0.0 and float(lam_ilm) == 0.0
            assert 0.0 <= float(dev_wer)
        out = capsys.readouterr().out
        assert "selected lambda_am=" in out
        assert "dev_wer=" in out

    def test_tune_am_grid_without_am_scores_is_data_error(self, workdir,
                                                          capsys):
        assert cli.main([
            "tune", "--nbest", str(workdir / "dev.nbest"),
            "--ref", str(workdir / "data" / "dev.tsv"),
            "--vocab", str(workdir / "data" / "wordpieces.txt"),
            "--grid-am", "0.3"]) == 2
        assert "am scores" in capsys.readouterr().err

    def test_score_identity_is_zero(self, workdir, capsys):
        ref = str(workdir / "data" / "dev.tsv")
        assert cli.main(["score", "--ref", ref, "--hyp", ref]) == 0
        assert "corpus WER 0.0000" in capsys.readouterr().out

    def test_score_nbest_prints_oracle(self, workdir, tmp_path, capsys):
        report = tmp_path / "per_utt.tsv"
        assert cli.main([
            "score", "--ref", str(workdir / "data" / "dev.tsv"),
            "--nbest", str(workdir / "dev.nbest"),
            "--vocab", str(workdir / "data" / "wordpieces.txt"),
            "--report", str(report)]) == 0
        out = capsys.readouterr().out
        assert "corpus WER " in out
        assert "oracle WER " in out
        lines = report.read_text().splitlines()
        assert len(lines) == 6
        for line in lines:
            fields = line.split("\t")
            assert len(fields) == 6

    def test_score_needs_exactly_one_source(self, workdir):
        ref = str(workdir / "data" / "dev.tsv")
        assert cli.main(["score", "--ref", ref]) == 1
        assert cli.main([
            "score", "--ref", ref, "--hyp", ref,
            "--nbest", str(workdir / "dev.nbest")]) == 1

    def test_buckets_report(self, workdir, rescored, tmp_path):
        report = tmp_path / "buckets.tsv"
        data = workdir / "data"
        assert cli.main([
            "buckets", "--ref", str(data / "dev.tsv"),
            "--baseline-nbest", str(workdir / "dev.nbest"),
            "--fused-nbest", str(rescored),
            "--vocab", str(data / "wordpieces.txt"),
            "--lm", str(data / "wordpiece_lm.arpa"),
            "--k", "3", "--report", str(report)]) == 0
        lines = report.read_text().splitlines()
        assert len(lines) == 3
        ppls = []
        for line in lines:
            bucket, mean_ppl, base, fused, werr = line.split("\t")
            ppls.append(float(mean_ppl))
        assert ppls == sorted(ppls)

    @pytest.mark.parametrize("log10, bow10", [("-400.0", None),
                                              ("-5e307", "-5e307"),
                                              ("-308.2", "0")])
    def test_perplexity_that_overflows_is_data_error(self, workdir, rescored,
                                                     tmp_path, capsys,
                                                     log10, bow10):
        # valid models: -400.0 makes math.exp overflow; -5e307 sums to -inf,
        # an inf perplexity; -308.2 with unit backoffs gives perplexities of
        # e^709.66, finite, whose bucket mean is inf
        data = workdir / "data"
        lm = arpa_with_logprobs(workdir, "wordpiece_lm.arpa",
                                tmp_path / "tiny.arpa", log10, bow10)
        report = tmp_path / "buckets.tsv"
        assert cli.main([
            "buckets", "--ref", str(data / "dev.tsv"),
            "--baseline-nbest", str(workdir / "dev.nbest"),
            "--fused-nbest", str(rescored),
            "--vocab", str(data / "wordpieces.txt"),
            "--lm", str(lm), "--k", "2", "--report", str(report)]) == 2
        line = only_error_line(capsys.readouterr().err)
        assert line.startswith("twopass: %s: " % lm)
        assert "perplexity of " in line and "overflows float64" in line
        assert not report.exists()

    def test_more_buckets_than_utts_is_data_error(self, workdir, rescored,
                                                  tmp_path):
        data = workdir / "data"
        assert cli.main([
            "buckets", "--ref", str(data / "dev.tsv"),
            "--baseline-nbest", str(workdir / "dev.nbest"),
            "--fused-nbest", str(rescored),
            "--vocab", str(data / "wordpieces.txt"),
            "--lm", str(data / "wordpiece_lm.arpa"),
            "--k", "20", "--report", str(tmp_path / "x.tsv")]) == 2


class TestHandMadeLists:
    """Tiny hand-written vocabularies, N-best lists and references."""

    PIECES = ("<blank>", "▁Foo", "▁bar", "▁x")

    def _files(self, tmp_path, ref_text="Foo bar", rows=None, pieces=PIECES):
        vocab = core.Vocabulary(pieces)
        core.save_vocabulary(vocab, str(tmp_path / "vocab.txt"))
        if rows is None:
            rows = ["u1\t1\t-1.0\t-2.0\t-0.5\t-3.0\t▁Foo ▁bar",
                    "u1\t2\t-2.0\t-2.0\t-0.5\t-3.0\t▁x ▁bar"]
        (tmp_path / "list.nbest").write_text(
            "".join(r + "\n" for r in rows), encoding="utf-8")
        (tmp_path / "ref.tsv").write_text(
            "u1\t%s\n" % ref_text, encoding="utf-8")
        lm = train_add_one([pieces[1:3]], 2, vocabulary=pieces[1:])
        write_arpa(lm, str(tmp_path / "lm.arpa"))
        return {name: str(tmp_path / name) for name in
                ("vocab.txt", "list.nbest", "ref.tsv", "lm.arpa")}

    def _tune(self, f, *grid):
        return cli.main(["tune", "--nbest", f["list.nbest"],
                         "--ref", f["ref.tsv"], "--vocab", f["vocab.txt"]]
                        + list(grid))

    def _score_nbest(self, f):
        return cli.main(["score", "--ref", f["ref.tsv"],
                         "--nbest", f["list.nbest"], "--vocab", f["vocab.txt"]])

    def _score_hyp(self, f, hyp):
        return cli.main(["score", "--ref", f["ref.tsv"], "--hyp", hyp])

    def _buckets(self, f, report):
        return cli.main(["buckets", "--ref", f["ref.tsv"],
                         "--baseline-nbest", f["list.nbest"],
                         "--fused-nbest", f["list.nbest"],
                         "--vocab", f["vocab.txt"], "--lm", f["lm.arpa"],
                         "--k", "1", "--report", report])

    def test_capitalised_words_agree_across_commands(self, tmp_path, capsys):
        # every command compares lowercased, whitespace-split words
        f = self._files(tmp_path)
        hyp = tmp_path / "hyp.tsv"
        hyp.write_text("u1\tFoo bar\n", encoding="utf-8")
        report = str(tmp_path / "buckets.tsv")
        assert self._tune(f) == 0
        assert capsys.readouterr().out.endswith("dev_wer=0.000000\n")
        assert self._score_nbest(f) == 0
        assert capsys.readouterr().out == "corpus WER 0.0000\noracle WER 0.0000\n"
        assert self._score_hyp(f, str(hyp)) == 0
        assert capsys.readouterr().out == "corpus WER 0.0000\n"
        assert self._buckets(f, report) == 0
        (line,) = open(report).read().splitlines()
        assert line.split("\t")[2:] == ["0.0000", "0.0000", "0.0000"]

    def test_tune_tie_prints_smaller_triple(self, tmp_path, capsys):
        # both points put "Foo bar" on top; the larger one comes first
        f = self._files(tmp_path)
        assert self._tune(f, "--grid-am", "1.0,0.5") == 0
        assert capsys.readouterr().out == (
            "selected lambda_am=0.500 lambda_lm=0.000 lambda_ilm=0.000 "
            "dev_wer=0.000000\n")

    def test_empty_reference_is_data_error(self, tmp_path, capsys):
        f = self._files(tmp_path, ref_text="")
        hyp = tmp_path / "hyp.tsv"
        hyp.write_text("u1\tFoo bar\n", encoding="utf-8")
        for run in (lambda: self._tune(f), lambda: self._score_nbest(f),
                    lambda: self._score_hyp(f, str(hyp)),
                    lambda: self._buckets(f, str(tmp_path / "b.tsv"))):
            assert run() == 2
            assert "empty reference for u1" in capsys.readouterr().err

    @pytest.mark.parametrize("column", [2, 3, 4])
    def test_infinite_score_is_data_error(self, tmp_path, capsys, column):
        # at lambda_lm 0 an lm of -inf would fuse to NaN
        rows = ["u1\t1\t-1.0\t-2.0\t-0.5\t-3.0\t▁x ▁bar",
                "u1\t2\t-2.0\t-2.0\t-0.5\t-3.0\t▁Foo ▁bar"]
        fields = rows[0].split("\t")
        fields[column] = "-inf"
        rows[0] = "\t".join(fields)
        f = self._files(tmp_path, rows=rows)
        assert self._tune(f, "--grid-lm", "0,1") == 2
        assert "non-finite" in capsys.readouterr().err
        assert self._score_nbest(f) == 2

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_fused_score_that_is_nan_is_usage_error(self, tmp_path, capsys,
                                                    order):
        # at weights 1e308, -1e308 * 5 + 1e308 * 3 is -inf - -inf for both
        # hypotheses; a NaN has no rank, so file order must not pick one
        rows = ["\t-1.0\t-5.0\t-3.0\tNA\t▁x", "\t-2.0\t-1.0\t-1.0\tNA\t▁y"]
        f = self._files(tmp_path, ref_text="x",
                        pieces=("<blank>", "▁x", "▁y"),
                        rows=["u1\t%d%s" % (rank, rows[i])
                              for rank, i in enumerate(order, 1)])
        assert self._tune(f, "--grid-lm", "1e308", "--grid-ilm", "1e308") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert only_error_line(captured.err) == (
            "twopass: invalid arguments: fused score is NaN: "
            "a fusion weight times a score overflows")

    def test_oracle_skips_hypothesis_that_does_not_detokenize(self, tmp_path,
                                                              capsys):
        # "z ▁bar" opens with a continuation token, below a clean top-1
        f = self._files(tmp_path, ref_text="foo bar",
                        pieces=("<blank>", "▁foo", "▁bar", "z"),
                        rows=["u1\t1\t-1.0\t-2.0\t-0.5\t-3.0\t▁foo ▁bar",
                              "u1\t2\t-2.0\t-2.0\t-0.5\t-3.0\tz ▁bar"])
        assert self._score_nbest(f) == 0
        assert capsys.readouterr().out == "corpus WER 0.0000\noracle WER 0.0000\n"
        assert self._tune(f) == 0
        assert capsys.readouterr().out.endswith("dev_wer=0.000000\n")

    def test_dangling_top_hypothesis_is_data_error(self, tmp_path, capsys):
        # "z ▁bar" opens with a continuation token and is every list's top
        f = self._files(tmp_path, ref_text="foo bar",
                        pieces=("<blank>", "▁foo", "▁bar", "z"),
                        rows=["u1\t1\t-1.0\t-2.0\t-0.5\t-3.0\tz ▁bar",
                              "u1\t2\t-2.0\t-2.0\t-0.5\t-3.0\t▁foo ▁bar"])
        for run in (lambda: self._tune(f, "--grid-lm", "0,1"),
                    lambda: self._score_nbest(f),
                    lambda: self._buckets(f, str(tmp_path / "b.tsv"))):
            assert run() == 2
            assert "dangling continuation token: z" in capsys.readouterr().err

    def test_duplicate_id_is_data_error(self, tmp_path, capsys):
        f = self._files(tmp_path)
        with open(f["ref.tsv"], "a", encoding="utf-8") as fh:
            fh.write("u1\tbaz\n")
        hyp = tmp_path / "hyp.tsv"
        hyp.write_text("u1\tFoo bar\n", encoding="utf-8")
        assert self._tune(f) == 2
        assert "line 2: duplicate utterance u1" in capsys.readouterr().err
        assert self._score_hyp(f, str(hyp)) == 2
        assert "line 2: duplicate utterance u1" in capsys.readouterr().err
        f = self._files(tmp_path)
        hyp.write_text("u1\tFoo bar\nu1\tbaz\n", encoding="utf-8")
        assert self._score_hyp(f, str(hyp)) == 2
        assert "hyp.tsv: line 2: duplicate utterance u1" in capsys.readouterr().err

    def test_tune_empty_nbest_is_data_error(self, tmp_path, capsys):
        f = self._files(tmp_path, rows=[])
        assert self._tune(f) == 2
        assert "list.nbest: no N-best lists" in capsys.readouterr().err


def _commands(workdir, rescored, out):
    """One argv per command, reading every kind of text input it takes."""
    def d(name):
        return str(workdir / "data" / name)

    first, vocab = str(workdir / "dev.nbest"), d("wordpieces.txt")
    return {
        "synth": ["synth", "--out-dir", out] + SYNTH_ARGS,
        "decode": ["decode", "--list", d("dev_e2e.list"), "--vocab", vocab,
                   "--lm", d("wordpiece_lm.arpa"), "--ilm", d("wordpiece_lm.arpa"),
                   "--lambda-lm", "0.1", "--out", out],
        "rescore": ["rescore", "--nbest", first, "--vocab", vocab,
                    "--list", d("dev_phoneme.list"),
                    "--phoneme-vocab", d("phonemes.txt"),
                    "--lexicon", d("lexicon.tsv"), "--word-lm", d("word_lm.arpa"),
                    "--allow-silence", "--oov", "floor", "--out", out],
        "tune": ["tune", "--nbest", str(rescored), "--ref", d("dev.tsv"),
                 "--vocab", vocab, "--report", out],
        "score": ["score", "--ref", d("dev.tsv"), "--nbest", str(rescored),
                  "--vocab", vocab, "--report", out],
        "score-hyp": ["score", "--ref", d("dev.tsv"), "--hyp", d("dev.tsv")],
        "buckets": ["buckets", "--ref", d("dev.tsv"), "--baseline-nbest", first,
                    "--fused-nbest", str(rescored), "--vocab", vocab,
                    "--lm", d("wordpiece_lm.arpa"), "--k", "2", "--report", out],
    }


_TEXT_INPUTS = [
    ("synth", "--config"),
    ("decode", "--config"), ("decode", "--list"), ("decode", "--vocab"),
    ("decode", "--lm"), ("decode", "--ilm"),
    ("rescore", "--nbest"), ("rescore", "--vocab"), ("rescore", "--list"),
    ("rescore", "--phoneme-vocab"), ("rescore", "--lexicon"),
    ("rescore", "--word-lm"),
    ("tune", "--nbest"), ("tune", "--ref"), ("tune", "--vocab"),
    ("score", "--ref"), ("score", "--nbest"), ("score", "--vocab"),
    ("score-hyp", "--hyp"),
    ("buckets", "--ref"), ("buckets", "--baseline-nbest"),
    ("buckets", "--fused-nbest"), ("buckets", "--vocab"), ("buckets", "--lm"),
]


@pytest.mark.parametrize("command,flag", _TEXT_INPUTS,
                         ids=["%s %s" % case for case in _TEXT_INPUTS])
def test_non_utf8_text_input_is_data_error(workdir, rescored, tmp_path, capsys,
                                           command, flag):
    argv = _commands(workdir, rescored, str(tmp_path / "out"))[command]
    bad = tmp_path / "latin1.txt"
    if flag == "--config":
        bad.write_bytes("# caf\u00e9\n".encode("latin-1"))
        argv = argv + [flag, str(bad)]
    else:
        at = argv.index(flag) + 1
        with open(argv[at], "rb") as fh:
            bad.write_bytes(fh.read() + "caf\u00e9\n".encode("latin-1"))
        argv = argv[:at] + [str(bad)] + argv[at + 1:]
    assert cli.main(argv) == 2
    assert "%s: not UTF-8 text" % bad in capsys.readouterr().err


@pytest.fixture(scope="module")
def demo_slice(tmp_path_factory):
    """The first 4 dev utterances of configs/demo.cfg, decoded."""
    root = tmp_path_factory.mktemp("slice")
    data = root / "data"
    assert cli.main([
        "synth", "--config", str(DEMO_CFG), "--out-dir", str(data),
        "--train-utts", "0", "--dev-utts", "4", "--test-utts", "0"]) == 0
    assert cli.main([
        "decode", "--list", str(data / "dev_e2e.list"),
        "--vocab", str(data / "wordpieces.txt"),
        "--beam", "8", "--out", str(root / "dev.nbest")]) == 0
    return root


_PIECES = ("", "\t", "\0", "\r", " ", ".", "-", "e", "0", "9", "nan", "inf",
           "-inf", "1e999", "5e-324", "NA", core.WORD_BOUNDARY, core.BLANK,
           "sil", "x")


def _mutations(text, rng):
    """Seeded edits of a text file: each piece put in place of a random
    tab field or spliced into a random line, then a dropped, a repeated and
    a swapped line, a truncation and an emptied file."""
    lines = text.split("\n")
    for piece in _PIECES:
        out = list(lines)
        i = rng.randrange(len(out))
        if rng.random() < 0.5:
            fields = out[i].split("\t")
            fields[rng.randrange(len(fields))] = piece
            out[i] = "\t".join(fields)
        else:
            k = rng.randrange(len(out[i]) + 1)
            out[i] = out[i][:k] + piece + out[i][k + rng.randrange(2):]
        yield "\n".join(out)
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    yield "\n".join(lines[:i] + lines[i + 1:])
    yield "\n".join(lines[:i] + [lines[j]] + lines[i:])
    swapped = list(lines)
    swapped[i], swapped[j] = lines[j], lines[i]
    yield "\n".join(swapped)
    yield text[:rng.randrange(len(text))]
    yield ""


def _codes_on_mutated_inputs(command, inputs, rng, capsys):
    """Exit codes of command run on each seeded mutation of each input file,
    the other inputs kept intact; each must be 0 or 2."""
    codes = []
    for flag, original in inputs.items():
        mutant = original.with_name("mutant" + original.suffix)
        for text in _mutations(original.read_text(encoding="utf-8"), rng):
            mutant.write_text(text, encoding="utf-8", newline="")
            argv = list(command)
            for name, path in inputs.items():
                argv += [name, str(mutant if name == flag else path)]
            code = cli.main(argv)
            assert code in (0, 2), (
                command[0], flag, repr(text), capsys.readouterr().err)
            codes.append(code)
    return codes


def test_rescore_exits_0_or_2_on_mutated_inputs(demo_slice, tmp_path, capsys):
    data = demo_slice / "data"
    inputs = {"--nbest": demo_slice / "dev.nbest",
              "--vocab": data / "wordpieces.txt",
              "--list": data / "dev_phoneme.list",
              "--phoneme-vocab": data / "phonemes.txt",
              "--lexicon": data / "lexicon.tsv"}
    codes = _codes_on_mutated_inputs(
        ["rescore", "--allow-silence", "--oov", "floor",
         "--out", str(tmp_path / "out.nbest")], inputs, random.Random(2), capsys)
    assert 0 in codes and 2 in codes


def _fpm_faults(blob):
    """A valid FPM1 file's bytes broken one way each: truncated, bad magic,
    T or V off by one, T = 0, a trailing byte, a NaN, an inf and an
    unnormalized row."""
    t, v = struct.unpack("<II", blob[4:12])
    yield blob[:len(blob) // 2]
    yield b"FPM2" + blob[4:]
    for dt, dv in ((1, 0), (-1, 0), (0, 1), (0, -1), (-t, 0)):
        yield blob[:4] + struct.pack("<II", t + dt, v + dv) + blob[12:]
    yield blob + b"\0"
    for value in (float("nan"), float("inf"), 0.0):
        yield blob[:12] + struct.pack("<f", value) * v + blob[12 + 4 * v:]


def test_decode_exits_0_or_2_on_mutated_inputs(demo_slice, tmp_path, capsys):
    data = demo_slice / "data"
    pieces = [s for s in core.load_vocabulary(str(data / "wordpieces.txt")).symbols
              if s != core.BLANK]
    sents = [[core.WORD_BOUNDARY + w for w in words]
             for _, words in core.load_transcripts(str(data / "dev.tsv"))]
    lm, ilm = tmp_path / "lm.arpa", tmp_path / "ilm.arpa"
    write_arpa(train_add_one(sents, 2, vocabulary=pieces), str(lm))
    write_arpa(train_add_one(sents, 1, vocabulary=pieces), str(ilm))
    inputs = {"--list": data / "dev_e2e.list", "--vocab": data / "wordpieces.txt",
              "--lm": lm, "--ilm": ilm}
    command = ["decode", "--beam", "4", "--lambda-lm", "0.5", "--lambda-ilm", "0.2",
               "--out", str(tmp_path / "out.nbest")]
    codes = _codes_on_mutated_inputs(command, inputs, random.Random(4), capsys)
    assert 0 in codes and 2 in codes

    (_, fpm), *_ = core.load_manifest(str(data / "dev_e2e.list"))
    mutant = tmp_path / "mutant.fpm"
    for blob in _fpm_faults(Path(fpm).read_bytes()):
        mutant.write_bytes(blob)
        argv = command + ["--posteriors", str(mutant)]
        for name in ("--vocab", "--lm", "--ilm"):
            argv += [name, str(inputs[name])]
        assert cli.main(argv) == 2, (blob[:12], capsys.readouterr().err)


def test_tune_score_buckets_exit_0_or_2_on_mutated_inputs(demo_slice, tmp_path,
                                                          capsys):
    data = demo_slice / "data"
    vocab = str(data / "wordpieces.txt")
    rescored, lm = tmp_path / "resc.nbest", tmp_path / "bucket.arpa"
    assert cli.main([
        "rescore", "--nbest", str(demo_slice / "dev.nbest"), "--vocab", vocab,
        "--list", str(data / "dev_phoneme.list"),
        "--phoneme-vocab", str(data / "phonemes.txt"),
        "--lexicon", str(data / "lexicon.tsv"), "--allow-silence",
        "--oov", "floor", "--out", str(rescored)]) == 0
    pieces = [[core.WORD_BOUNDARY + w for w in words]
              for _, words in core.load_transcripts(str(data / "dev.tsv"))]
    write_arpa(train_add_one(pieces, 2), str(lm))
    ref = {"--ref": data / "dev.tsv"}
    out = str(tmp_path / "out.tsv")
    rng = random.Random(3)
    runs = [
        (["tune", "--vocab", vocab, "--grid-am", "0,1", "--grid-lm", "0,1",
          "--report", out], {"--nbest": rescored, **ref}),
        (["score", "--vocab", vocab, "--report", out],
         {"--nbest": rescored, **ref}),
        (["buckets", "--vocab", vocab, "--k", "1", "--report", out],
         {"--baseline-nbest": demo_slice / "dev.nbest", "--fused-nbest": rescored,
          "--lm": lm, **ref}),
    ]
    for command, inputs in runs:
        codes = _codes_on_mutated_inputs(command, inputs, rng, capsys)
        assert 0 in codes and 2 in codes, command[0]


class TestTopLevel:

    def test_no_subcommand(self):
        assert cli.main([]) == 1

    def test_unknown_subcommand(self):
        assert cli.main(["frobnicate"]) == 1

    def test_help_exits_zero(self):
        assert cli.main(["--help"]) == 0

    def test_module_entry_point(self, workdir):
        ref = str(workdir / "data" / "dev.tsv")
        proc = subprocess.run(
            [sys.executable, "-m", "twopass", "score",
             "--ref", ref, "--hyp", ref],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "corpus WER 0.0000" in proc.stdout
        assert "effective config" in proc.stderr
