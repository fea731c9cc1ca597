"""Tests for the key = value run configuration."""

import ast
import dataclasses
from pathlib import Path

import pytest

from progemb import cli
from progemb.config import RunConfig, load_config, parse_config, serialize_config


class TestParse:
    def test_empty_text_gives_defaults(self):
        assert parse_config("") == RunConfig()

    def test_overrides_apply(self):
        cfg = parse_config("embed_dim = 32\ntau = 0.5\nloss_mode = infonce\n")
        assert cfg.embed_dim == 32
        assert cfg.tau == 0.5
        assert cfg.loss_mode == "infonce"

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# a comment\n\n  \nseed = 7\n")
        assert cfg.seed == 7

    def test_spaces_around_equals_optional(self):
        assert parse_config("seed=3").seed == 3
        assert parse_config("seed   =   3").seed == 3

    def test_bool_coercion(self):
        assert parse_config("include_zero_relevant = true").include_zero_relevant
        assert not parse_config("include_zero_relevant = false").include_zero_relevant

    def test_bad_bool_rejected(self):
        with pytest.raises(ValueError, match="true or false"):
            parse_config("include_zero_relevant = yes")

    def test_bad_int_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            parse_config("embed_dim = 4.5")

    def test_bad_float_rejected(self):
        with pytest.raises(ValueError, match="number"):
            parse_config("tau = warm")

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ValueError, match="line 2: unknown key 'embeddim'"):
            parse_config("seed = 1\nembeddim = 4\n")

    def test_vocab_limit_is_gone(self):
        """A vocabulary holds every token of its texts; no key cuts it."""
        with pytest.raises(ValueError, match="line 1: unknown key 'vocab_limit'"):
            parse_config("vocab_limit = 0")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate key 'seed'"):
            parse_config("seed = 1\nseed = 2\n")

    def test_line_without_equals_rejected(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_config("just words\n")

    def test_value_may_contain_equals(self):
        cfg = parse_config("query_prefix = q=search")
        assert cfg.query_prefix == "q=search"


class TestValidate:
    @pytest.mark.parametrize(
        "line,fragment",
        [
            ("embed_dim = 0", "embed_dim"),
            ("tau = 0", "tau"),
            ("tau = -1", "tau"),
            ("alpha = 0", "alpha"),
            ("alpha = 1.5", "alpha"),
            ("beta = -0.1", "beta"),
            ("mask_ratio = 1.0", "mask_ratio"),
            ("bench_noise_rate = 1.5", "bench_noise_rate"),
            ("judge_threshold = 2.0", "judge_threshold"),
            ("optimizer = lbfgs", "optimizer"),
            ("loss_mode = triplet", "loss_mode"),
            ("judge = oracle", "judge"),
            ("finetune_lr = 0", "finetune_lr"),
            ("mining_k = 0", "mining_k"),
            ("bench_seeds = 0", "bench_seeds"),
        ],
    )
    def test_out_of_range_values_rejected(self, line, fragment):
        with pytest.raises(ValueError, match=fragment):
            parse_config(line)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_non_finite_float_rejected_by_name(self, raw):
        """A NaN passed the > 0 and >= 0 checks; no float key allows an
        infinity. Either is refused before any range check, by its key."""
        floats = [f.name for f in dataclasses.fields(RunConfig) if f.type == "float"]
        assert len(floats) == 9
        for name in floats:
            with pytest.raises(ValueError, match=f"config: {name} must be finite, got {raw}"):
                parse_config(f"{name} = {raw}")

    def test_alpha_one_allowed(self):
        assert parse_config("alpha = 1.0").alpha == 1.0

    def test_negative_judge_threshold_allowed(self):
        assert parse_config("judge_threshold = -0.5").judge_threshold == -0.5

    def test_string_field_with_newline_rejected(self):
        cfg = dataclasses.replace(RunConfig(), out_dir="a\nb")
        with pytest.raises(ValueError, match="out_dir"):
            cfg.validate()


class TestRoundTrip:
    def test_default_round_trip_identity(self):
        cfg = RunConfig()
        assert parse_config(serialize_config(cfg)) == cfg

    def test_modified_round_trip_identity(self):
        cfg = dataclasses.replace(
            RunConfig(),
            corpus_path="/data/docs.jsonl",
            embed_dim=48,
            tau=0.07,
            finetune_lr=1e-3,
            mask_ratio=0.15,
            loss_mode="infonce",
            optimizer="sgd",
            include_zero_relevant=True,
            query_prefix="query:",
            seed=1234,
        )
        assert parse_config(serialize_config(cfg)) == cfg

    def test_float_repr_survives(self):
        # repr keeps enough digits that awkward floats come back bit-equal
        cfg = dataclasses.replace(RunConfig(), tau=0.1 + 0.2)
        back = parse_config(serialize_config(cfg))
        assert back.tau == cfg.tau

    def test_serialized_text_is_parseable_line_per_field(self):
        text = serialize_config(RunConfig())
        lines = [l for l in text.splitlines() if l]
        assert len(lines) == len(dataclasses.fields(RunConfig))
        assert all(" = " in l for l in lines)


class TestLoad:
    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 42\n")
        assert load_config(path).seed == 42

    def test_load_error_names_path(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("bogus = 1\n")
        with pytest.raises(ValueError, match="run.cfg"):
            load_config(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_config(tmp_path / "absent.cfg")


class TestEveryOptionIsRead:
    def test_cli_reads_every_field(self):
        """A config key that no command reads is a dead option: each field
        must appear as `cfg.<field>` somewhere in the command driver."""
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        read = {
            node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "cfg"
        }
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        assert fields - read == set()
