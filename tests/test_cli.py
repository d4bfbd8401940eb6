import contextlib
import hashlib
import json
import os
import signal
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tcovis import ste, synth
from tcovis.cli import _demo_inputs, _load_demo_config, _load_run_config, main
from tcovis.model import load_corpus, save_corpus, validate
from tcovis.rng import stream

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, name="cfg.json", **overrides):
    doc = json.loads((CONFIG_DIR / "small.json").read_text())
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


@contextlib.contextmanager
def time_limit(seconds):
    """Fail, rather than hang, when the block runs longer than `seconds`."""
    def expire(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestGen:
    def test_generates_valid_corpus(self, tmp_path, capsys):
        cfg = write_config(tmp_path, clips=3)
        out = tmp_path / "corpus.json"
        assert main(["gen", str(cfg), "--out", str(out)]) == 0
        assert out.exists()
        corpus = load_corpus(out)
        assert len(corpus.clips) == 3
        assert validate(corpus) == []
        assert "clips=3" in capsys.readouterr().out

    def test_checksum_is_reproducible(self, tmp_path, capsys):
        cfg = write_config(tmp_path, clips=2)
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        main(["gen", str(cfg), "--out", str(first)])
        line_a = capsys.readouterr().out
        main(["gen", str(cfg), "--out", str(second)])
        line_b = capsys.readouterr().out
        assert line_a.split("sha256=")[1] == line_b.split("sha256=")[1]
        assert first.read_bytes() == second.read_bytes()

    def test_matches_library_corpus(self, tmp_path):
        cfg_path = write_config(tmp_path, clips=2)
        out = tmp_path / "cli.json"
        assert main(["gen", str(cfg_path), "--out", str(out)]) == 0
        cfg = _load_run_config(cfg_path)
        library = tmp_path / "library.json"
        save_corpus(synth.generate_corpus(cfg["scene"], cfg["noise"], cfg["clips"],
                                          cfg["seed"]), library)
        assert out.read_bytes() == library.read_bytes()

    @pytest.mark.parametrize("config, digest", [
        ("small.json", "9c2024580f4b42d7bfb7149bbe555e0c3ce1d6a9dc486cd0389371f71cd66a38"),
        ("swap.json", "4dbdbcd4e27d86df92b620a2876c89e788c527bedeee1a62356017a5b5ea78e2"),
    ])
    def test_golden_corpus_digest(self, tmp_path, capsys, config, digest):
        assert main(["gen", str(CONFIG_DIR / config), "--out", str(tmp_path / "c.json")]) == 0
        assert capsys.readouterr().out.split("sha256=")[1].strip() == digest

    # staggered entry frames, mask jitter with early swap, and 40 slots
    # (crowded-clips) are met by no config in configs/
    @pytest.mark.parametrize("workload, digest", [
        ("swap-corpus", "c61201ea53014a94c70b1d85a68c4aa98d58db0777735589f09f8503ad828f93"),
        ("crowded-clips", "439a2c51e0a1858d4825e01a35f10a2a74326233669289630a3ff94fb693b04f"),
    ])
    def test_golden_corpus_digest_at_the_benchmark_specs(self, tmp_path, capsys,
                                                         benchmark_config, workload, digest):
        config = benchmark_config(workload, 5)
        assert main(["gen", str(config), "--out", str(tmp_path / "c.json")]) == 0
        assert capsys.readouterr().out.split("sha256=")[1].strip() == digest

    def test_seed_flag_is_refused(self, tmp_path, capsys):
        # the seed comes from the config alone
        out = tmp_path / "c.json"
        assert main(["gen", str(write_config(tmp_path, clips=2)), "--out", str(out),
                     "--seed", "5"]) == 2
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_exits_one(self, tmp_path, capsys, seed):
        # folded to 64 bits, -1 and 2**64 would give the clips of 2**64 - 1 and 0
        out = tmp_path / "c.json"
        assert main(["gen", str(write_config(tmp_path, clips=2, seed=seed)),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: seed must be in [0, 2**64), got {seed}\n"
        assert not out.exists()

    def test_bad_object_count_names_field(self, tmp_path, capsys):
        doc = json.loads((CONFIG_DIR / "small.json").read_text())
        doc["scene"]["n_objects"] = [2, 40]
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        code = main(["gen", str(cfg), "--out", str(tmp_path / "x.json")])
        assert code == 1
        assert "n_objects" in capsys.readouterr().err

    @pytest.mark.parametrize("section, name", [
        (None, "config"), ("spec", "spec"), ("scene", "scene"), ("noise", "noise"),
        ("demo", "demo config"),
    ], ids=["top-level", "spec", "scene", "noise", "demo-config"])
    def test_unknown_field_rejected(self, tmp_path, capsys, section, name):
        config = "enhance.json" if section == "demo" else "small.json"
        doc = json.loads((CONFIG_DIR / config).read_text())
        (doc if section in (None, "demo") else doc[section])["frobnicate"] = 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "x.json"
        if section == "demo":
            code = main(["enhance", "--demo", str(cfg), "--out", str(out)])
        else:
            code = main(["gen", str(cfg), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "frobnicate" in err
        assert err == f"error: unknown field 'frobnicate' in {name}\n"
        assert not out.exists()

    # the thread count is --threads and the loss weights are --weights alone
    @pytest.mark.parametrize("key, value", [
        ("weights", {"lambda_cls": 2.0, "lambda_bce": 5.0, "lambda_dice": 5.0}),
        ("threads", 1),
    ], ids=["weights", "threads"])
    def test_retired_field_rejected(self, tmp_path, capsys, key, value):
        out = tmp_path / "x.json"
        assert main(["gen", str(write_config(tmp_path, clips=2, **{key: value})),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: unknown field '{key}' in config\n"
        assert not out.exists()

    def test_config_that_is_not_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "five.json"
        cfg.write_text("5")
        code = main(["gen", str(cfg), "--out", str(tmp_path / "x.json")])
        assert code == 1
        assert capsys.readouterr().err == "error: config must be an object, got int\n"

    @pytest.mark.parametrize("clips", [0, -2])
    def test_non_positive_clip_count_rejected(self, tmp_path, capsys, clips):
        cfg = write_config(tmp_path, clips=clips)
        out = tmp_path / "x.json"
        assert main(["gen", str(cfg), "--out", str(out)]) == 1
        assert "error: clips must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, value, reason", [
        ("clips", 2.7, "clips must be an integer, got 2.7"),
        ("spec", {"S": True}, "S must be an integer, got True"),
        ("seed", 7.0, "seed must be an integer, got 7.0"),
        ("version", True, "version must be an integer, got True"),
        ("version", 1.0, "version must be an integer, got 1.0"),
        ("noise", {"swap_frame": 2.7}, "swap_frame must be an integer, got 2.7"),
        ("scene", {"size": [1.9, 2]}, "size must be an integer, got 1.9"),
        ("scene", {"n_objects": ["2", "3"]}, "n_objects must be an integer, got '2'"),
        ("scene", {"velocity": ["0.5", 1.0]}, "velocity must be a number, got '0.5'"),
        ("noise", {"mask_jitter": "0.1"}, "mask_jitter must be a number, got '0.1'"),
        ("noise", {"sharpness": True}, "sharpness must be a number, got True"),
        ("scene", {"allow_occlusion": "no"}, "allow_occlusion must be true or false, got 'no'"),
        ("scene", {"n_objects": [2, 3, 9]}, "n_objects must be a [lo, hi] pair, got [2, 3, 9]"),
        ("scene", {"n_objects": [2]}, "n_objects must be a [lo, hi] pair, got [2]"),
        ("scene", {"size": []}, "size must be a [lo, hi] pair, got []"),
        ("scene", {"velocity": [0.5, float("inf")]}, "velocity must be finite, got inf"),
        ("noise", {"sharpness": float("inf")}, "sharpness must be finite, got inf"),
        ("noise", {"sharpness": 10**309}, f"sharpness must be finite, got {10**309}"),
        ("scene", {"shapes": 5}, "shapes must be a list of shape names, got 5"),
        ("scene", {"shapes": "disc"}, "shapes must be a list of shape names, got 'disc'"),
        ("spec", {"H": 10**400}, f"H must be >= 1 and < 2**63, got {10**400}"),
        ("spec", {"H": 28, "W": 28}, "size max 3 and velocity max 1.5: an object and one "
         "step cannot fit the 7x7 grid"),
        ("scene", {"velocity": [0.5, 1e9]}, "size max 3 and velocity max 1000000000.0: an "
         "object and one step cannot fit the 16x16 grid"),
        ("noise", {"swap_mode": "early_swap", "swap_frame": 7}, "swap_frame 7 exceeds T=6"),
        (("scene", "noise"), ({"n_objects": [1, 1]}, {"swap_mode": "early_swap"}),
         "early_swap needs at least two ground-truth tracks"),
        ("scene", {"n_objects": [6, 6], "size": [6, 6], "velocity": [0, 0.5],
                   "allow_occlusion": False}, "could not generate a valid scene in 256 attempts"),
    ], ids=["clips-float", "S-bool", "seed-float", "version-bool", "version-float",
            "swap_frame-float", "size-float", "n_objects-strings", "velocity-string",
            "mask_jitter-string", "sharpness-bool", "allow_occlusion-string", "n_objects-three",
            "n_objects-one", "size-empty", "velocity-infinite",
            "sharpness-infinite", "sharpness-beyond-float64", "shapes-int", "shapes-string",
            "H-beyond-int64", "no-room-to-move", "velocity-beyond-grid", "swap_frame-beyond-T",
            "early_swap-one-object", "scene-unsatisfiable"])
    def test_non_integer_number_rejected(self, tmp_path, capsys, field, value, reason):
        # `field` names one section, or a tuple of sections each with its own value
        doc = json.loads((CONFIG_DIR / "small.json").read_text())
        for section, update in zip(field, value) if isinstance(field, tuple) else [(field, value)]:
            if isinstance(update, dict):
                doc[section].update(update)
            else:
                doc[section] = update
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "x.json"
        with time_limit(10):    # `synth._reflect` loops long or forever on a step beyond its range
            assert main(["gen", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {reason}\n"
        assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["gen", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "x.json")])
        assert code == 1
        assert "no such file" in capsys.readouterr().err


def gen_corpus(tmp_path, config_name="small.json", clips=4, **noise_overrides):
    doc = json.loads((CONFIG_DIR / config_name).read_text())
    doc["clips"] = clips
    if noise_overrides:
        doc["noise"].update(noise_overrides)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "corpus.json"
    assert main(["gen", str(cfg), "--out", str(out)]) == 0
    return out


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestAssign:
    # sha256 of <prefix>.json (the digest the command prints) and <prefix>.csv
    @pytest.mark.parametrize("config, strategy, json_digest, csv_digest", [
        ("small.json", "gia",
         "1a35279a03ae47e18ddbd43df575d8fd6333781430d182cbbcab67536a9bf010",
         "36f39df4d4e816a2ff8342d69d585b71a0dd5a2055a3a9ddeebc7a1e46db717b"),
        ("small.json", "locpro",
         "229917af0eba8fd2461e7cd7e9b8d4d79de13a354a5961e85f96d5dfc5e5a1ae",
         "81f07904525dfa2e6b049e030e3442b5cf7965c43c97e4b22fab1911d166ce63"),
        ("small.json", "both",
         "b93a68e8c6780d4084283b8107cbec62bed3fd0222df58402f5aea6869d9b9b2",
         "b520a06c9555fd5c8fe902dec6504818d6d58e18531d895e4324f2ad6bf4485f"),
        ("swap.json", "gia",
         "8aace5f4147bb294c0c07f3a9df9ad0e5ce8ff08f006bf6c3cbdbdacea2e166c",
         "8aaf1fe126962be12c37e2e4cad5c4f69377833c710e11c5cf09e3950f468f35"),
        ("swap.json", "locpro",
         "1e113908a9e6fd5be42f8b5f406b6f4bb794cc8f3c53a12224219a00ad2d1eef",
         "4df07b5bce1b88f09e560f599780838244f530d6784b41b9d65c517da7f7dc79"),
        ("swap.json", "both",
         "1f4b2b0465186fc2d685e05512faf6f538a100f52ef2954abff26f83ad3c6366",
         "9e7df72f96c04b566cc7b8ed9977902a387a3c407067476806791e3c275fc755"),
    ], ids=["small-gia", "small-locpro", "small-both", "swap-gia", "swap-locpro", "swap-both"])
    def test_golden_output_digests(self, tmp_path, capsys, config, strategy,
                                   json_digest, csv_digest):
        corpus = tmp_path / "c.json"
        assert main(["gen", str(CONFIG_DIR / config), "--out", str(corpus)]) == 0
        capsys.readouterr()
        prefix = tmp_path / "audit"
        assert main(["assign", str(corpus), "--strategy", strategy,
                     "--out-prefix", str(prefix)]) == 0
        assert capsys.readouterr().out.split("sha256=")[1].strip() == json_digest
        assert file_digest(tmp_path / "audit.json") == json_digest
        assert file_digest(tmp_path / "audit.csv") == csv_digest

    def test_zero_noise_deltas_vanish(self, tmp_path):
        corpus = gen_corpus(tmp_path, clips=3, mask_jitter=0.0, class_confusion=0.0)
        prefix = tmp_path / "audit"
        assert main(["assign", str(corpus), "--strategy", "both",
                     "--out-prefix", str(prefix)]) == 0
        doc = json.loads((tmp_path / "audit.json").read_text())
        for row in doc["clips"]:
            assert row["delta"] == pytest.approx(0.0, abs=1e-9)
            assert row["agreement"] == 1.0

    def test_early_swap_deltas_positive(self, tmp_path):
        corpus = gen_corpus(tmp_path, "swap.json", clips=4)
        prefix = tmp_path / "audit"
        assert main(["assign", str(corpus), "--strategy", "both",
                     "--out-prefix", str(prefix)]) == 0
        doc = json.loads((tmp_path / "audit.json").read_text())
        for row in doc["clips"]:
            assert row["delta"] > 0.0
        csv_lines = (tmp_path / "audit.csv").read_text().strip().split("\n")
        assert csv_lines[0] == "clip,gia_cost,locpro_cost,agreement,delta"
        assert len(csv_lines) == 5

    def test_single_strategy_output(self, tmp_path):
        corpus = gen_corpus(tmp_path, clips=2)
        prefix = tmp_path / "gia"
        assert main(["assign", str(corpus), "--strategy", "gia",
                     "--out-prefix", str(prefix)]) == 0
        doc = json.loads((tmp_path / "gia.json").read_text())
        assert all("locpro" not in row for row in doc["clips"])

    def test_unknown_strategy_is_usage_error(self, tmp_path, capsys):
        corpus = gen_corpus(tmp_path, clips=2)
        code = main(["assign", str(corpus), "--strategy", "psychic",
                     "--out-prefix", str(tmp_path / "x")])
        assert code == 2

    def test_nan_class_probability_fails_validation(self, tmp_path, capsys):
        corpus = gen_corpus(tmp_path, clips=2)
        doc = json.loads(corpus.read_text())
        doc["clips"][0]["pred"][1]["class_probs"][0][0] = float("nan")
        corpus.write_text(json.dumps(doc))
        code = main(["assign", str(corpus), "--out-prefix", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "clip 0 pred[1] frame 0: non-finite class probability" in err

    def test_corpus_without_predictions_fails(self, tmp_path, capsys):
        doc = json.loads((CONFIG_DIR / "small.json").read_text())
        doc["noise"] = None
        doc["clips"] = 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        corpus = tmp_path / "corpus.json"
        main(["gen", str(cfg), "--out", str(corpus)])
        code = main(["assign", str(corpus), "--out-prefix", str(tmp_path / "x")])
        assert code == 1
        assert "predictions" in capsys.readouterr().err


def without(*path):
    """A corpus mutation that deletes the key at `path`."""
    def mutate(doc):
        for key in path[:-1]:
            doc = doc[key]
        del doc[path[-1]]
    return mutate


def setting(*path, value):
    """A corpus mutation that sets the key at `path` to `value`, adding it if
    it is not there."""
    def mutate(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return mutate


class TestMalformedCorpus:
    """Malformed corpora exit 1 with a named reason from both corpus
    subcommands, never a traceback."""

    @staticmethod
    def clips_not_a_list(doc):
        doc["clips"] = 3

    @staticmethod
    def gt_not_a_list(doc):
        doc["clips"][0]["gt"] = 5

    @staticmethod
    def mask_probs_null(doc):
        doc["clips"][0]["pred"][0]["mask_probs"] = None

    @staticmethod
    def pred_a_string(doc):
        doc["clips"][0]["pred"] = "x"

    @staticmethod
    def more_gt_than_slots(doc):
        clip = doc["clips"][0]
        assert len(clip["gt"]) >= 2
        clip["pred"] = clip["pred"][:1]

    @staticmethod
    def fractional_class_id(doc):
        doc["clips"][0]["gt"][0]["class_id"] = 1.9

    @staticmethod
    def boolean_class_id(doc):
        doc["clips"][0]["gt"][0]["class_id"] = True

    @staticmethod
    def fractional_seed(doc):
        doc["seed"] = 7.5

    @staticmethod
    def negative_seed(doc):
        doc["seed"] = -1

    @staticmethod
    def fractional_rle_size(doc):
        doc["clips"][0]["gt"][1]["masks"][2]["size"][0] = 16.5

    @staticmethod
    def long_rle_counts(doc):
        doc["clips"][1]["gt"][1]["masks"][3]["counts"][0] += 1

    @staticmethod
    def huge_int_mask_prob(doc):
        doc["clips"][0]["pred"][1]["mask_probs"][2][5] = 10**400

    @staticmethod
    def huge_int_class_prob(doc):
        doc["clips"][1]["pred"][0]["class_probs"][3][0] = 10**400

    @staticmethod
    def ragged_mask_row(doc):
        doc["clips"][0]["pred"][1]["mask_probs"][2].pop()

    @staticmethod
    def no_mask_rows(doc):
        doc["clips"][1]["pred"][2]["mask_probs"] = []

    @staticmethod
    def quoted_class_prob(doc):
        row = doc["clips"][0]["pred"][1]["class_probs"][0]
        row[0] = str(row[0])

    @staticmethod
    def true_mask_prob(doc):
        doc["clips"][1]["pred"][0]["mask_probs"][3][7] = True

    @staticmethod
    def oversized_rle(doc):
        doc["clips"][0]["gt"][0]["masks"][0] = {"size": [4096, 4096], "counts": [4096 * 4096]}

    @staticmethod
    def boolean_class_row(doc):
        row = doc["clips"][0]["pred"][2]["class_probs"][4]
        row[:] = [k == 0 for k in range(len(row))]

    @pytest.mark.parametrize("command", ["assign", "eval"])
    @pytest.mark.parametrize("mutate, reason", [
        (clips_not_a_list, "clips must be a list, got int"),
        (gt_not_a_list, "clip 0 gt must be a list, got int"),
        (mask_probs_null, "clip 0 pred[0] mask_probs must be a list, got NoneType"),
        (pred_a_string, "clip 0 pred must be a list or null, got str"),
        (more_gt_than_slots, "ground-truth tracks exceed 1 prediction slots"),
        (fractional_class_id, "clip 0 gt[0] class_id must be an integer, got 1.9"),
        (boolean_class_id, "clip 0 gt[0] class_id must be an integer, got True"),
        (fractional_seed, "seed must be an integer, got 7.5"),
        (negative_seed, ": seed must be in [0, 2**64), got -1\n"),
        (fractional_rle_size, "RLE size and counts must be integers, got 16.5"),
        (long_rle_counts, ": clip 1 gt[1] masks[3]: RLE counts sum to 257, expected 256\n"),
        (oversized_rle, ": clip 0 gt[0] masks[0]: RLE size (4096, 4096) != (16, 16)\n"),
        (huge_int_mask_prob, ": clip 0 pred[1] mask_probs: "),
        (huge_int_class_prob, ": clip 1 pred[0] class_probs: "),
        (ragged_mask_row, ": clip 0 pred[1] mask_probs: "),
        (no_mask_rows, ": clip 1 pred[2]: mask_probs shape (0, 16, 16) != (6, 16, 16)\n"),
        (without("seed"), ": corpus document is missing field 'seed'\n"),
        (without("clips", 0, "gt"), ": clip 0 is missing field 'gt'\n"),
        (without("clips", 1, "gt", 0, "masks"), ": clip 1 gt[0] is missing field 'masks'\n"),
        (without("clips", 0, "gt", 1, "class_id"),
         ": clip 0 gt[1] is missing field 'class_id'\n"),
        (without("clips", 0, "pred", 2, "class_probs"),
         ": clip 0 pred[2] is missing field 'class_probs'\n"),
        (without("clips", 1, "pred", 0, "mask_probs"),
         ": clip 1 pred[0] is missing field 'mask_probs'\n"),
        (quoted_class_prob, ": clip 0 pred[1] class_probs: entries must be numbers"),
        (true_mask_prob, ": clip 1 pred[0] mask_probs: entries must be numbers"),
        (boolean_class_row, ": clip 0 pred[2] class_probs: entries must be numbers"),
        (setting("clips", 0, "gt", 0, "masks", value=[]),
         ": corpus failed validation: clip 0 gt[0]: mask count 0 != T=6\n"),
        (setting("extra", value=1), ": unknown field 'extra' in corpus document\n"),
        (setting("spec", "T2", value=6), ": unknown field 'T2' in spec\n"),
        (setting("clips", 1, "note", value=""), ": unknown field 'note' in clip 1\n"),
        (setting("clips", 0, "gt", 1, "score", value=0.5),
         ": unknown field 'score' in clip 0 gt[1]\n"),
        (setting("clips", 1, "pred", 2, "boxes", value=[]),
         ": unknown field 'boxes' in clip 1 pred[2]\n"),
        (setting("generator", value=[1]), ": generator must be an object, got list\n"),
        (setting("generator", value=None), ": generator must be an object, got NoneType\n"),
    ], ids=["clips", "gt", "mask_probs", "pred", "slots", "class_id-float", "class_id-bool",
            "seed-float", "seed-negative", "rle-size-float", "rle-counts-located", "rle-size-oversized",
            "mask_probs-huge-int", "class_probs-huge-int", "mask_probs-ragged", "mask_probs-empty",
            "seed-missing", "gt-missing", "masks-missing", "class_id-missing",
            "class_probs-missing", "mask_probs-missing", "class_probs-quoted", "mask_probs-true",
            "class_probs-boolean-row", "masks-empty", "unknown-top", "unknown-spec",
            "unknown-clip", "unknown-gt", "unknown-pred", "generator-list", "generator-null"])
    def test_exits_one_with_reason(self, tmp_path, capsys, command, mutate, reason):
        corpus = gen_corpus(tmp_path, clips=2)
        doc = json.loads(corpus.read_text())
        mutate(doc)
        corpus.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main([command, str(corpus), "--out-prefix", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert reason in err

    @pytest.mark.parametrize("command", ["assign", "eval"])
    @pytest.mark.parametrize("distinct", [False, True], ids=["memo", "fallback"])
    def test_truncated_corpus_exits_one(self, tmp_path, capsys, decode_calls, command, distinct):
        corpus = gen_corpus(tmp_path, clips=2)
        if distinct:    # more distinct floats than the loader's memo holds
            loaded = load_corpus(corpus)
            rng = np.random.default_rng(0)
            first = loaded.clips[0]
            pred = tuple(replace(t, mask_probs=rng.random(t.mask_probs.shape)) for t in first.pred)
            save_corpus(replace(loaded, clips=(replace(first, pred=pred),) + loaded.clips[1:]),
                        corpus)
        text = corpus.read_text()
        corpus.write_text(text[:len(text) * 3 // 4])
        capsys.readouterr()
        decode_calls.clear()
        assert main([command, str(corpus), "--out-prefix", str(tmp_path / "x")]) == 1
        assert decode_calls == ([True, False] if distinct else [True])
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot load corpus {corpus}: ")


class TestErrorBoundary:
    """`main` turns only a ValueError, OSError or MemoryError into `error:`
    and exit 1; any other exception is a fault of the program and propagates."""

    def test_allocation_beyond_any_address_space(self, tmp_path, capsys):
        # two or more 1 x 2**30 x 2**30 uint8 rasters are at least 2 EiB, beyond
        # a 47- or 57-bit address space, so the allocation fails at once
        spec = {"T": 1, "H": 2**30, "W": 2**30, "S": 1, "K": 3, "N_v": 6, "C": 16}
        out = tmp_path / "x.json"
        assert main(["gen", str(write_config(tmp_path, clips=1, spec=spec)),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
        assert not out.exists()

    def test_bench_is_not_a_subcommand(self, tmp_path, capsys, monkeypatch):
        # timing lives in perfbench/, the 100x120 budget in acceptance criterion 8
        monkeypatch.chdir(tmp_path)
        assert main(["bench"]) == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_message_less_memory_error_names_its_class(self, tmp_path, monkeypatch, capsys):
        # `list(range(2**62))` raises a MemoryError with an empty message
        def fail(*args):
            raise MemoryError()
        monkeypatch.setattr(synth, "build_clip", fail)
        out = tmp_path / "x.json"
        assert main(["gen", str(write_config(tmp_path, clips=2)), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: MemoryError\n"
        assert not out.exists()

    @pytest.mark.parametrize("exc", [TypeError, KeyError, IndexError, RuntimeError])
    def test_program_fault_propagates(self, tmp_path, monkeypatch, exc):
        def fail(*args):
            raise exc("fault")
        monkeypatch.setattr(synth, "build_clip", fail)
        with pytest.raises(exc, match="fault"):
            main(["gen", str(write_config(tmp_path, clips=2)), "--out", str(tmp_path / "x.json")])


class TestHugeLossWeights:
    """Weights whose largest cost overflows float64 are refused where they are
    named, before any cost is priced: exit 1 with one `error:` line, even when
    every RuntimeWarning is an error."""

    @pytest.mark.parametrize("command", ["assign", "eval"])
    def test_overflowing_weights_exit_one_without_a_warning(self, tmp_path, command):
        corpus = gen_corpus(tmp_path)
        env = dict(os.environ, PYTHONPATH=str(CONFIG_DIR.parent / "src"))
        env.pop("PYTHONWARNINGS", None)
        result = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                                 "tcovis.cli", command, str(corpus), "--weights", "1e308",
                                 "1e308", "1e308", "--out-prefix", str(tmp_path / "w")],
                                env=env, capture_output=True, text=True, timeout=300)
        assert result.returncode == 1
        assert result.stderr == ("error: loss weights lambda_cls=1e+308, lambda_bce=1e+308, "
                                 "lambda_dice=1e+308 are too large: their largest cost is not "
                                 "a finite float64\n")
        assert result.stdout == ""
        assert list(tmp_path.glob("w*")) == []

    @pytest.mark.parametrize("command", ["assign", "eval"])
    def test_finite_weights_past_the_entry_limit_reach_the_solver(self, tmp_path, capsys,
                                                                  command):
        # the largest cost of 1e306 is finite, but swap.json's costs pass the
        # solver's bound on entries
        corpus = gen_corpus(tmp_path, "swap.json", clips=16)
        capsys.readouterr()
        assert main([command, str(corpus), "--weights", "1e306", "0", "0",
                     "--out-prefix", str(tmp_path / "w")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cost matrix entries must be at most float64 max / "
                              "(4 * (cols + 1)) = ") and err.count("\n") == 1


class TestOutputPaths:
    """Every output goes through `model.write_file`: a missing directory is
    made, and an input or output path that cannot be used exits 1 with
    `error:`, never a traceback."""

    # the files each subcommand writes, as suffixes of its --out or --out-prefix
    OUTPUTS = {"gen": ("",), "assign": (".json", ".csv"), "eval": (".report.json", ".audit.csv"),
               "enhance": ("",)}

    @staticmethod
    def argv(command, tmp_path, out):
        if command == "gen":
            return ["gen", str(write_config(tmp_path, clips=2)), "--out", str(out)]
        if command == "enhance":
            return ["enhance", "--demo", str(CONFIG_DIR / "enhance.json"), "--out", str(out)]
        corpus = tmp_path / "corpus.json"
        if not corpus.exists():
            gen_corpus(tmp_path, clips=2)
        return [command, str(corpus), "--out-prefix", str(out)]

    @pytest.mark.parametrize("command", list(OUTPUTS))
    def test_missing_directory_is_made(self, tmp_path, capsys, command):
        flat, nested = tmp_path / "out", tmp_path / "new" / "deeper" / "out"
        assert main(self.argv(command, tmp_path, flat)) == 0
        assert main(self.argv(command, tmp_path, nested)) == 0
        for suffix in self.OUTPUTS[command]:
            assert Path(f"{nested}{suffix}").read_bytes() == Path(f"{flat}{suffix}").read_bytes()
        assert sorted(p.name for p in nested.parent.iterdir()) == sorted(
            f"out{suffix}" for suffix in self.OUTPUTS[command])

    @pytest.mark.parametrize("command", list(OUTPUTS))
    def test_parent_that_is_a_file_exits_one(self, tmp_path, capsys, command):
        blocker = tmp_path / "afile"
        blocker.write_text("keep")
        argv = self.argv(command, tmp_path, blocker / "out")
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(blocker) in err
        assert blocker.read_text() == "keep"

    def test_output_that_is_a_directory_exits_one(self, tmp_path, capsys, monkeypatch):
        taken = tmp_path / "taken"
        taken.mkdir()
        monkeypatch.chdir(taken)
        for out in (taken, "."):
            assert main(self.argv("enhance", tmp_path, out)) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ")
            assert err.rstrip().endswith(f"Is a directory: {str(out)!r}") and ".tmp" not in err
            assert taken.is_dir() and list(tmp_path.iterdir()) == [taken]
            assert list(taken.iterdir()) == []

    @pytest.mark.parametrize("command", list(OUTPUTS))
    def test_printed_digest_is_the_written_files(self, tmp_path, capsys, command):
        # the digest is taken while writing; it must hash the file's bytes
        out = tmp_path / "out"
        argv = self.argv(command, tmp_path, out)
        capsys.readouterr()
        assert main(argv) == 0
        digest = capsys.readouterr().out.split("sha256=")[1].strip()
        written = Path(f"{out}{self.OUTPUTS[command][0]}").read_bytes()
        assert digest == hashlib.sha256(written).hexdigest()

    @pytest.mark.parametrize("command", ["gen", "enhance", "assign", "eval"])
    def test_input_that_is_a_directory_exits_one(self, tmp_path, capsys, command):
        argv = self.argv(command, tmp_path, tmp_path / "out")
        argv[argv.index("--demo") + 1 if command == "enhance" else 1] = str(CONFIG_DIR)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Is a directory" in err

    def test_config_that_is_not_text_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"version": 1, "seed": "\xff"}')
        assert main(["gen", str(cfg), "--out", str(tmp_path / "x.json")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg} is not valid JSON: ")


def enhance_tracks(config):
    """The plain and the STE tracks of the clip that `enhance` runs on the demo
    config at `config`."""
    cfg = _load_demo_config(config)
    decoder, mhca, queries, frames = _demo_inputs(cfg)
    plain = ste.run_clip(queries, frames, decoder)
    enhanced = ste.run_clip(queries, frames, decoder, ste_params=mhca,
                            threshold=cfg["threshold"])
    return ste.clip_tracks(plain, frames, decoder), ste.clip_tracks(enhanced, frames, decoder)


class TestEnhance:
    def test_single_frame_traces_match(self, tmp_path):
        doc = json.loads((CONFIG_DIR / "enhance.json").read_text())
        doc["spec"]["T"] = 1
        cfg = tmp_path / "demo.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "trace.json"
        assert main(["enhance", "--demo", str(cfg), "--out", str(out)]) == 0
        trace = json.loads(out.read_text())
        assert trace["plain"] == trace["ste"]

    @pytest.mark.parametrize("field, value, reason", [
        ("threshold", "abc", "threshold must be a number, got 'abc'"),
        ("threshold", 1.5, "threshold must be in (0, 1), got 1.5"),
        ("n_heads", 0, "n_heads=0 must divide C=16"),
        ("n_fq", 0, "n_fq must be >= 1 and < 2**63, got 0"),
        ("n_heads", 4.0, "n_heads must be an integer, got 4.0"),
        ("n_fq", True, "n_fq must be an integer, got True"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("seed", -1, "seed must be in [0, 2**64), got -1"),
        ("seed", 2**64, f"seed must be in [0, 2**64), got {2**64}"),
        ("n_fq", 2**64, f"n_fq must be >= 1 and < 2**63, got {2**64}"),
        ("n_heads", 3, "n_heads=3 must divide C=16"),
        ("version", True, "version must be an integer, got True"),
        ("version", 1.0, "version must be an integer, got 1.0"),
        # one frame: the threshold is never used between frames
        (("spec", "threshold"), ({"T": 1}, 7), "threshold must be in (0, 1), got 7.0"),
    ], ids=["threshold-abc", "threshold-1.5", "n_heads-0", "n_fq-0", "n_heads-4.0", "n_fq-True",
            "seed-1.5", "seed--1", f"seed-{2**64}", f"n_fq-{2**64}", "n_heads-3", "version-bool",
            "version-float", "threshold-7-one-frame"])
    def test_bad_demo_value_fails(self, tmp_path, capsys, field, value, reason):
        # `field` names one key, or a tuple of keys each with its own value
        doc = json.loads((CONFIG_DIR / "enhance.json").read_text())
        for key, update in zip(field, value) if isinstance(field, tuple) else [(field, value)]:
            if isinstance(update, dict):
                doc[key].update(update)
            else:
                doc[key] = update
        cfg = tmp_path / "demo.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "t.json"
        assert main(["enhance", "--demo", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {reason}\n"
        assert not out.exists()

    def test_string_threshold_rejected(self, tmp_path, capsys):
        doc = json.loads((CONFIG_DIR / "enhance.json").read_text())
        doc["threshold"] = "0.3"
        cfg = tmp_path / "demo.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "t.json"
        assert main(["enhance", "--demo", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: threshold must be a number, got '0.3'\n"
        assert not out.exists()

    def test_golden_byte_equality(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["enhance", "--demo", str(CONFIG_DIR / "enhance.json"),
                     "--out", str(a)]) == 0
        assert main(["enhance", "--demo", str(CONFIG_DIR / "enhance.json"),
                     "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_golden_digest(self, tmp_path, capsys):
        assert main(["enhance", "--demo", str(CONFIG_DIR / "enhance.json"),
                     "--out", str(tmp_path / "trace.json")]) == 0
        assert capsys.readouterr().out.split("sha256=")[1].strip() == (
            "a6b177d62f84c1b76923b89fecbb5e657bc9058484a96561880f7eb4e6f13133")

    # six slots over six frames (swap-corpus) and 40 slots at C=64 (crowded-clips)
    # are met by no config in configs/
    @pytest.mark.parametrize("workload, digest", [
        ("swap-corpus", "4f8614f3d9a7c134a689da21ca672c4ab2fe9cb6683be0f323a1c9639182f0b6"),
        ("crowded-clips", "c33f22138c1221e0518207458df2735c6292afef6911dbd8a64ea88567599fda"),
    ])
    def test_golden_digest_at_the_benchmark_specs(self, tmp_path, capsys, benchmark_config,
                                                  workload, digest):
        config = benchmark_config(workload, 5, enhance=True)
        assert main(["enhance", "--demo", str(config), "--out", str(tmp_path / "trace.json")]) == 0
        assert capsys.readouterr().out.split("sha256=")[1].strip() == digest

    # sha256 over each track's class_probs then mask_probs bytes, slot by slot,
    # for the plain and the STE run of `enhance` on the same inputs
    @pytest.mark.parametrize("workload, plain_digest, ste_digest", [
        ("enhance.json", "e9d274e0330eaddac9d67b2db5d54894ddad2da942a6a5faf852cc8e49ceeba2",
         "351ccd6e89c27150d0137ece37d6b0430b0bd2dbd30127db6d87f20bc5dd7b2b"),
        ("swap-corpus", "359c4139e5df9ddc8f7ab22fd5e765d582fac8dc02a386b3e66ff9ffb438f25e",
         "01f2d483e8b07e68f27cf6e033f910c986e45581229c6c801cffa718cf3eb0e3"),
        ("crowded-clips", "529def1de2711aae693b81db93c618447fb58a9650c32f0184010f9198f79c54",
         "25095410facff26b1c834c0546d8eb383c156150daf131a4a1aee92071c07d97"),
    ])
    def test_golden_track_digests(self, benchmark_config, workload, plain_digest, ste_digest):
        config = (CONFIG_DIR / workload if workload.endswith(".json")
                  else benchmark_config(workload, 5, enhance=True))
        for tracks, digest in zip(enhance_tracks(config), (plain_digest, ste_digest)):
            h = hashlib.sha256()
            for track in tracks:
                h.update(track.class_probs.tobytes())
                h.update(track.mask_probs.tobytes())
            assert h.hexdigest() == digest

    def test_trace_matches_library_composition(self, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["enhance", "--demo", str(CONFIG_DIR / "enhance.json"),
                     "--out", str(out)]) == 0
        trace = json.loads(out.read_text())
        cfg = json.loads((CONFIG_DIR / "enhance.json").read_text())
        spec = cfg["spec"]
        seed = cfg["seed"]

        decoder = ste.init_ref_decoder_params(spec["C"], spec["K"],
                                              cfg["n_heads"], seed)
        mhca = ste.init_mhca_params(spec["N_v"], spec["C"], cfg["n_heads"], seed)
        rng = stream(seed, "demo-inputs")
        queries = rng.normal(size=(spec["N_v"], spec["C"]))
        h, w = spec["H"] // spec["S"], spec["W"] // spec["S"]
        frames = [(rng.normal(size=(cfg["n_fq"], spec["C"])),
                   rng.normal(size=(spec["C"], h, w)))
                  for _ in range(spec["T"])]
        lib_trace = ste.run_clip(queries, frames, decoder, ste_params=mhca)
        assert len(trace["ste"]) == len(lib_trace)
        for entry, lib in zip(trace["ste"], lib_trace):
            assert np.array_equal(np.array(entry["prototypes"]), lib["prototypes"])
            assert np.array_equal(np.array(entry["class_probs"]), lib["class_probs"])
            if "spatial_features" in entry:
                assert np.array_equal(np.array(entry["spatial_features"]),
                                      lib["spatial_features"])
                assert np.allclose(entry["ste_row_sums"], 1.0, atol=1e-9)

    def test_attention_rows_sum_to_one(self, tmp_path):
        out = tmp_path / "trace.json"
        main(["enhance", "--demo", str(CONFIG_DIR / "enhance.json"), "--out", str(out)])
        trace = json.loads(out.read_text())
        for variant in ("plain", "ste"):
            for entry in trace[variant]:
                assert np.allclose(entry["encoder_row_sums"], 1.0, atol=1e-9)
                assert np.allclose(entry["decoder_row_sums"], 1.0, atol=1e-9)


class TestEnhanceWork:
    """An `enhance` call segments a frame only where the enhancement update reads
    its masks: frames 0..T-2 of the STE run, and no frame of the plain run."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = Counter()
        for name in ("segment_frame", "spatial_matting"):
            def counted(*args, _name=name, _fn=getattr(ste, name)):
                counts[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(ste, name, counted)
        return counts

    @pytest.mark.parametrize("workload", ["enhance.json", "swap-corpus", "crowded-clips"])
    def test_one_call_segments_t_minus_one_frames(self, tmp_path, capsys, benchmark_config,
                                                  calls, workload):
        config = (CONFIG_DIR / workload if workload.endswith(".json")
                  else benchmark_config(workload, 5, enhance=True))
        spec = json.loads(config.read_text())["spec"]
        for call in (1, 2):
            assert main(["enhance", "--demo", str(config), "--out", str(tmp_path / "t.json")]) == 0
            assert calls == {"segment_frame": call * (spec["T"] - 1),
                             "spatial_matting": call * spec["N_v"] * (spec["T"] - 1)}
        assert capsys.readouterr().out.startswith(f"frames={spec['T']} ")

    def test_plain_run_segments_no_frame(self, calls):
        cfg = _load_demo_config(CONFIG_DIR / "enhance.json")
        decoder, _, queries, frames = _demo_inputs(cfg)
        assert len(ste.run_clip(queries, frames, decoder)) == len(frames)
        assert calls == {}

    def test_one_frame_call_segments_nothing(self, tmp_path, calls):
        # its threshold is still checked: TestEnhance's threshold-7-one-frame case
        doc = json.loads((CONFIG_DIR / "enhance.json").read_text())
        doc["spec"]["T"] = 1
        cfg = tmp_path / "demo.json"
        cfg.write_text(json.dumps(doc))
        assert main(["enhance", "--demo", str(cfg), "--out", str(tmp_path / "t.json")]) == 0
        assert calls == {}


class TestEval:
    # sha256 of <prefix>.report.json (the digest the command prints) and <prefix>.audit.csv
    @pytest.mark.parametrize("config, report_digest, csv_digest", [
        ("small.json", "b3f9d09c0c9b2f8cb4aedf37aeecc6f61c43938307b00bd252967239599786da",
         "e755b047be0e9a66fa9e67c19a3e91e564f062785b924ace3dded5cf12b913ec"),
        ("swap.json", "87e772c2782641eff512fd753942561f9a7ebc494d9e8bdc41c532483632b23f",
         "1fe7d65b58cb91e82aac47c15fc740fcbd4d7916be4121db5220e0535399a59d"),
    ], ids=["small", "swap"])
    def test_golden_output_digests(self, tmp_path, capsys, config, report_digest, csv_digest):
        corpus = tmp_path / "c.json"
        assert main(["gen", str(CONFIG_DIR / config), "--out", str(corpus)]) == 0
        capsys.readouterr()
        prefix = tmp_path / "metrics"
        assert main(["eval", str(corpus), "--out-prefix", str(prefix)]) == 0
        assert capsys.readouterr().out.split("sha256=")[1].strip() == report_digest
        assert file_digest(tmp_path / "metrics.report.json") == report_digest
        assert file_digest(tmp_path / "metrics.audit.csv") == csv_digest

    def test_writes_report_and_audit(self, tmp_path):
        corpus = gen_corpus(tmp_path, clips=3)
        prefix = tmp_path / "metrics"
        assert main(["eval", str(corpus), "--out-prefix", str(prefix)]) == 0
        report = json.loads((tmp_path / "metrics.report.json").read_text())
        assert set(report) >= {"AP", "AP50", "AP75", "AR1", "AR10",
                               "per_threshold", "audit"}
        assert 0.0 <= report["AP"] <= 1.0
        csv_lines = (tmp_path / "metrics.audit.csv").read_text().strip().split("\n")
        assert len(csv_lines) == 4

    def test_zero_noise_scores_perfectly(self, tmp_path):
        corpus = gen_corpus(tmp_path, clips=3, mask_jitter=0.0, class_confusion=0.0)
        prefix = tmp_path / "metrics"
        main(["eval", str(corpus), "--out-prefix", str(prefix)])
        report = json.loads((tmp_path / "metrics.report.json").read_text())
        assert report["AP"] == 1.0 and report["AP50"] == 1.0 and report["AP75"] == 1.0


class TestDeterminismAcrossThreads:
    @pytest.mark.parametrize("threads", ["2", "8"])
    def test_gen_matches_serial(self, tmp_path, threads):
        cfg = write_config(tmp_path, clips=4)
        serial = tmp_path / "serial.json"
        pooled = tmp_path / "pooled.json"
        main(["gen", str(cfg), "--out", str(serial), "--threads", "1"])
        main(["gen", str(cfg), "--out", str(pooled), "--threads", threads])
        assert serial.read_bytes() == pooled.read_bytes()


def test_thread_pool_is_imported_only_for_more_than_one_thread(tmp_path):
    # concurrent.futures pulls in logging, several ms of every process start
    config = write_config(tmp_path, clips=2)
    script = ("import sys; from tcovis.cli import main; "
              "main(['gen', sys.argv[1], '--out', sys.argv[2], '--threads', sys.argv[3]]); "
              "print('concurrent.futures' in sys.modules)")
    seen = []
    for threads in ("1", "2"):
        result = subprocess.run([sys.executable, "-c", script, str(config),
                                 str(tmp_path / f"c{threads}.json"), threads],
                                capture_output=True, text=True, check=True,
                                env=dict(os.environ, PYTHONPATH=str(CONFIG_DIR.parent / "src")))
        seen.append(result.stdout.splitlines()[-1])
    assert seen == ["False", "True"]
    assert (tmp_path / "c1.json").read_bytes() == (tmp_path / "c2.json").read_bytes()


class TestEveryConfigKeyIsRead:
    """A config key with more than one valid value changes the output when it
    changes: no key is checked and then ignored. `version` has one valid value."""

    # `gen` reads the run config small.json, `enhance` the demo config enhance.json
    CHANGES = {"small.json": {"spec": {"T": 5}, "scene": {"n_objects": [1, 3]},
                              "noise": {"mask_jitter": 0.05}, "clips": 3, "seed": 8},
               "enhance.json": {"spec": {"T": 2}, "seed": 12, "n_heads": 2, "n_fq": 3,
                                "threshold": 0.4}}

    def test_every_key_has_a_change(self):
        for config, changes in self.CHANGES.items():
            assert set(json.loads((CONFIG_DIR / config).read_text())) - {"version"} == set(changes)

    @pytest.mark.parametrize("config, key", [(config, key) for config, changes in CHANGES.items()
                                             for key in sorted(changes)])
    def test_changing_the_key_changes_the_digest(self, tmp_path, capsys, config, key):
        doc = json.loads((CONFIG_DIR / config).read_text())
        if config == "small.json":
            doc["clips"] = 2
        changed = json.loads(json.dumps(doc))
        value = self.CHANGES[config][key]
        if isinstance(value, dict):
            changed[key].update(value)
        else:
            changed[key] = value
        digests = []
        for i, variant in enumerate((doc, changed)):
            cfg, out = tmp_path / f"cfg{i}.json", tmp_path / f"out{i}.json"
            cfg.write_text(json.dumps(variant))
            command = (["gen", str(cfg)] if config == "small.json" else
                       ["enhance", "--demo", str(cfg)])
            capsys.readouterr()
            assert main(command + ["--out", str(out)]) == 0
            digests.append(capsys.readouterr().out.split("sha256=")[1])
        assert digests[0] != digests[1]


class TestThreadCount:
    @pytest.mark.parametrize("command", ["gen", "assign", "eval", "enhance"])
    @pytest.mark.parametrize("flag, reason", [
        ("0", "error: thread count must be >= 1, got 0\n"),
        ("-3", "error: thread count must be >= 1, got -3\n"),
    ], ids=["flag-zero", "flag-negative"])
    def test_bad_thread_count_exits_one(self, tmp_path, capsys, command, flag, reason):
        argv = TestOutputPaths.argv(command, tmp_path, tmp_path / "out") + ["--threads", flag]
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == reason
        assert list(tmp_path.glob("out*")) == []

    @pytest.mark.parametrize("command", ["gen", "assign", "eval", "enhance"])
    def test_env_var_changes_nothing(self, tmp_path, monkeypatch, capsys, command):
        # the retired override of --threads, named in two parts so that a search
        # for the name finds no code that reads it
        name = "TCOVIS_" + "THREADS"
        monkeypatch.delenv(name, raising=False)
        outputs = []
        for env in (None, "abc"):
            if env is not None:
                monkeypatch.setenv(name, env)
            argv = TestOutputPaths.argv(command, tmp_path, tmp_path / f"out-{env}")
            capsys.readouterr()
            assert main(argv) == 0
            outputs.append((capsys.readouterr().out,
                            sorted(p.read_bytes() for p in tmp_path.glob(f"out-{env}*"))))
        assert outputs[0] == outputs[1]


class TestUtf8Files:
    """Every file is read and written as UTF-8 (RFC 8259), whatever the
    locale: no subcommand leaves the encoding to the locale default."""

    def test_no_subcommand_uses_the_locale_encoding(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(CONFIG_DIR.parent / "src"))
        env.pop("PYTHONWARNINGS", None)
        corpus = tmp_path / "c.json"
        for argv in (["gen", str(CONFIG_DIR / "small.json"), "--out", str(corpus)],
                     ["assign", str(corpus), "--out-prefix", str(tmp_path / "a")],
                     ["eval", str(corpus), "--out-prefix", str(tmp_path / "m")],
                     ["enhance", "--demo", str(CONFIG_DIR / "enhance.json"),
                      "--out", str(tmp_path / "e.json")]):
            result = subprocess.run([sys.executable, "-X", "warn_default_encoding",
                                     "-W", "error::EncodingWarning", "-m", "tcovis.cli", *argv],
                                    env=env, capture_output=True, text=True, timeout=300)
            assert result.returncode == 0, result.stderr

    def test_non_ascii_text_under_an_ascii_locale(self, tmp_path):
        # the C locale with its UTF-8 coercion and mode switched off makes
        # the locale encoding ASCII; the reader and the writer keep UTF-8
        env = dict(os.environ, PYTHONPATH=str(CONFIG_DIR.parent / "src"), LC_ALL="C",
                   PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
        source, copy = tmp_path / "in.json", tmp_path / "out.json"
        source.write_bytes('{"caf\u00e9": "\u00fc"}'.encode("utf-8"))
        script = ("import json, sys; from tcovis.model import read_json, write_file; "
                  "write_file(sys.argv[2], [json.dumps(read_json(sys.argv[1]), ensure_ascii=False)])")
        result = subprocess.run([sys.executable, "-c", script, str(source), str(copy)],
                                env=env, capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert copy.read_bytes() == source.read_bytes()
