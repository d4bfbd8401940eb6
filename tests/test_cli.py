import json
from pathlib import Path

import numpy as np
import pytest

from tcovis import ste, synth
from tcovis.cli import _load_run_config, main
from tcovis.model import load_corpus, save_corpus, validate
from tcovis.rng import stream

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, name="cfg.json", **overrides):
    doc = json.loads((CONFIG_DIR / "small.json").read_text())
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("TCOVIS_THREADS", raising=False)


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

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, clips=2)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["gen", str(cfg), "--out", str(a)])
        main(["gen", str(cfg), "--out", str(b), "--seed", "123"])
        assert a.read_bytes() != b.read_bytes()
        assert load_corpus(b).seed == 123

    def test_bad_object_count_names_field(self, tmp_path, capsys):
        doc = json.loads((CONFIG_DIR / "small.json").read_text())
        doc["scene"]["n_objects"] = [2, 40]
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        code = main(["gen", str(cfg), "--out", str(tmp_path / "x.json")])
        assert code == 1
        assert "n_objects" in capsys.readouterr().err

    def test_unknown_field_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, frobnicate=1)
        code = main(["gen", str(cfg), "--out", str(tmp_path / "x.json")])
        assert code == 1
        assert "frobnicate" in capsys.readouterr().err

    def test_config_that_is_not_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "five.json"
        cfg.write_text("5")
        code = main(["gen", str(cfg), "--out", str(tmp_path / "x.json")])
        assert code == 1
        assert "config must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize("clips", [0, -2])
    def test_non_positive_clip_count_rejected(self, tmp_path, capsys, clips):
        cfg = write_config(tmp_path, clips=clips)
        out = tmp_path / "x.json"
        assert main(["gen", str(cfg), "--out", str(out)]) == 1
        assert "error: clips must be >= 1" in capsys.readouterr().err
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


class TestAssign:
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

    @pytest.mark.parametrize("field, value", [("threshold", "abc"), ("threshold", 1.5),
                                              ("n_heads", 0), ("n_fq", 0)])
    def test_bad_demo_value_fails(self, tmp_path, capsys, field, value):
        doc = json.loads((CONFIG_DIR / "enhance.json").read_text())
        doc[field] = value
        cfg = tmp_path / "demo.json"
        cfg.write_text(json.dumps(doc))
        code = main(["enhance", "--demo", str(cfg), "--out", str(tmp_path / "t.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_golden_byte_equality(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["enhance", "--demo", str(CONFIG_DIR / "enhance.json"),
                     "--out", str(a)]) == 0
        assert main(["enhance", "--demo", str(CONFIG_DIR / "enhance.json"),
                     "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

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
        _, lib_trace = ste.run_clip(queries, frames, decoder, ste_params=mhca,
                                    ste_enabled=True, collect_trace=True)
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


class TestEval:
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


class TestBench:
    def test_two_sizes_make_two_rows(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--sizes", "5,10", "--repeats", "2",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "size,hungarian_ms,cost_matrix_ms"
        assert len(lines) == 3
        assert lines[1].startswith("5,") and lines[2].startswith("10,")

    def test_reports_tie_heavy_solve(self, tmp_path, capsys):
        assert main(["bench", "--sizes", "5", "--repeats", "1",
                     "--out", str(tmp_path / "bench.csv")]) == 0
        fields = dict(part.split("=", 1) for part in capsys.readouterr().out.split())
        assert float(fields["ties_100x120_ms"]) > 0.0
        assert float(fields["budget_100x120_ms"]) > 0.0

    def test_malformed_sizes_is_usage_error(self, tmp_path):
        assert main(["bench", "--sizes", "5,ten",
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_solver_time_grows_with_size(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--sizes", "10,120", "--repeats", "5",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")[1:]
        small = float(lines[0].split(",")[1])
        large = float(lines[1].split(",")[1])
        assert large >= small


class TestDeterminismAcrossThreads:
    @pytest.mark.parametrize("threads", ["2", "8"])
    def test_gen_matches_serial(self, tmp_path, threads):
        cfg = write_config(tmp_path, clips=4)
        serial = tmp_path / "serial.json"
        pooled = tmp_path / "pooled.json"
        main(["gen", str(cfg), "--out", str(serial), "--threads", "1"])
        main(["gen", str(cfg), "--out", str(pooled), "--threads", threads])
        assert serial.read_bytes() == pooled.read_bytes()

    def test_config_threads_used_when_flag_absent(self, tmp_path):
        serial_cfg = write_config(tmp_path, "serial.json", clips=4, threads=1)
        pooled_cfg = write_config(tmp_path, "pooled.json", clips=4, threads=4)
        serial = tmp_path / "serial_out.json"
        pooled = tmp_path / "pooled_out.json"
        assert main(["gen", str(serial_cfg), "--out", str(serial)]) == 0
        assert main(["gen", str(pooled_cfg), "--out", str(pooled)]) == 0
        assert serial.read_bytes() == pooled.read_bytes()

    def test_env_var_overrides_flag(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path, clips=2)
        monkeypatch.setenv("TCOVIS_THREADS", "not-a-number")
        code = main(["gen", str(cfg), "--out", str(tmp_path / "x.json"),
                     "--threads", "1"])
        assert code == 1
        assert "TCOVIS_THREADS" in capsys.readouterr().err
        monkeypatch.setenv("TCOVIS_THREADS", "2")
        assert main(["gen", str(cfg), "--out", str(tmp_path / "y.json"),
                     "--threads", "1"]) == 0
