"""Tests for the command-line interface."""

import pytest

from repro.cli import main

SOURCE = """
program clidemo;
config n : integer = 6;
region R = [1..n, 1..n];
var A, B : [R] float;
var total : float;
begin
  [R] A := Index1 * 2.0;
  [R] B := A@(0,1) + A;
  total := +<< [R] B;
end;
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "demo.zpl"
    path.write_text(SOURCE)
    return str(path)


class TestCompile:
    def test_emit_c(self, source_file, capsys):
        assert main(["compile", source_file, "--emit", "c"]) == 0
        out = capsys.readouterr().out
        # --emit c prints the module the c backend actually compiles.
        assert "int repro_run(void **_bufs)" in out
        assert "for (_i1" in out

    def test_emit_ir(self, source_file, capsys):
        assert main(["compile", source_file, "--emit", "ir"]) == 0
        assert "normalized" in capsys.readouterr().out

    def test_emit_asdg(self, source_file, capsys):
        assert main(["compile", source_file, "--emit", "asdg"]) == 0
        assert "ASDG" in capsys.readouterr().out

    def test_emit_plan(self, source_file, capsys):
        assert main(["compile", source_file, "--emit", "plan"]) == 0
        out = capsys.readouterr().out
        assert "FusionPartition" in out
        assert "surviving arrays" in out

    def test_emit_python(self, source_file, capsys):
        assert main(["compile", source_file, "--emit", "py"]) == 0
        assert "def run(_arrays, _scalars):" in capsys.readouterr().out

    def test_level_selection(self, source_file, capsys):
        assert main(
            ["compile", source_file, "--emit", "plan", "--level", "baseline"]
        ) == 0
        out = capsys.readouterr().out
        assert "contracted: []" in out

    def test_bad_level(self, source_file):
        with pytest.raises(SystemExit):
            main(["compile", source_file, "--level", "c9"])

    def test_config_override(self, source_file, capsys):
        assert main(
            ["compile", source_file, "--emit", "ir", "--config", "n=12"]
        ) == 0
        assert "n = 12" in capsys.readouterr().out

    def test_bad_config(self, source_file):
        with pytest.raises(SystemExit):
            main(["compile", source_file, "--config", "n:12"])


class TestRun:
    def test_interp_backend(self, source_file, capsys):
        assert main(["run", source_file]) == 0
        out = capsys.readouterr().out
        assert "total = " in out

    def test_codegen_backend_agrees(self, source_file, capsys):
        main(["run", source_file])
        interp_out = capsys.readouterr().out
        main(["run", source_file, "--backend", "codegen"])
        codegen_out = capsys.readouterr().out
        assert interp_out == codegen_out


NON_FINITE_SOURCE = """
program nonfinite;
region R = [1..3];
var A : [R] float;
var s : float;
begin
  [R] A := %s;
  s := %s<< [R] A;
end;
"""

#: printed text -> (element expression, reduction) that produces it.
NON_FINITE = {
    "nan": ("sqrt(2.5 - Index1)", "max"),
    "inf": ("1.0 / (Index1 - 1.0)", "max"),
    "-inf": ("(0.0 - 1.0) / (Index1 - 1.0)", "min"),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("backend", ["interp", "codegen_np"])
@pytest.mark.parametrize("text", sorted(NON_FINITE))
class TestNonFiniteScalars:
    """A NaN or infinite scalar prints; it used to die in ``int(value)``."""

    @pytest.fixture
    def path(self, tmp_path, text):
        path = tmp_path / "nonfinite.zpl"
        path.write_text(NON_FINITE_SOURCE % NON_FINITE[text])
        return str(path)

    def test_run(self, path, text, backend, capsys):
        assert main(["run", path, "--backend", backend]) == 0
        assert "s = %s\n" % text in capsys.readouterr().out

    def test_serve(self, path, text, backend, capsys):
        assert main(["serve", path, "--backend", backend, "--no-cache"]) == 0
        assert "request 0: s = %s\n" % text in capsys.readouterr().out


class TestEstimate:
    def test_sequential(self, source_file, capsys):
        assert main(["estimate", source_file, "--machine", "t3e"]) == 0
        out = capsys.readouterr().out
        assert "Cray T3E" in out
        assert "cycles" in out

    def test_parallel(self, source_file, capsys):
        assert main(
            ["estimate", source_file, "--machine", "paragon", "--p", "16"]
        ) == 0
        out = capsys.readouterr().out
        assert "processors     : 16" in out


class TestFigures:
    def test_fig6(self, capsys):
        assert main(["figures", "fig6"]) == 0
        assert "ZPL 1.13" in capsys.readouterr().out


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["compile", "/nonexistent/file.zpl"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_source(self, tmp_path, capsys):
        path = tmp_path / "bad.zpl"
        path.write_text("program broken")
        assert main(["compile", str(path)]) == 1
        assert "error" in capsys.readouterr().err


class TestArgumentValidation:
    @pytest.mark.parametrize("value", ["0", "-2", "three"])
    def test_bad_workers_rejected_at_parse_time(self, source_file, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", source_file, "--backend", "np-par",
                  "--workers", value])
        assert excinfo.value.code == 2  # argparse usage error

    def test_bad_tile_shape_rejected_at_parse_time(self, source_file):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", source_file, "--backend", "np-par",
                  "--tile-shape", "8xfoo"])
        assert excinfo.value.code == 2

    def test_workers_require_np_par(self, source_file):
        with pytest.raises(SystemExit):
            main(["run", source_file, "--backend", "codegen_np",
                  "--workers", "2"])

    def test_tile_shape_requires_np_par(self, source_file):
        with pytest.raises(SystemExit):
            main(["run", source_file, "--tile-shape", "8"])


class TestTileShape:
    def test_run_with_forced_tile_shape(self, source_file, capsys):
        main(["run", source_file])
        interp_out = capsys.readouterr().out
        assert main(["run", source_file, "--backend", "np-par",
                     "--workers", "2", "--tile-shape", "3x6"]) == 0
        assert capsys.readouterr().out == interp_out

    def test_env_tile_shape(self, source_file, capsys, monkeypatch):
        from repro.parallel import engine

        monkeypatch.setenv(engine.ENV_TILE_SHAPE, "2")
        assert main(["run", source_file, "--backend", "np-par",
                     "--workers", "1"]) == 0
        assert "total = " in capsys.readouterr().out


class TestTune:
    def test_tune_prints_ranking_and_persists(
        self, source_file, tmp_path, capsys
    ):
        cache_dir = str(tmp_path / "cache")
        assert main(["tune", source_file, "--budget-s", "5",
                     "--top-k", "2", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "winner:" in out
        assert "predicted" in out and "measured" in out
        assert "<- winner" in out

        # The second invocation must be a pure database hit.
        assert main(["tune", source_file, "--budget-s", "5",
                     "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "tunedb hit" in out

    def test_serve_tune_applies_stored_plan(
        self, source_file, tmp_path, capsys, monkeypatch
    ):
        cache_dir = str(tmp_path / "cache")
        monkeypatch.setenv("REPRO_CACHE_DIR", cache_dir)
        assert main(["tune", source_file, "--budget-s", "5",
                     "--top-k", "2"]) == 0
        winner_line = next(
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("winner:")
        )
        assert main(["serve", source_file, "--tune"]) == 0
        out = capsys.readouterr().out
        assert "plan=" in out and "(tuned)" in out
        assert winner_line.split()[1] in out


class TestTrace:
    def test_prints_span_tree(self, source_file, capsys):
        assert main(["trace", source_file]) == 0
        out = capsys.readouterr().out
        assert "compile" in out and "execute" in out
        assert "compile.fusion" in out
        assert "cache_hit=False" in out

    def test_out_writes_chrome_trace(self, source_file, tmp_path, capsys):
        import json

        path = str(tmp_path / "trace.json")
        assert main(["trace", source_file, "--backend", "np-par",
                     "--workers", "2", "--tile-shape", "3x3",
                     "--out", path]) == 0
        out = capsys.readouterr().out
        assert "perfetto" in out
        with open(path) as handle:
            document = json.load(handle)
        events = document["traceEvents"]
        assert all({"ph", "pid", "tid", "name"} <= set(e) for e in events)
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert "compile.fusion" in names  # nested compile-pass spans
        assert "par.tile" in names  # per-tile spans
        assert "par.sweep" in out  # the printed tree shows the sweep

    def test_trace_is_cold_every_time(self, source_file, capsys):
        # persistent=False: the second invocation still shows the full
        # pipeline rather than a disk-cache replay.
        assert main(["trace", source_file]) == 0
        first = capsys.readouterr().out
        assert main(["trace", source_file]) == 0
        second = capsys.readouterr().out
        assert "compile.fusion" in first and "compile.fusion" in second


class TestStatsFormats:
    def test_json_format(self, tmp_path, capsys):
        import json

        assert main(["stats", "--cache-dir", str(tmp_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "cache" in payload and "artifacts" in payload

    def test_json_is_the_default(self, tmp_path, capsys):
        import json

        assert main(["stats", "--cache-dir", str(tmp_path),
                     "--format", "json"]) == 0
        json.loads(capsys.readouterr().out)

    def test_prom_format(self, tmp_path, capsys):
        assert main(["stats", "--cache-dir", str(tmp_path),
                     "--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_cache_memory_entries gauge" in out
        assert "repro_cache_disk_entries 0" in out

    def test_unknown_format_is_an_error(self, tmp_path, capsys):
        assert main(["stats", "--cache-dir", str(tmp_path),
                     "--format", "yaml"]) == 1
        err = capsys.readouterr().err
        assert "error" in err
        assert "unknown stats format" in err and "json, prom" in err


class TestServeTrace:
    def test_trace_dir_writes_chrome_trace(
        self, source_file, tmp_path, capsys, monkeypatch
    ):
        import json
        import os

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        trace_dir = str(tmp_path / "traces")
        assert main(["serve", source_file, "--trace-dir", trace_dir]) == 0
        (name,) = os.listdir(trace_dir)
        assert name.startswith("serve-") and name.endswith(".json")
        with open(os.path.join(trace_dir, name)) as handle:
            document = json.load(handle)
        names = {e["name"] for e in document["traceEvents"] if e["ph"] == "X"}
        assert "compile" in names and "execute" in names

    def test_env_trace_prints_tree_to_stderr(
        self, source_file, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert main(["serve", source_file]) == 0
        err = capsys.readouterr().err
        assert "compile" in err and "execute" in err

    def test_env_trace_path_writes_file(
        self, source_file, tmp_path, capsys, monkeypatch
    ):
        import json

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        out = str(tmp_path / "serve-trace.json")
        monkeypatch.setenv("REPRO_TRACE", out)
        assert main(["serve", source_file]) == 0
        with open(out) as handle:
            assert json.load(handle)["traceEvents"]


class TestServeDaemonFlags:
    """Argument validation for ``serve --daemon`` — each bad value must
    die in argparse (exit code 2) with a message naming the problem."""

    def _err(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        return capsys.readouterr().err

    def test_port_zero_rejected(self, source_file, capsys):
        err = self._err(
            capsys, ["serve", source_file, "--daemon", "--port", "0"]
        )
        assert "port 0 (ephemeral) is not allowed" in err

    def test_port_out_of_range_rejected(self, source_file, capsys):
        err = self._err(
            capsys, ["serve", source_file, "--daemon", "--port", "70000"]
        )
        assert "1..65535" in err

    def test_port_non_integer_rejected(self, source_file, capsys):
        err = self._err(
            capsys, ["serve", source_file, "--daemon", "--port", "http"]
        )
        assert "port" in err

    @pytest.mark.parametrize("flag", ["--daemon-workers", "--queue-depth"])
    @pytest.mark.parametrize("bad", ["0", "-3", "two"])
    def test_counts_must_be_positive_integers(
        self, source_file, capsys, flag, bad
    ):
        err = self._err(
            capsys, ["serve", source_file, "--daemon", flag, bad]
        )
        assert flag in err

    def test_batch_max_must_be_positive(self, source_file, capsys):
        err = self._err(
            capsys, ["serve", source_file, "--daemon", "--batch-max", "0"]
        )
        assert "--batch-max" in err

    @pytest.mark.parametrize("backend", ["mp-shard", "shard"])
    def test_mp_shard_backend_rejected_at_start_up(
        self, source_file, capsys, backend
    ):
        # Daemon workers are daemonic and may not fork ranks: one typed
        # line before anything listens, not a 500 on every request.
        from repro.exec.mp_shard import DAEMONIC_MESSAGE

        assert main(
            ["serve", source_file, "--daemon", "--backend", backend]
        ) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: %s\n" % DAEMONIC_MESSAGE
        assert "listening" not in captured.out

