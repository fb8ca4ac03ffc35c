"""Tests for the command-line interface."""

import contextlib
import io
import re
import threading
import time

import pytest

from repro.cli import build_parser, main


def run_cli(*argv: str) -> str:
    out = io.StringIO()
    code = main(list(argv), out=out)
    assert code == 0
    return out.getvalue()


@contextlib.contextmanager
def serving(monkeypatch, *argv: str):
    """Boot ``repro serve --port 0 --scale 512 --workers 1 *argv`` in a
    thread and yield ``(port, output)``; shut the server down on exit."""
    from repro.serve import http as serve_http

    servers = []
    make = serve_http.make_http_server

    def make_and_keep(*args, **kwargs):
        servers.append(make(*args, **kwargs))
        return servers[-1]

    monkeypatch.setattr(serve_http, "make_http_server", make_and_keep)
    out = io.StringIO()
    t = threading.Thread(
        target=main,
        args=(["serve", "--port", "0", "--scale", "512", "--workers", "1", *argv],),
        kwargs={"out": out},
        daemon=True,
    )
    t.start()
    try:
        port = None
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and port is None:
            m = re.search(r"listening on http://127\.0\.0\.1:(\d+)", out.getvalue())
            if m:
                port = int(m.group(1))
            else:
                time.sleep(0.05)
        assert port, f"server never announced a port: {out.getvalue()!r}"
        yield port, out
    finally:
        for httpd in servers:
            httpd.shutdown()
        t.join(timeout=30)
    assert not t.is_alive()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])

    def test_defaults(self):
        args = build_parser().parse_args(["suite"])
        assert args.scale == 64
        assert args.seed == 0

    def test_fig5_matrix_choice(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig5", "--matrix", "HMEp"])


class TestCommands:
    def test_suite(self):
        text = run_cli("suite", "--scale", "512")
        for key in ("HMEp", "sAMG", "DLR1", "DLR2", "UHBR"):
            assert key in text
        assert "reduction" in text

    def test_table1(self):
        text = run_cli("table1", "--scale", "512")
        assert "SP ECC=0" in text
        assert "pJDS" in text
        assert "ELLPACK-R" in text

    def test_fig3(self):
        text = run_cli("fig3", "--scale", "1024")
        assert "DLR1" in text
        assert "#" in text  # histogram bars

    def test_pcie(self):
        text = run_cli("pcie")
        assert "worthwhile" in text
        assert "sAMG" in text
        # sAMG must be ruled out
        samg_line = next(
            line for line in text.splitlines() if line.startswith("sAMG")
        )
        assert "False" in samg_line

    def test_fig5(self):
        text = run_cli("fig5", "--scale", "128", "--matrix", "DLR1")
        assert "task" in text
        assert "vector" in text

    def test_timeline(self):
        text = run_cli("timeline", "--scale", "128", "--nodes", "3")
        assert "GF/s" in text
        assert "|" in text

    def test_timeline_modes(self):
        for mode in ("vector", "naive", "task"):
            text = run_cli(
                "timeline", "--scale", "256", "--nodes", "2", "--mode", mode
            )
            assert "GF/s" in text

    def test_shootout(self):
        from repro.formats import available_formats

        text = run_cli("shootout", "--scale", "512", "--matrix", "sAMG")
        assert "pJDS" in text
        assert "SELL-C-sigma" in text
        assert "GF/s" in text
        listed = {line.split()[1] for line in text.splitlines()[2:]}
        assert listed == set(available_formats())

    def test_fig5_renders_chart(self):
        text = run_cli("fig5", "--scale", "256", "--matrix", "DLR1")
        assert "legend" in text

    def test_spmv_roundtrip(self, tmp_path):
        from repro.matrices import poisson2d, write_matrix_market

        path = tmp_path / "m.mtx"
        write_matrix_market(poisson2d(12, 12), path)
        text = run_cli("spmv", str(path), "--format", "pJDS")
        assert "144 x 144" in text
        assert "GF/s" in text

    def test_spmv_coo_no_gpu_model(self, tmp_path):
        from repro.matrices import poisson2d, write_matrix_market

        path = tmp_path / "m.mtx"
        write_matrix_market(poisson2d(8, 8), path)
        text = run_cli("spmv", str(path), "--format", "COO")
        assert "no GPU model" in text

    def test_spmv_crs_scalar_model(self, tmp_path):
        from repro.matrices import poisson2d, write_matrix_market

        path = tmp_path / "m.mtx"
        write_matrix_market(poisson2d(8, 8), path)
        text = run_cli("spmv", str(path), "--format", "CRS")
        assert "GF/s" in text

    def test_spmv_parallel_backend(self, tmp_path):
        from repro.matrices import poisson2d, write_matrix_market

        path = tmp_path / "m.mtx"
        write_matrix_market(poisson2d(12, 12), path)
        serial = run_cli("spmv", str(path), "--format", "CRS")
        par = run_cli("spmv", str(path), "--format", "CRS", "--parallel", "2")
        assert "2 row-block workers" in par
        assert "vector mode" in par
        # vector mode bit-matches serial, so the printed norms agree
        norm = [ln for ln in serial.splitlines() if "||y||" in ln]
        assert norm and norm[0] in par

    def test_spmv_format_case_insensitive(self, tmp_path):
        from repro.matrices import poisson2d, write_matrix_market

        path = tmp_path / "m.mtx"
        write_matrix_market(poisson2d(8, 8), path)
        text = run_cli("spmv", str(path), "--format", "pjds")
        assert "pJDS" in text


class TestEngineTune:
    def test_prints_decision_and_timings(self):
        text = run_cli(
            "engine", "tune", "sAMG", "--format", "pjds",
            "--scale", "512", "--no-cache",
        )
        assert "fingerprint : pJDS:" in text
        assert "cache       : miss" in text
        assert "<- chosen" in text
        assert "chosen      : jds_" in text

    def test_explain_names_an_untimed_lone_candidate(self):
        text = run_cli(
            "engine", "tune", "sAMG", "--format", "coo",
            "--scale", "512", "--no-cache", "--explain",
        )
        assert "candidates  : ['coo_scipy']" in text
        assert "<- chosen" not in text
        assert "coo_scipy is the only candidate: chosen without timing" in text

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["engine"])


class TestObsCommand:
    def _run(self, tmp_path, *extra):
        trace = tmp_path / "trace.json"
        prom = tmp_path / "metrics.prom"
        text = run_cli(
            "obs",
            "--format",
            "pjds",
            "--scale",
            "512",
            "--out",
            str(trace),
            "--metrics-out",
            str(prom),
            *extra,
        )
        return text, trace, prom

    def test_writes_both_artifacts(self, tmp_path):
        text, trace, prom = self._run(tmp_path)
        assert trace.exists() and prom.exists()
        assert "trace events" in text
        assert "metric lines" in text

    def test_chrome_trace_schema_and_rank_coverage(self, tmp_path):
        import json

        _, trace, _ = self._run(tmp_path, "--nodes", "4", "--mode", "task")
        doc = json.loads(trace.read_text())
        events = doc["traceEvents"]
        assert events
        for e in events:
            assert e["ph"] in ("X", "M")
            assert "pid" in e and "tid" in e and "name" in e
            if e["ph"] == "X":
                assert e["ts"] >= 0.0 and e["dur"] >= 0.0
        # >= 1 span per rank per resource for the 4-rank task-mode run
        tracks = {}
        for e in events:
            if e["ph"] == "X" and e.get("args", {}).get("simulated"):
                tracks.setdefault(e["pid"], set()).add(e["tid"])
        for rank in range(4):
            assert {"gpu", "pcie", "thread0"} <= tracks[rank], rank

    def test_prometheus_contains_required_series(self, tmp_path):
        _, _, prom = self._run(tmp_path)
        text = prom.read_text()
        for name in ("spmv_bytes_total", "cache_hit_ratio", "halo_bytes_sent"):
            assert name in text, name
        from repro.obs import parse_prometheus_text

        parsed = parse_prometheus_text(text)
        assert parsed["spmv_bytes_total"]["kind"] == "counter"
        assert parsed["cache_hit_ratio"]["kind"] == "gauge"

    def test_obs_flag_restored_and_summary_printed(self, tmp_path):
        from repro import obs

        assert not obs.enabled()
        text, _, _ = self._run(tmp_path)
        assert not obs.enabled()
        assert "recorded" in text and "spans" in text

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            run_cli("obs", "--format", "nonsense", "--scale", "512")

    def test_jsonl_output(self, tmp_path):
        import json

        jl = tmp_path / "obs.jsonl"
        run_cli(
            "obs", "--format", "pjds", "--scale", "512",
            "--jsonl-out", str(jl),
        )
        lines = [json.loads(line) for line in jl.read_text().splitlines()]
        assert {"span", "metric"} <= {rec["type"] for rec in lines}


class TestServe:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1" and args.port == 8000
        assert args.policy == "block" and args.max_batch == 16
        assert args.max_queue == 256
        with pytest.raises(SystemExit):  # no batching window to set
            build_parser().parse_args(["serve", "--max-delay-ms", "1"])
        assert args.workers == 2 and args.budget_mb is None
        assert args.matrix is None and args.mtx == []
        assert not args.obs

    def test_policy_is_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--policy", "drop-newest"])

    def test_matrix_flag_repeatable(self):
        args = build_parser().parse_args(
            ["serve", "--matrix", "amg=sAMG", "--matrix", "DLR1"]
        )
        assert args.matrix == ["amg=sAMG", "DLR1"]

    def test_boots_and_serves_http(self):
        import json
        import re
        import threading
        import time
        import urllib.request

        out = io.StringIO()
        t = threading.Thread(
            target=main,
            args=(["serve", "--port", "0", "--scale", "512", "--workers", "1"],),
            kwargs={"out": out},
            daemon=True,
        )
        t.start()
        port = None
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and port is None:
            m = re.search(r"listening on http://127\.0\.0\.1:(\d+)", out.getvalue())
            if m:
                port = int(m.group(1))
            else:
                time.sleep(0.05)
        assert port, f"server never announced a port: {out.getvalue()!r}"
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/healthz", timeout=30
        ) as resp:
            health = json.loads(resp.read())
        assert health["status"] == "ok"
        # default registration: the sAMG suite matrix, lazily assembled
        from repro.matrices import generate

        n = generate("sAMG", scale=512, seed=0).nrows
        body = json.dumps({"matrix": "sAMG", "x": [1.0] * n}).encode()
        req = urllib.request.Request(
            f"http://127.0.0.1:{port}/v1/spmv", data=body,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(req, timeout=60) as resp:
            payload = json.loads(resp.read())
        assert payload["n"] == n
        assert len(payload["y"]) == n


class TestOpsList:
    def test_full_registry_listing(self):
        text = run_cli("ops", "list")
        assert "kernels registered" in text
        for expected in (
            "csr_scipy", "spmm_csr", "jds_scipy", "sell_scipy",
            "bell_scipy", "coo_scipy",
        ):
            assert expected in text, expected
        # header + the note on what rank 0 means
        assert "variant" in text and "rank 0 is what the unbound" in text
        # the jagged formats' shared kernels list under their names, and
        # every row's op column starts where the header's does
        assert "JDS/pJDS" in text and "JaggedDiagonalsBase" not in text
        lines = text.splitlines()
        start = lines[0].index(" op ") + 1
        rows = [ln for ln in lines[1:] if ln.split()[1:2] in (["spmv"], ["spmm"])]
        assert rows and all(ln[start:start + 4] in ("spmv", "spmm") for ln in rows)

    def test_matrix_roster_and_tuning(self, tmp_path):
        from repro.matrices import poisson2d, write_matrix_market

        path = tmp_path / "m.mtx"
        write_matrix_market(poisson2d(10, 10), path)
        text = run_cli("ops", "list", "--matrix", str(path), "--format", "pjds")
        assert "100 x 100" in text
        assert "spmv candidates" in text and "spmm candidates" in text
        assert "tuned variant" in text

    def test_list_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ops"])


class TestObsTraceAndTop:
    def _seed_jsonl(self, tmp_path):
        from repro import obs

        obs.enable()
        obs.reset_all()
        try:
            with obs.trace_root("http.spmv", trace_id="a" * 16):
                with obs.span("serve.request", matrix="A"):
                    pass
        finally:
            path = tmp_path / "spans.jsonl"
            obs.write_jsonl(str(path))
            obs.disable()
            obs.reset_all()
        return path

    def test_trace_requires_input_file(self):
        out = io.StringIO()
        assert main(["obs", "trace", "a" * 16], out=out) == 2
        assert "--in" in out.getvalue()

    def test_trace_list(self, tmp_path):
        path = self._seed_jsonl(tmp_path)
        text = run_cli("obs", "trace", "--list", "--in", str(path))
        assert "a" * 16 in text
        assert "http.spmv" in text

    def test_trace_render_by_prefix(self, tmp_path):
        path = self._seed_jsonl(tmp_path)
        text = run_cli("obs", "trace", "aaaa", "--in", str(path))
        assert "http.spmv" in text and "serve.request" in text
        assert "matrix=A" in text

    def test_trace_unknown_id_exits_2(self, tmp_path):
        path = self._seed_jsonl(tmp_path)
        out = io.StringIO()
        assert main(["obs", "trace", "dead", "--in", str(path)], out=out) == 2
        assert "no trace" in out.getvalue()

    def test_top_prints_attribution_table(self):
        from repro import obs

        assert not obs.enabled()
        text = run_cli(
            "obs", "--scale", "300", "top",
            "--matrices", "sAMG", "--formats", "CRS",
            "--reps", "3", "--bandwidth", "10", "--no-tune",
        )
        assert not obs.enabled()  # prior state restored
        assert "sAMG" in text and "CRS" in text
        assert "GF/s" in text
        assert "model bandwidth: 10.0 GB/s" in text

    def test_serve_has_no_slo_flag(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", "--slo"])
        assert exc.value.code == 2

    def test_chaos_trace_out(self, tmp_path):
        import json as _json

        path = tmp_path / "chaos.jsonl"
        text = run_cli(
            "chaos", "--plan", "smoke", "--scale", "512",
            "--trace-out", str(path),
        )
        assert path.exists()
        recs = [_json.loads(ln) for ln in path.read_text().splitlines()]
        assert recs
        assert "faulted trace(s):" in text
        assert "repro obs trace" in text


class TestFleetCLI:
    def test_serve_fleet_flags(self):
        args = build_parser().parse_args(
            ["serve", "--fleet", "4", "--replicas", "2", "--hedge-ms", "5"]
        )
        assert args.fleet == 4 and args.replicas == 2
        assert args.fleet_mode == "process"
        assert args.hedge_ms == 5.0

    @pytest.mark.parametrize("blocks", ["0", "-3"])
    def test_serve_rejects_fewer_than_one_block(self, blocks):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--fleet", "2", "--blocks", blocks])

    def test_serve_rejects_a_negative_fleet(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--fleet", "-3"])
        assert "--fleet: must be >= 0, got -3" in capsys.readouterr().err

    @pytest.mark.usefixtures("no_leaks")
    @pytest.mark.parametrize("replicas", ["0", "3"])
    def test_serve_rejects_replicas_outside_the_fleet(self, replicas, capsys):
        # refused while parsing: no shard is started
        with pytest.raises(SystemExit):
            main(["serve", "--fleet", "2", "--replicas", replicas])
        assert "--replicas must be in [1, 2]" in capsys.readouterr().err

    @pytest.mark.usefixtures("no_leaks")
    def test_serve_fleet_set_up_failure_closes_the_shards(self, tmp_path):
        # the shards are up when the missing file is read
        with pytest.raises(FileNotFoundError):
            main(
                ["serve", "--fleet", "2", "--scale", "512", "--workers", "1",
                 "--port", "0", "--mtx", str(tmp_path / "missing.mtx")],
                out=io.StringIO(),
            )

    @pytest.mark.usefixtures("no_leaks")
    def test_serve_fleet_port_in_use_closes_the_shards(self):
        import socket

        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            with pytest.raises(OSError):
                main(
                    ["serve", "--fleet", "2", "--fleet-mode", "inproc",
                     "--scale", "512", "--workers", "1",
                     "--port", str(taken.getsockname()[1])],
                    out=io.StringIO(),
                )

    def test_fleet_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet"])

    def test_fleet_status_defaults(self):
        args = build_parser().parse_args(["fleet", "status"])
        assert args.url == "http://127.0.0.1:8000"
        assert args.timeout == 5.0 and not args.json

    def test_fleet_status_unreachable_exits_1(self):
        out = io.StringIO()
        code = main(
            ["fleet", "status", "--url", "http://127.0.0.1:1", "--timeout", "1"],
            out=out,
        )
        assert code == 1
        assert "fleet status failed" in out.getvalue()

    @pytest.mark.usefixtures("no_leaks")
    def test_fleet_status_on_non_fleet_server_exits_1(self, monkeypatch):
        # a plain (unsharded) serve process answers /fleetz with 404
        with serving(monkeypatch) as (port, _):
            status_out = io.StringIO()
            code = main(
                ["fleet", "status", "--url", f"http://127.0.0.1:{port}"],
                out=status_out,
            )
        assert code == 1
        assert "not a fleet" in status_out.getvalue()

    @pytest.mark.usefixtures("no_leaks")
    def test_serve_fleet_boots_and_fleet_status_renders(self, monkeypatch):
        import json
        import urllib.request

        with serving(
            monkeypatch, "--fleet", "2", "--fleet-mode", "inproc", "--replicas", "2"
        ) as (port, out):
            assert re.search(r"fleet: 2 inproc shard\(s\)", out.getvalue())

            # a sharded spmv through the HTTP front-end answers like a
            # single server would
            from repro.formats import convert
            from repro.matrices import generate

            mat = convert(generate("sAMG", scale=512, seed=0), "CRS")
            body = json.dumps({"matrix": "sAMG", "x": [1.0] * mat.ncols}).encode()
            req = urllib.request.Request(
                f"http://127.0.0.1:{port}/v1/spmv", data=body,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(req, timeout=60) as resp:
                payload = json.loads(resp.read())
            assert payload["n"] == mat.nrows
            import numpy as np

            # bitwise parity holds against the same pinned kernel variant
            # the shards run, not the raw aggregate-kernel spmv
            from repro.serve import MatrixRegistry

            reg = MatrixRegistry(tune=False)
            reg.register("ref", matrix=mat, variant="csr_scipy")
            with reg.acquire("ref") as lease:
                y_ref = lease.clone_for("t").spmv(np.ones(mat.ncols))
            assert np.array_equal(payload["y"], y_ref)

            status_out = io.StringIO()
            code = main(
                ["fleet", "status", "--url", f"http://127.0.0.1:{port}"],
                out=status_out,
            )
            assert code == 0
            text = status_out.getvalue()
            assert "fleet: 2 inproc shard(s), replicas=2" in text
            assert "shard 0" in text and "shard 1" in text
            assert "sAMG" in text

            raw = io.StringIO()
            assert main(
                ["fleet", "status", "--url", f"http://127.0.0.1:{port}", "--json"],
                out=raw,
            ) == 0
            fleetz = json.loads(raw.getvalue())
            assert fleetz["fleet"] is True and fleetz["nshards"] == 2

    @pytest.mark.usefixtures("no_leaks")
    def test_serve_fleet_serves_the_topology(self, monkeypatch):
        """``/fleetz`` and ``fleet status`` show only the topology, and
        shutting the HTTP server down stops every shard."""
        import json
        import urllib.request

        with serving(
            monkeypatch, "--fleet", "2", "--fleet-mode", "inproc"
        ) as (port, out):
            assert "fleet: 2 inproc shard(s)" in out.getvalue()
            url = f"http://127.0.0.1:{port}/fleetz"
            with urllib.request.urlopen(url, timeout=30) as resp:
                fleetz = json.loads(resp.read())
            assert set(fleetz) == {
                "fleet", "mode", "nshards", "replicas", "requests", "hedges",
                "failovers", "transport_kb_per_req", "latency_ms", "down",
                "shards", "placements",
            }

            status_out = io.StringIO()
            assert main(
                ["fleet", "status", "--url", f"http://127.0.0.1:{port}"],
                out=status_out,
            ) == 0
            sections = [
                line.split(":")[0]
                for line in status_out.getvalue().splitlines()
                if not line.startswith(" ")
            ]
            assert sections == ["fleet", "shards", "placement"]
