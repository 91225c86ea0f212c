"""Unit tests for the command-line interface."""

import socket
import threading
import time

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_serve_args(self):
        args = build_parser().parse_args(
            ["serve", "--root", "/tmp/site", "--port", "9090",
             "--peer", "other:80", "--entry", "/home.html"])
        assert args.root == "/tmp/site"
        assert args.port == 9090
        assert args.peer == ["other:80"]
        assert args.entry == ["/home.html"]

    def test_front_end_flag_rejected(self, capsys):
        """serve has one socket front end, so a front-end selector is
        an argparse error."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "--root", "/tmp/site", "--front-end", "aio"])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.dataset == "lod"
        assert args.servers == 4
        assert not args.prewarm

    def test_dataset_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dataset", "--name", "unknown"])

    def test_bench_choices(self):
        args = build_parser().parse_args(["bench", "figure8"])
        assert args.experiment == "figure8"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "figure99"])


class TestDatasetCommand:
    def test_prints_statistics(self, capsys):
        assert main(["dataset", "--name", "lod"]) == 0
        out = capsys.readouterr().out
        assert "349 documents" in out
        assert "/index.html" in out

    def test_writes_to_disk(self, tmp_path, capsys):
        assert main(["dataset", "--name", "lod",
                     "--out", str(tmp_path)]) == 0
        from repro.server.filestore import DiskStore

        store = DiskStore(str(tmp_path))
        assert "/index.html" in store.names()
        assert len(store.names()) == 349


class TestSimulateCommand:
    def test_tiny_simulation(self, capsys):
        code = main(["simulate", "--dataset", "lod", "--servers", "2",
                     "--clients", "8", "--duration", "10",
                     "--sample-interval", "5", "--prewarm"])
        assert code == 0
        out = capsys.readouterr().out
        assert "steady CPS" in out
        assert "migrations" in out


class TestServeCommand:
    def test_serve_empty_root_fails(self, tmp_path, capsys):
        assert main(["serve", "--root", str(tmp_path)]) == 1

    def test_serve_and_fetch(self, tmp_path, capsys):
        from repro.server.filestore import DiskStore

        store = DiskStore(str(tmp_path))
        store.put("/index.html", b"<html>served from disk</html>")
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]

        exit_codes = []

        def run_server():
            exit_codes.append(main(["serve", "--root", str(tmp_path),
                                    "--port", str(port)]))

        thread = threading.Thread(target=run_server, daemon=True)
        thread.start()
        try:
            from repro.client.realclient import fetch_url
            from repro.http.urls import URL

            deadline = time.time() + 5.0
            outcome = None
            while time.time() < deadline:
                outcome = fetch_url(URL("127.0.0.1", port, "/index.html"),
                                    timeout=1.0)
                if outcome.status == 200:
                    break
                time.sleep(0.1)
            assert outcome is not None and outcome.status == 200
            status = fetch_url(URL("127.0.0.1", port, "/~dcws/status"),
                               timeout=1.0)
            assert status.status == 200
            # The startup line names the host class.
            out = ""
            while "DCWS server on" not in out and time.time() < deadline:
                out += capsys.readouterr().out
                time.sleep(0.05)
            assert "AsyncDCWSServer" in out
        finally:
            # The serve loop only exits on KeyboardInterrupt; the daemon
            # thread dies with the test process.
            pass


class TestWorkersFlag:
    def test_workers_parsed(self):
        args = build_parser().parse_args(
            ["serve", "--root", "/tmp/site", "--workers", "4"])
        assert args.workers == 4

    def test_workers_default_single_process(self):
        args = build_parser().parse_args(["serve", "--root", "/tmp/site"])
        assert args.workers == 1

    def test_workers_below_one_rejected(self, tmp_path, capsys):
        from repro.server.filestore import DiskStore

        DiskStore(str(tmp_path)).put("/index.html", b"<html>x</html>")
        assert main(["serve", "--root", str(tmp_path),
                     "--workers", "0"]) == 2
        assert "--workers must be >= 1" in capsys.readouterr().err

    def test_serve_multiprocess_and_fetch(self, tmp_path):
        """End-to-end: `repro serve --workers 2` in a subprocess."""
        import os
        import signal
        import subprocess
        import sys

        from repro.client.realclient import fetch_url
        from repro.http.urls import URL
        from repro.server.filestore import DiskStore
        from repro.server.multiproc import choose_mode

        if choose_mode() is None:
            pytest.skip("no multi-process accept mode on this platform")
        store = DiskStore(str(tmp_path))
        store.put("/index.html", b"<html>multiproc cli</html>")
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--root",
             str(tmp_path), "--port", str(port), "--workers", "2"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        try:
            deadline = time.time() + 15.0
            outcome = None
            while time.time() < deadline and proc.poll() is None:
                try:
                    outcome = fetch_url(URL("127.0.0.1", port,
                                            "/index.html"), timeout=1.0)
                    if outcome.status == 200:
                        break
                except OSError:
                    pass
                time.sleep(0.2)
            assert outcome is not None and outcome.status == 200
            workers_page = fetch_url(URL("127.0.0.1", port,
                                         "/~dcws/workers"), timeout=2.0)
            assert workers_page.status == 200
        finally:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)
