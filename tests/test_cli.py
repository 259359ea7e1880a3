"""Tests for the two command-line tools.

The control client is driven in-process (its main() takes argv and an
output stream); the server daemon is exercised as a real subprocess.
"""

import io
import signal
import subprocess
import sys

import pytest

from repro.alib.cli import main as control_main
from repro.dsp import tones
from repro.dsp.aufile import write_au
from repro.dsp.encodings import mulaw_encode
from repro.protocol.types import MULAW_8K
from repro.server import main as server_main
from repro.server.main import build_parser
from repro.telephony import SimulatedParty

from conftest import wait_for


def run_control(server, *args):
    out = io.StringIO()
    code = control_main(["--port", str(server.port), *args], out=out)
    return code, out.getvalue()


class TestControlClient:
    def test_info(self, server):
        code, text = run_control(server, "info")
        assert code == 0
        assert "repro desktop audio" in text
        assert "8000 Hz" in text

    def test_devices(self, server):
        code, text = run_control(server, "devices")
        assert code == 0
        assert "speaker-0" in text
        assert "TELEPHONE" in text
        assert "number=5550100" in text

    def test_domains(self, server):
        code, text = run_control(server, "domains")
        assert code == 0
        assert "desktop" in text and "telephone" in text

    def test_catalogue(self, server):
        code, text = run_control(server, "catalogue", "system")
        assert code == 0
        assert "beep" in text

    def test_play_catalogue_sound(self, server):
        code, text = run_control(server, "play", "beep")
        assert code == 0
        assert "played" in text
        assert len(server.hub.speakers[0].capture.samples()) > 0

    def test_play_file(self, server, tmp_path):
        path = tmp_path / "tone.au"
        write_au(path, mulaw_encode(tones.sine(440.0, 0.3, 8000)),
                 MULAW_8K)
        code, text = run_control(server, "play-file", str(path))
        assert code == 0
        assert "played 2400 frames" in text

    def test_say(self, server):
        code, text = run_control(server, "say", "hello", "world")
        assert code == 0
        assert "spoke" in text

    def test_dial_connected(self, server):
        line = server.hub.exchange.add_line("5550260")
        server.hub.exchange.add_party(
            SimulatedParty(line, answer_after_rings=1))
        code, text = run_control(server, "dial", "5550260")
        assert code == 0
        assert "call connected" in text
        assert "hung up" in text

    def test_dial_failed(self, server):
        code, text = run_control(server, "dial", "9999999")
        assert code == 1
        assert "call failed" in text

    def test_monitor_sees_ring(self, server):
        import threading

        from repro.telephony import Dial

        line = server.hub.exchange.add_line("5550261")
        ringing = next(wrapper.device_id for wrapper in server.physicals
                       if getattr(wrapper.hardware, "number", None)
                       == "5550100")

        def ring_in():
            # Ring only once the monitor's subscription on the ringing
            # line is live (it selects the device LOUD one id at a time).
            wait_for(lambda: any(c.selection_for(ringing)
                                 for c in server.clients_snapshot()))
            server.hub.exchange.add_party(SimulatedParty(
                line, answer_after_rings=None,
                script=[Dial("5550100")]))

        caller = threading.Thread(target=ring_in, daemon=True)
        caller.start()
        code, text = run_control(server, "monitor", "3")
        caller.join()
        assert code == 0
        assert "RINGING" in text

    def test_connection_refused(self):
        out = io.StringIO()
        code = control_main(["--port", "1", "info"], out=out)
        assert code == 2
        assert "cannot connect" in out.getvalue()


class TestServerDaemon:
    def test_daemon_starts_serves_and_stops(self, tmp_path):
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.server.main", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            line = process.stdout.readline()
            assert "listening on" in line
            port = int(line.strip().rsplit(":", 1)[1])
            out = io.StringIO()
            code = control_main(["--port", str(port), "info"], out=out)
            assert code == 0
            assert "repro desktop audio" in out.getvalue()
        finally:
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=10)
        assert process.returncode == 0

    def test_daemon_flags(self, tmp_path):
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.server.main", "--port", "0",
             "--speakerphone", "--rate", "16000", "--block", "320"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            line = process.stdout.readline()
            port = int(line.strip().rsplit(":", 1)[1])
            out = io.StringIO()
            code = control_main(["--port", str(port), "info"], out=out)
            assert code == 0
            assert "16000 Hz" in out.getvalue()
            out = io.StringIO()
            control_main(["--port", str(port), "devices"], out=out)
            assert "speakerphone-line" in out.getvalue()
        finally:
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=10)

    def test_daemon_keeps_no_output_capture(self, monkeypatch):
        # Nothing in the daemon reads the capture; kept, it grows by
        # every block the server emits for as long as it runs.
        configs = []

        class Built(Exception):
            pass

        def record(config, **_kwargs):
            configs.append(config)
            raise Built

        monkeypatch.setattr(server_main, "AudioServer", record)
        with pytest.raises(Built):
            server_main.main(["--port", "0"])
        assert configs[0].capture_output is False


class TestServerAddressFlags:
    def test_addresses_parse_to_tuples(self):
        args = build_parser().parse_args(
            ["--trunk-listen", "7431", "--trunk-route", "555=east:7431",
             "--mesh-registry", "0.0.0.0:7440",
             "--mesh-join", "hub:7440"])
        assert args.trunk_listen == ("127.0.0.1", 7431)
        assert args.trunk_routes == [("555", "east", 7431)]
        assert args.mesh_registry == ("0.0.0.0", 7440)
        assert args.mesh_join == ("hub", 7440)

    @pytest.mark.parametrize("flag, value", [
        ("--trunk-listen", "bogus"),
        ("--trunk-route", "nonsense"),
        ("--mesh-registry", "host:port"),
        ("--mesh-join", "nowhere"),
    ])
    def test_malformed_address_is_a_usage_error(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exited:
            build_parser().parse_args([flag, value])
        assert exited.value.code == 2
        assert flag in capsys.readouterr().err


class TestServerCatalogueFlag:
    def test_daemon_serves_local_catalogue(self, tmp_path):
        from repro.dsp import tones as tn
        from repro.dsp.encodings import mulaw_encode as enc

        write_au(tmp_path / "chime.au", enc(tn.sine(660.0, 0.2, 8000)),
                 MULAW_8K)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.server.main", "--port", "0",
             "--catalogue", str(tmp_path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            line = process.stdout.readline()
            port = int(line.strip().rsplit(":", 1)[1])
            code, text = None, None
            out = io.StringIO()
            code = control_main(
                ["--port", str(port), "catalogue", "local"], out=out)
            assert code == 0
            assert "chime" in out.getvalue()
            out = io.StringIO()
            code = control_main(
                ["--port", str(port), "play", "chime",
                 "--catalogue", "local"], out=out)
            assert code == 0
            assert "played 1600 frames" in out.getvalue()
        finally:
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=10)
