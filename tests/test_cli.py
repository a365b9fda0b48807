"""Command-line entry points, exercised in-process."""

import gc
import logging
import re
import threading
import warnings
from types import SimpleNamespace

import pytest

from wapstack import cli, gateway as gw, wml
from wapstack.bearer import UdpBearer

from conftest import _stack_threads, free_udp_port

DECK = '<wml><card id="c1"><p>Hi</p><p><a href="/next">go</a></p></card></wml>'
NEXT = "<wml><card><p>Done</p></card></wml>"


@pytest.fixture
def udp_gateway():
    """A real gateway on localhost UDP, serving an in-memory site."""
    pages = {"/index": ("text/vnd.wap.wml", DECK.encode()),
             "/next": ("text/vnd.wap.wml", NEXT.encode()),
             "/plain": ("text/plain", b"raw bytes")}
    # the UDP socket binds listen_port; the connectionless port is the
    # logical WDP port the user agent targets, so keep the default 9200
    config = gw.GatewayConfig(bearer="udp", listen_port=free_udp_port())
    service = gw.Gateway(config, fetch=gw.local_content_fetch(pages))
    yield f"127.0.0.1:{config.listen_port}"
    service.close()


# --- wmlc ---------------------------------------------------------------------

def test_wmlc_encode_decode_round_trip(tmp_path, capsysbinary):
    src = tmp_path / "deck.wml"
    src.write_text(DECK)
    assert cli.wmlc_main(["encode", str(src)]) == 0
    binary = capsysbinary.readouterr().out
    assert binary == wml.encode(wml.parse(DECK))
    blob = tmp_path / "deck.wmlc"
    blob.write_bytes(binary)
    assert cli.wmlc_main(["decode", str(blob)]) == 0
    assert capsysbinary.readouterr().out.decode().strip() == DECK


def test_wmlc_reports_errors(tmp_path, capsys):
    bad = tmp_path / "bad.wml"
    bad.write_text("<nope/>")
    assert cli.wmlc_main(["encode", str(bad)]) == 1
    assert "unknown tag" in capsys.readouterr().err


# --- wapgw --------------------------------------------------------------------

def test_wapgw_rejects_bad_config(capsys):
    assert cli.wapgw_main(["--listen", "9301",
                           "--connectionless-port", "9301",
                           "--bearer", "udp"]) == 1
    assert "config error" in capsys.readouterr().err


def test_wapgw_rejects_sim_bearer_from_cli(capsys):
    assert cli.wapgw_main(["--bearer", "sim"]) == 1
    assert "in-process only" in capsys.readouterr().err


def test_wapgw_reports_bind_failure(capsys):
    port = free_udp_port()
    holder = UdpBearer(("127.0.0.1", port))
    threads = _stack_threads()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert cli.wapgw_main(["--bearer", "udp", "--listen", str(port),
                                   "--connectionless-port",
                                   str(free_udp_port())]) == 2
            gc.collect()
        assert "cannot bind" in capsys.readouterr().err
        # the failed socket is closed, and no stack thread was left behind
        assert not [w for w in caught if w.category is ResourceWarning]
        assert _stack_threads() <= threads
    finally:
        holder.close()


class _SetEvent(threading.Event):
    def wait(self, timeout=None):
        return True


@pytest.mark.parametrize("flags,psk_text,message", [
    (["--security", "full", "--psk-file", "{psk}"], None, "No such file"),
    (["--security", "full", "--psk-file", "{psk}"], "alice:zz\n",
     "bad hex secret"),
    (["--security", "full", "--psk-file", "{psk}"], "alice:\n",
     "empty secret"),
    (["--connectionless-port", "0"], None,
     "connectionless_port must be in 1-65535, got 0"),
    (["--listen", "70000"], None, "listen_port must be in 1-65535, got 70000"),
], ids=["missing-psk-file", "malformed-psk-file", "empty-psk-secret",
        "connectionless-port-0", "listen-70000"])
def test_wapgw_config_error_exits_1_and_leaves_no_thread(
        tmp_path, capsys, monkeypatch, flags, psk_text, message):
    # a config wrongly accepted would serve until a signal; with no signal
    # handlers and a stop event that never blocks, wapgw_main closes the
    # gateway and returns 0 within seconds, and the assert below fails
    monkeypatch.setattr(cli.signal, "signal", lambda *_: None)
    monkeypatch.setattr(cli, "threading", SimpleNamespace(Event=_SetEvent))
    psk = tmp_path / "psk.txt"
    if psk_text is not None:
        psk.write_text(psk_text)
    argv = ["--bearer", "udp", "--listen", str(free_udp_port())]
    argv += [flag.format(psk=psk) for flag in flags]  # a later --listen wins
    threads = _stack_threads()
    assert cli.wapgw_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("wapgw: config error: ") and message in err, err
    assert _stack_threads() <= threads


@pytest.mark.parametrize("source", ["flag", "file"])
def test_wapgw_rejects_unknown_log_level(tmp_path, capsys, source):
    argv = ["--bearer", "udp", "--listen", str(free_udp_port())]
    if source == "flag":
        argv += ["--log-level", "root"]
    else:
        conf = tmp_path / "gw.conf"
        conf.write_text("log_level = root\n")
        argv += ["--config", str(conf)]
    assert cli.wapgw_main(argv) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "log_level" in err and "'root'" in err


def test_wapgw_config_file_overridden_by_flags(tmp_path):
    conf = tmp_path / "gw.conf"
    conf.write_text("listen_port = 9201\nconnectionless_port = 9201\n")

    class Args:
        config = str(conf)
        listen = None
        connectionless_port = 9333
        bearer = None
        security = None
        psk_file = None
        http_timeout_ms = None
        session_ttl_s = None

    config = cli._gateway_config(Args())
    assert config.listen_port == 9201 and config.connectionless_port == 9333


def test_wapgw_log_level_from_file_and_flag(tmp_path):
    conf = tmp_path / "gw.conf"
    conf.write_text("log_level = debug\n")

    class Args:
        config = str(conf)
        listen = connectionless_port = bearer = security = psk_file = None
        http_timeout_ms = session_ttl_s = log_level = None

    assert cli._gateway_config(Args()).log_level == "debug"
    Args.log_level = "warning"
    assert cli._gateway_config(Args()).log_level == "warning"


def test_wapgw_applies_log_level_from_file(tmp_path):
    conf = tmp_path / "gw.conf"
    conf.write_text("log_level = debug\nbearer = sim\n")
    root = logging.getLogger()
    level = root.level
    try:
        # the sim bearer is refused after the config is read and applied
        assert cli.wapgw_main(["--config", str(conf)]) == 1
        assert root.level == logging.DEBUG
        assert cli.wapgw_main(["--config", str(conf),
                               "--log-level", "error"]) == 1
        assert root.level == logging.ERROR
    finally:
        root.setLevel(level)


def test_wapgw_config_file_has_no_impairments_key(tmp_path):
    # the impairment profile is set from code; the file has no form for it
    conf = tmp_path / "gw.conf"
    conf.write_text("impairments = 0.1\n")

    class Args:
        config = str(conf)

    with pytest.raises(ValueError, match="unknown config key 'impairments'"):
        cli._gateway_config(Args())


# --- wapget -------------------------------------------------------------------

def test_wapget_renders_a_deck(udp_gateway, capsys):
    assert cli.wapget_main(["--gateway", udp_gateway,
                            "http://site/index"]) == 0
    out = capsys.readouterr().out
    assert "Hi" in out and "[1] go" in out


def test_wapget_prints_raw_non_wml(udp_gateway, capsys):
    assert cli.wapget_main(["--gateway", udp_gateway,
                            "http://site/plain"]) == 0
    assert "raw bytes" in capsys.readouterr().out


def test_wapget_error_status_exits_3(udp_gateway, capsys):
    assert cli.wapget_main(["--gateway", udp_gateway,
                            "http://site/missing"]) == 3
    assert "404" in capsys.readouterr().err


def test_wapget_trace_goes_to_stderr(udp_gateway, capsys):
    assert cli.wapget_main(["--gateway", udp_gateway, "--trace",
                            "http://site/index"]) == 0
    err = capsys.readouterr().err
    assert re.search(r"^wtp snd Invoke tid=\d+ rid=0 class=2$", err, re.M)
    assert re.search(r"^wtp rcv Result tid=\d+ rid=0$", err, re.M)


def test_wapget_connectionless(udp_gateway, capsys):
    assert cli.wapget_main(["--gateway", udp_gateway, "--connectionless",
                            "http://site/index"]) == 0
    assert "Hi" in capsys.readouterr().out


def test_wapget_unreachable_gateway_exits_3(capsys):
    assert cli.wapget_main(["--gateway", f"127.0.0.1:{free_udp_port()}",
                            "http://site/index"]) == 3
    assert "fetch failed" in capsys.readouterr().err


def test_wapget_security_needs_psk_file(capsys):
    assert cli.wapget_main(["--gateway", "127.0.0.1:9", "--security", "full",
                            "http://x/"]) == 3
    assert "--psk-file" in capsys.readouterr().err


def test_wapget_psk_file_without_entries_exits_3(tmp_path, capsys):
    psk = tmp_path / "psk.txt"
    psk.write_text("# no identities yet\n")
    assert cli.wapget_main(["--gateway", "127.0.0.1:9", "--security", "mac",
                            "--psk-file", str(psk), "http://x/"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("wapget: ") and str(psk) in err


@pytest.mark.parametrize("main", [cli.wapget_main, cli.wapbrowse_main],
                         ids=["wapget", "wapbrowse"])
@pytest.mark.parametrize("port", ["0", "65536", "99999"])
def test_gateway_port_out_of_range_exits_2(capsys, main, port):
    with pytest.raises(SystemExit) as exit_info:
        main(["--gateway", f"127.0.0.1:{port}", "http://x/"])
    assert exit_info.value.code == 2
    assert "--gateway" in capsys.readouterr().err


# --- wapbrowse ----------------------------------------------------------------

def test_wapbrowse_unreachable_gateway_exits_3_and_leaves_no_thread(capsys):
    threads = _stack_threads()
    assert cli.wapbrowse_main(["--gateway", f"127.0.0.1:{free_udp_port()}",
                               "http://site/index"]) == 3
    assert capsys.readouterr().err.startswith("wapbrowse: ")
    assert _stack_threads() <= threads


def test_wapbrowse_follows_links_then_quits(udp_gateway, capsys, monkeypatch):
    answers = iter(["1", "q"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(answers))
    assert cli.wapbrowse_main(["--gateway", udp_gateway,
                               "http://site/index"]) == 0
    out = capsys.readouterr().out
    assert "[1] go" in out and "Done" in out
