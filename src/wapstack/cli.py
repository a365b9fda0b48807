"""Command-line entry points: wmlc, wapgw, wapget, wapbrowse."""

from __future__ import annotations

import argparse
import logging
import signal
import sys
import threading
import time

from . import wml, wtls
from .bearer import UdpBearer
from .gateway import Gateway, GatewayConfig, GatewayError, parse_config_file
from .useragent import EmptyDeck, UserAgent, render
from .wdp import WdpAddress


def wmlc_main(argv=None) -> int:
    """Encode/decode WML files to/from the tokenized binary form."""
    parser = argparse.ArgumentParser(prog="wmlc",
                                     description="WML token codec")
    parser.add_argument("command", choices=["encode", "decode"])
    parser.add_argument("file", help="input file ('-' for stdin)")
    args = parser.parse_args(argv)
    if args.file == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(args.file, "rb") as fh:
            data = fh.read()
    try:
        if args.command == "encode":
            out = wml.encode(wml.parse(data.decode("ascii")))
            sys.stdout.buffer.write(out)
        else:
            doc = wml.decode(data)
            sys.stdout.write(wml.serialize(doc) + "\n")
    except (wml.WmlError, UnicodeDecodeError) as exc:
        print(f"wmlc: {exc}", file=sys.stderr)
        return 1
    return 0


_SECURITY_CHOICES = [wtls.MODE_OFF, wtls.MODE_INTEGRITY, wtls.MODE_FULL]


# (argparse dest, GatewayConfig key) of each wapgw flag that overrides the file
_FLAG_KEYS = [("listen", "listen_port"),
              ("connectionless_port", "connectionless_port"),
              ("bearer", "bearer"), ("security", "security"),
              ("psk_file", "psk_file"), ("http_timeout_ms", "http_timeout_ms"),
              ("session_ttl_s", "session_ttl_s"), ("log_level", "log_level")]


def _gateway_config(args) -> GatewayConfig:
    values: dict[str, str] = {}
    if args.config:
        values = parse_config_file(args.config)
    config = GatewayConfig()
    casts = {"listen_port": int, "connectionless_port": int,
             "http_timeout_ms": int, "session_ttl_s": int}
    for key, value in values.items():
        if key == "impairments" or not hasattr(config, key):  # no text form
            raise ValueError(f"unknown config key {key!r}")
        setattr(config, key, casts.get(key, str)(value))
    # command-line flags override the file
    for dest, key in _FLAG_KEYS:
        value = getattr(args, dest, None)
        if value is not None:
            setattr(config, key, value)
    return config.validate()


def wapgw_main(argv=None) -> int:
    """Run the gateway until interrupted.

    Exit codes: 0 clean shutdown, 1 config error, 2 bind failure.
    """
    parser = argparse.ArgumentParser(prog="wapgw", description="WAP gateway")
    parser.add_argument("--listen", type=int, default=None,
                        help="session service port (default 9201)")
    parser.add_argument("--connectionless-port", type=int, default=None)
    parser.add_argument("--bearer", choices=["sim", "udp"], default=None)
    parser.add_argument("--security", choices=_SECURITY_CHOICES, default=None)
    parser.add_argument("--psk-file", default=None)
    parser.add_argument("--http-timeout-ms", type=int, default=None)
    parser.add_argument("--session-ttl-s", type=int, default=None)
    parser.add_argument("--config", default=None, help="key = value file")
    parser.add_argument("--log-level", default=None,
                        help="debug, info, warning, error or critical "
                             "(default info)")
    args = parser.parse_args(argv)

    logging.basicConfig(format="%(asctime)s %(levelname)s %(message)s")
    try:
        config = _gateway_config(args)
        logging.getLogger().setLevel(config.log_level.upper())
        if config.bearer == "sim":
            raise ValueError("the sim bearer is in-process only; "
                             "use --bearer udp from the command line")
        gateway = Gateway(config)  # reads the PSK file before it binds
    except GatewayError as exc:
        print(f"wapgw: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"wapgw: config error: {exc}", file=sys.stderr)
        return 1

    stop = threading.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda *_: stop.set())
    logging.getLogger("wapgw").info(
        "listening on %s (session port %d, connectionless %d)",
        gateway.bearer_addr, config.listen_port, config.connectionless_port)
    stop.wait()
    time.sleep(2.0)  # let replies to fetches in flight go out
    gateway.close()
    return 0


def _parse_gateway_arg(value: str) -> WdpAddress:
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit() or not 0 < int(port) < 65536:
        raise argparse.ArgumentTypeError("expected host:port, port 1-65535")
    return WdpAddress(f"{host}:{port}", int(port))


def _load_client_psk(path: str, identity: str | None) -> tuple[bytes, bytes]:
    table = wtls.load_psk_file(path)
    if identity is not None:
        ident = identity.encode("ascii")
        if ident not in table:
            raise ValueError(f"identity {identity!r} not in {path}")
        return ident, table[ident]
    if not table:
        raise ValueError(f"no identity in {path}")
    ident = next(iter(table))
    return ident, table[ident]


def _make_useragent(args) -> UserAgent:
    security = args.security or wtls.MODE_OFF
    identity, psk = (b"client", b"")
    if security != wtls.MODE_OFF:
        if not args.psk_file:
            raise ValueError("--psk-file is required with --security")
        identity, psk = _load_client_psk(args.psk_file, args.identity)
    trace = None
    if getattr(args, "trace", False):
        def trace(event):
            print(f"wtp {event.direction} {event.pdu_type} tid={event.tid} "
                  f"rid={int(event.rid)}"
                  + (f" class={event.tclass}" if event.tclass is not None else ""),
                  file=sys.stderr)
    # last, so that a bad argument leaves no socket or reader thread
    return UserAgent(args.gateway, UdpBearer(), security=security, psk=psk,
                     identity=identity, trace=trace)


def _print_result(result) -> None:
    if result.document is not None:
        deck = render(result.document)
        for line in deck.lines:
            print(line)
    else:
        sys.stdout.buffer.write(result.reply.body)
        if not result.reply.body.endswith(b"\n"):
            sys.stdout.write("\n")


def wapget_main(argv=None) -> int:
    """Fetch one URL through a gateway. Exit codes: 0 ok, 3 fetch failure."""
    parser = argparse.ArgumentParser(prog="wapget", description="WAP fetch")
    parser.add_argument("--gateway", type=_parse_gateway_arg, required=True,
                        help="gateway UDP address, host:port")
    parser.add_argument("--security", choices=_SECURITY_CHOICES, default=None)
    parser.add_argument("--psk-file", default=None)
    parser.add_argument("--identity", default=None)
    parser.add_argument("--connectionless", action="store_true")
    parser.add_argument("--trace", action="store_true",
                        help="print per-PDU trace lines to stderr")
    parser.add_argument("url")
    args = parser.parse_args(argv)
    try:
        ua = _make_useragent(args)
    except (ValueError, OSError, wtls.WtlsError) as exc:
        print(f"wapget: {exc}", file=sys.stderr)
        return 3
    try:
        result = ua.fetch(args.url, connectionless=args.connectionless)
        if result.reply.status >= 400:
            print(f"wapget: gateway replied {result.reply.status}",
                  file=sys.stderr)
            _print_result(result)
            return 3
        _print_result(result)
        return 0
    except Exception as exc:
        print(f"wapget: fetch failed: {exc}", file=sys.stderr)
        return 3
    finally:
        ua.close()


def wapbrowse_main(argv=None) -> int:
    """Interactive browsing: 'n' follows link n, 'q' quits."""
    parser = argparse.ArgumentParser(prog="wapbrowse",
                                     description="interactive WAP browser")
    parser.add_argument("--gateway", type=_parse_gateway_arg, required=True)
    parser.add_argument("--security", choices=_SECURITY_CHOICES, default=None)
    parser.add_argument("--psk-file", default=None)
    parser.add_argument("--identity", default=None)
    parser.add_argument("url")
    args = parser.parse_args(argv)
    try:
        ua = _make_useragent(args)
        result = ua.fetch(args.url)
        if result.document is None:
            _print_result(result)
            return 0
        deck = render(result.document)
    except Exception as exc:
        print(f"wapbrowse: {exc}", file=sys.stderr)
        return 3
    try:
        while True:
            for line in deck.lines:
                print(line)
            try:
                choice = input("> ").strip()
            except EOFError:
                return 0
            if choice in ("q", "quit", ""):
                return 0
            if not choice.isdigit():
                print("enter a link number or q")
                continue
            try:
                result, deck = ua.navigate(result, deck, int(choice))
            except Exception as exc:
                print(f"wapbrowse: {exc}")
    finally:
        ua.close()
