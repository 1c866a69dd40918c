//===- tools/staubd.cpp - Persistent arbitrage service --------------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// staubd: the long-lived theory-arbitrage server. Listens on a Unix
/// socket (or loopback TCP) and answers framed SMT-LIB queries from
/// concurrent clients (protocol in server/Protocol.h, docs/SERVER.md)
/// with a pool of workers, each query solved on its own.
///
/// Usage:
///   staubd --socket=PATH | --tcp=PORT   serve (TCP port 0 = ephemeral;
///                                       the bound port is printed)
/// Options:
///   --workers=N      worker threads (default: hardware concurrency)
///   --timeout=S      default per-query solve budget (default 5)
///   --stats          connect to a RUNNING server instead of serving, ask
///                    for its counters, print them, and exit
///
/// SIGINT/SIGTERM trigger a graceful shutdown: stop accepting, drain
/// in-flight queries, flush responses, exit.
///
//===----------------------------------------------------------------------===//

#include "server/Server.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <unistd.h>

using namespace staub;
using namespace staub::server;

namespace {

struct DaemonOptions {
  std::string SocketPath;
  uint16_t TcpPort = 0;
  bool UseTcp = false;
  bool StatsMode = false;
  unsigned Workers = 0;
  double TimeoutSeconds = 5.0;
};

void printUsage() {
  std::fprintf(stderr,
               "usage: staubd (--socket=PATH | --tcp=PORT) [--workers=N]\n"
               "              [--timeout=S] [--stats]\n");
}

bool parseArgs(int Argc, char **Argv, DaemonOptions &Options) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--socket=", 0) == 0) {
      Options.SocketPath = Arg.substr(9);
    } else if (Arg.rfind("--tcp=", 0) == 0) {
      Options.UseTcp = true;
      Options.TcpPort = static_cast<uint16_t>(std::atoi(Arg.c_str() + 6));
    } else if (Arg.rfind("--workers=", 0) == 0) {
      Options.Workers = static_cast<unsigned>(std::atoi(Arg.c_str() + 10));
    } else if (Arg.rfind("--timeout=", 0) == 0) {
      Options.TimeoutSeconds = std::atof(Arg.c_str() + 10);
    } else if (Arg == "--stats") {
      Options.StatsMode = true;
    } else {
      std::fprintf(stderr, "staubd: unknown argument '%s'\n", Arg.c_str());
      printUsage();
      return false;
    }
  }
  if (Options.SocketPath.empty() && !Options.UseTcp) {
    std::fprintf(stderr, "staubd: need --socket=PATH or --tcp=PORT\n");
    printUsage();
    return false;
  }
  if (!Options.SocketPath.empty() && Options.UseTcp) {
    std::fprintf(stderr, "staubd: --socket and --tcp are exclusive\n");
    return false;
  }
  return true;
}

// --stats: one-shot client against a live server.
int runStatsClient(const DaemonOptions &Options) {
  std::string Error;
  int Fd = Options.UseTcp ? connectTcp(Options.TcpPort, &Error)
                          : connectUnix(Options.SocketPath, &Error);
  if (Fd < 0) {
    std::fprintf(stderr, "staubd --stats: %s\n", Error.c_str());
    return 1;
  }
  if (!writeAll(Fd, "stats\n")) {
    std::fprintf(stderr, "staubd --stats: write failed\n");
    ::close(Fd);
    return 1;
  }
  FrameReader Reader(Fd);
  Frame F;
  ReadStatus Status = Reader.next(F, Error);
  ::close(Fd);
  if (Status != ReadStatus::Ok || F.Verb != "stats") {
    std::fprintf(stderr, "staubd --stats: unexpected reply\n");
    return 1;
  }
  for (const std::string &Pair : F.Args)
    std::printf("%s\n", Pair.c_str());
  return 0;
}

std::atomic<bool> SignalStop{false};

void onSignal(int) { SignalStop.store(true); }

} // namespace

int main(int Argc, char **Argv) {
  DaemonOptions Cli;
  if (!parseArgs(Argc, Argv, Cli))
    return 2;
  if (Cli.StatsMode)
    return runStatsClient(Cli);

  // A client that disconnects mid-response must not kill the server.
  std::signal(SIGPIPE, SIG_IGN);

  ServerOptions Options;
  Options.SocketPath = Cli.SocketPath;
  Options.TcpPort = Cli.TcpPort;
  Options.Workers = Cli.Workers;
  Options.DefaultTimeoutSeconds = Cli.TimeoutSeconds;

  StaubServer Server(Options);
  std::string Error;
  if (!Server.start(&Error)) {
    std::fprintf(stderr, "staubd: %s\n", Error.c_str());
    return 1;
  }
  if (Cli.UseTcp)
    std::printf("staubd: listening on 127.0.0.1:%u\n",
                static_cast<unsigned>(Server.tcpPort()));
  else
    std::printf("staubd: listening on %s\n", Cli.SocketPath.c_str());
  std::fflush(stdout);

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  // The accept/reader/worker threads do all the work; this thread only
  // watches for the shutdown signal (either a signal or the protocol's
  // `shutdown` verb, which flips the same server state).
  std::thread SignalWatcher([&] {
    while (!SignalStop.load())
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    Server.requestShutdown();
  });

  Server.awaitShutdown();
  SignalStop.store(true); // Protocol-initiated shutdown: release the watcher.
  SignalWatcher.join();

  ServerStats Stats = Server.stats();
  std::printf("staubd: served %llu queries (%llu failed)\n",
              static_cast<unsigned long long>(Stats.QueriesServed),
              static_cast<unsigned long long>(Stats.QueriesFailed));
  return 0;
}
