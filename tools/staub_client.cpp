//===- tools/staub_client.cpp - staubd client -----------------------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Thin client for staubd: frames SMT-LIB queries (files, or stdin when
/// none are given) over the wire protocol (server/Protocol.h), prints
/// one verdict line per query, and exits nonzero if any query failed.
///
/// Usage:
///   staub-client (--socket=PATH | --tcp=PORT) [options] [file.smt2...]
/// Options:
///   --timeout=S   per-query solve budget forwarded to the server
///   --ping        round-trip a ping and exit
///   --stats       print the server's counters and exit
///   --shutdown    ask the server to shut down gracefully and exit
///
//===----------------------------------------------------------------------===//

#include "server/Protocol.h"
#include "solver/Solver.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

using namespace staub::server;

namespace {

struct ClientOptions {
  std::string SocketPath;
  uint16_t TcpPort = 0;
  bool UseTcp = false;
  bool Ping = false;
  bool Stats = false;
  bool Shutdown = false;
  double TimeoutSeconds = 0.0;
  std::vector<std::string> Files;
};

void printUsage() {
  std::fprintf(
      stderr,
      "usage: staub-client (--socket=PATH | --tcp=PORT) [--timeout=S]\n"
      "                    [--ping] [--stats] [--shutdown] [file.smt2...]\n"
      "       (no files: one query read from stdin)\n");
}

bool parseArgs(int Argc, char **Argv, ClientOptions &Options) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--socket=", 0) == 0) {
      Options.SocketPath = Arg.substr(9);
    } else if (Arg.rfind("--tcp=", 0) == 0) {
      Options.UseTcp = true;
      Options.TcpPort = static_cast<uint16_t>(std::atoi(Arg.c_str() + 6));
    } else if (Arg.rfind("--timeout=", 0) == 0) {
      auto Seconds = staub::parseTimeoutSeconds(Arg.substr(10));
      if (!Seconds) {
        std::fprintf(stderr, "staub-client: bad timeout '%s'\n", Arg.c_str());
        printUsage();
        return false;
      }
      Options.TimeoutSeconds = *Seconds;
    } else if (Arg == "--ping") {
      Options.Ping = true;
    } else if (Arg == "--stats") {
      Options.Stats = true;
    } else if (Arg == "--shutdown") {
      Options.Shutdown = true;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "staub-client: unknown argument '%s'\n",
                   Arg.c_str());
      printUsage();
      return false;
    } else {
      Options.Files.push_back(Arg);
    }
  }
  if (Options.SocketPath.empty() && !Options.UseTcp) {
    std::fprintf(stderr, "staub-client: need --socket=PATH or --tcp=PORT\n");
    printUsage();
    return false;
  }
  return true;
}

bool readWhole(std::istream &In, std::string &Out) {
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  Out = Buffer.str();
  return In.good() || In.eof();
}

} // namespace

int main(int Argc, char **Argv) {
  ClientOptions Options;
  if (!parseArgs(Argc, Argv, Options))
    return 2;

  std::string Error;
  int Fd = Options.UseTcp ? connectTcp(Options.TcpPort, &Error)
                          : connectUnix(Options.SocketPath, &Error);
  if (Fd < 0) {
    std::fprintf(stderr, "staub-client: %s\n", Error.c_str());
    return 1;
  }
  FrameReader Reader(Fd);

  auto RoundTrip = [&](const std::string &Request, Frame &Reply) {
    if (!writeAll(Fd, Request)) {
      std::fprintf(stderr, "staub-client: write failed\n");
      return false;
    }
    ReadStatus Status = Reader.next(Reply, Error);
    if (Status != ReadStatus::Ok) {
      std::fprintf(stderr, "staub-client: %s\n",
                   Error.empty() ? "connection closed" : Error.c_str());
      return false;
    }
    return true;
  };

  int Exit = 0;
  Frame Reply;
  if (Options.Ping) {
    if (!RoundTrip("ping\n", Reply) || Reply.Verb != "pong")
      Exit = 1;
    else
      std::printf("pong\n");
  } else if (Options.Stats) {
    if (!RoundTrip("stats\n", Reply) || Reply.Verb != "stats") {
      Exit = 1;
    } else {
      for (const std::string &Pair : Reply.Args)
        std::printf("%s\n", Pair.c_str());
    }
  } else if (Options.Shutdown) {
    if (!RoundTrip("shutdown\n", Reply) || Reply.Verb != "bye")
      Exit = 1;
    else
      std::printf("bye\n");
  } else {
    // Queries: each file is one query; stdin when no files were given.
    std::vector<std::pair<std::string, std::string>> Queries;
    if (Options.Files.empty()) {
      std::string Text;
      if (!readWhole(std::cin, Text)) {
        std::fprintf(stderr, "staub-client: failed to read stdin\n");
        ::close(Fd);
        return 1;
      }
      Queries.emplace_back("stdin", Text);
    } else {
      for (const std::string &Path : Options.Files) {
        std::ifstream In(Path);
        std::string Text;
        if (!In || !readWhole(In, Text)) {
          std::fprintf(stderr, "staub-client: cannot read %s\n", Path.c_str());
          ::close(Fd);
          return 1;
        }
        Queries.emplace_back(Path, Text);
      }
    }

    // Pipeline all queries, then collect all responses; the server tags
    // each response with the query id, so order does not matter.
    for (size_t I = 0; I < Queries.size(); ++I)
      if (!writeAll(Fd, formatQuery("q" + std::to_string(I),
                                    Queries[I].second,
                                    Options.TimeoutSeconds))) {
        std::fprintf(stderr, "staub-client: write failed\n");
        ::close(Fd);
        return 1;
      }
    for (size_t I = 0; I < Queries.size(); ++I) {
      ReadStatus Status = Reader.next(Reply, Error);
      if (Status != ReadStatus::Ok) {
        std::fprintf(stderr, "staub-client: %s\n",
                     Error.empty() ? "connection closed" : Error.c_str());
        Exit = 1;
        break;
      }
      if (Reply.Verb == "result" && Reply.Args.size() >= 2) {
        size_t Index = Reply.Args[0].size() > 1
                           ? std::strtoul(Reply.Args[0].c_str() + 1, nullptr,
                                          10)
                           : 0;
        const std::string &Name =
            Index < Queries.size() ? Queries[Index].first : Reply.Args[0];
        std::printf("%s: %s", Name.c_str(), Reply.Args[1].c_str());
        for (size_t A = 2; A < Reply.Args.size(); ++A)
          std::printf(" %s", Reply.Args[A].c_str());
        std::printf("\n");
      } else {
        std::fprintf(stderr, "staub-client: server error:");
        for (const std::string &Arg : Reply.Args)
          std::fprintf(stderr, " %s", Arg.c_str());
        std::fprintf(stderr, "\n");
        Exit = 1;
      }
    }
  }
  ::close(Fd);
  return Exit;
}
