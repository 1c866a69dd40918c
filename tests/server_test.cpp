//===- tests/server_test.cpp - staubd protocol and server tests -----------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Covers the staubd stack bottom-up: protocol framing edge cases over
/// socketpairs, evaluateQuery's verdicts and path labels, live-server
/// round trips over TCP, graceful-shutdown draining, and — under the tsan
/// preset's "Parallel" filter — many concurrent clients sharing one
/// worker pool.
///
//===----------------------------------------------------------------------===//

#include "server/Server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace staub;
using namespace staub::server;

namespace {

/// A satisfiable nonlinear query that survives the presolver (the
/// anchor sum defeats the all-zero witness) and therefore reaches the
/// bit-blaster.
const char *SatQuery = "(set-logic QF_NIA)\n"
                       "(declare-const x Int)\n"
                       "(declare-const y Int)\n"
                       "(declare-const z Int)\n"
                       "(assert (>= x 0)) (assert (<= x 20))\n"
                       "(assert (>= y 0)) (assert (<= y 20))\n"
                       "(assert (>= z 0)) (assert (<= z 20))\n"
                       "(assert (>= (+ x y) 5))\n"
                       "(assert (<= (+ (* x y) z) 380))\n"
                       "(check-sat)\n";

const char *UnsatQuery = "(set-logic QF_LIA)\n"
                         "(declare-const x Int)\n"
                         "(assert (>= x 10))\n"
                         "(assert (<= x 3))\n"
                         "(check-sat)\n";

/// Variant of SatQuery differing in one conjunct's constant, like a
/// near-duplicate VC stream.
std::string satQueryVariant(int Floor) {
  std::string Text = SatQuery;
  std::string From = "(>= (+ x y) 5)";
  std::string To = "(>= (+ x y) " + std::to_string(Floor) + ")";
  return Text.replace(Text.find(From), From.size(), To);
}

/// SatQuery over the box [0, Max] instead of [0, 20], with the product
/// bound scaled to match: a larger box needs a wider translation.
std::string satQueryInBox(long long Max) {
  std::string Text = SatQuery;
  for (size_t At = Text.find(" 20)"); At != std::string::npos;
       At = Text.find(" 20)", At + 1))
    Text.replace(At + 1, 2, std::to_string(Max));
  std::string From = " 380)";
  return Text.replace(Text.find(From) + 1, 3, std::to_string(Max * Max - 20));
}

//===--------------------------------------------------------------------===//
// Protocol framing over socketpairs (no live server needed).
//===--------------------------------------------------------------------===//

struct Pipe {
  int Read = -1, Write = -1;
  Pipe() {
    int Fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0)
        << std::strerror(errno);
    Read = Fds[0];
    Write = Fds[1];
  }
  ~Pipe() {
    if (Read >= 0)
      ::close(Read);
    closeWrite();
  }
  void closeWrite() {
    if (Write >= 0)
      ::close(Write);
    Write = -1;
  }
  void send(const std::string &Data) { ASSERT_TRUE(writeAll(Write, Data)); }
};

TEST(FramingTest, QueryFrameRoundTrips) {
  Pipe P;
  P.send(formatQuery("q7", SatQuery, 2.5));
  FrameReader Reader(P.Read);
  Frame F;
  std::string Error;
  ASSERT_EQ(Reader.next(F, Error), ReadStatus::Ok) << Error;
  EXPECT_EQ(F.Verb, "query");
  ASSERT_GE(F.Args.size(), 3u);
  EXPECT_EQ(F.Args[0], "q7");
  EXPECT_EQ(F.Args[1], std::to_string(std::strlen(SatQuery)));
  EXPECT_EQ(F.Args[2].substr(0, 8), "timeout=");
  EXPECT_EQ(F.Payload, SatQuery);
}

TEST(FramingTest, GarbageHeaderResyncsToNextFrame) {
  Pipe P;
  P.send("!!! not a verb we know\nping\n");
  FrameReader Reader(P.Read);
  Frame F;
  std::string Error;
  // Unknown verbs parse as Ok frames (the server answers `error` for
  // them); a query header with a malformed byte count is the BadHeader
  // case that must consume exactly one line.
  ASSERT_EQ(Reader.next(F, Error), ReadStatus::Ok);
  EXPECT_EQ(F.Verb, "!!!");
  ASSERT_EQ(Reader.next(F, Error), ReadStatus::Ok);
  EXPECT_EQ(F.Verb, "ping");
}

TEST(FramingTest, MalformedByteCountIsBadHeaderAndResyncs) {
  Pipe P;
  P.send("query q1 notanumber\nping\n");
  FrameReader Reader(P.Read);
  Frame F;
  std::string Error;
  ASSERT_EQ(Reader.next(F, Error), ReadStatus::BadHeader);
  ASSERT_EQ(Reader.next(F, Error), ReadStatus::Ok);
  EXPECT_EQ(F.Verb, "ping");
}

TEST(FramingTest, OversizedPayloadIsRejectedUnread) {
  Pipe P;
  P.send("query q1 5000000\n");
  FrameReader Reader(P.Read, /*MaxFrameBytes=*/4u << 20);
  Frame F;
  std::string Error;
  EXPECT_EQ(Reader.next(F, Error), ReadStatus::Oversized);
}

TEST(FramingTest, OversizedHeaderLineIsRejected) {
  Pipe P;
  std::string Junk(300, 'x');
  Junk += ' '; // Keep tokens bounded; no newline ever arrives.
  FrameReader Reader(P.Read, /*MaxFrameBytes=*/256);
  std::thread Feeder([&] {
    for (int I = 0; I < 8; ++I)
      writeAll(P.Write, Junk);
    P.closeWrite();
  });
  Frame F;
  std::string Error;
  EXPECT_EQ(Reader.next(F, Error), ReadStatus::Oversized);
  Feeder.join();
}

TEST(FramingTest, TruncatedPayloadClosesTheStream) {
  Pipe P;
  P.send("query q1 100\nonly a few bytes");
  P.closeWrite();
  FrameReader Reader(P.Read);
  Frame F;
  std::string Error;
  EXPECT_EQ(Reader.next(F, Error), ReadStatus::Truncated);
}

TEST(FramingTest, PayloadWithoutTerminatingNewlineIsTruncated) {
  Pipe P;
  P.send("query q1 2\nok"); // Missing the trailing '\n'.
  P.closeWrite();
  FrameReader Reader(P.Read);
  Frame F;
  std::string Error;
  EXPECT_EQ(Reader.next(F, Error), ReadStatus::Truncated);
}

TEST(FramingTest, CleanCloseBetweenFramesIsEof) {
  Pipe P;
  P.send("ping\n");
  P.closeWrite();
  FrameReader Reader(P.Read);
  Frame F;
  std::string Error;
  ASSERT_EQ(Reader.next(F, Error), ReadStatus::Ok);
  EXPECT_EQ(Reader.next(F, Error), ReadStatus::Eof);
}

//===--------------------------------------------------------------------===//
// evaluateQuery.
//===--------------------------------------------------------------------===//

TEST(EvaluateQueryTest, ParseErrorIsReportedNotFatal) {
  QueryResult R = evaluateQuery("(assert (this is not smtlib", nullptr, 5.0);
  EXPECT_FALSE(R.Ok);
  EXPECT_FALSE(R.Error.empty());
}

TEST(EvaluateQueryTest, NullCachesSolvesWithoutSharing) {
  QueryResult R = evaluateQuery(UnsatQuery, nullptr, 5.0);
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.Status, SolveStatus::Unsat);
}

TEST(EvaluateQueryTest, BoundedUnsatFallsBackToTheOriginal) {
  // The presolver cannot refute x + y > 2 /\ x + y < 1 and the bounded
  // refutation needs no guard, so the STAUB lane reverts and the plain
  // solve of the original answers; the label names the reverted path.
  QueryResult R = evaluateQuery("(set-logic QF_LIA)\n"
                                "(declare-const x Int)\n"
                                "(declare-const y Int)\n"
                                "(assert (> (+ x y) 2))\n"
                                "(assert (< (+ x y) 1))\n"
                                "(check-sat)\n",
                                nullptr, 10.0);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Status, SolveStatus::Unsat);
  EXPECT_EQ(R.Path, "fallback:bounded-unsat");
}

TEST(EvaluateQueryTest, BoundedUnknownFallsBackToTheOriginal) {
  // MiniSMT has no FP engine, so the bounded solve of the Real->FP
  // translation gives up at once and the exact simplex on the original
  // finds x = 2/3, y = 1/3.
  QueryResult R = evaluateQuery("(set-logic QF_LRA)\n"
                                "(declare-const x Real)\n"
                                "(declare-const y Real)\n"
                                "(assert (= (+ x y) 1.0))\n"
                                "(assert (= (- x y) (/ 1.0 3.0)))\n"
                                "(check-sat)\n",
                                nullptr, 10.0);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Status, SolveStatus::Sat);
  EXPECT_EQ(R.Path, "fallback:bounded-unknown");
}

//===--------------------------------------------------------------------===//
// Live server over loopback TCP.
//===--------------------------------------------------------------------===//

/// Reads one '\n'-terminated line off \p Fd (client side of the tests).
bool readResponseLine(int Fd, std::string &Buffer, std::string &Line) {
  for (;;) {
    size_t Pos = Buffer.find('\n');
    if (Pos != std::string::npos) {
      Line.assign(Buffer, 0, Pos);
      Buffer.erase(0, Pos + 1);
      return true;
    }
    char Chunk[4096];
    ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Buffer.append(Chunk, static_cast<size_t>(N));
  }
}

struct LiveServer {
  StaubServer Server;
  explicit LiveServer(ServerOptions Options = testOptions())
      : Server(Options) {
    std::string Error;
    EXPECT_TRUE(Server.start(&Error)) << Error;
  }
  static ServerOptions testOptions() {
    ServerOptions Options;
    Options.TcpPort = 0; // Ephemeral.
    Options.Workers = 4;
    return Options;
  }
  int connect() {
    std::string Error;
    int Fd = connectTcp(Server.tcpPort(), &Error);
    EXPECT_GE(Fd, 0) << Error;
    return Fd;
  }
};

TEST(ServerEndToEndTest, QueryRoundTripOverTcp) {
  LiveServer Live;
  int Fd = Live.connect();
  ASSERT_TRUE(writeAll(Fd, formatQuery("q1", SatQuery)));
  std::string Buffer, Line;
  ASSERT_TRUE(readResponseLine(Fd, Buffer, Line));
  EXPECT_EQ(Line.substr(0, 13), "result q1 sat") << Line;
  EXPECT_NE(Line.find("width="), std::string::npos);
  EXPECT_NE(Line.find("seconds="), std::string::npos);
  ::close(Fd);
}

TEST(ServerEndToEndTest, GarbageLineGetsErrorAndConnectionSurvives) {
  LiveServer Live;
  int Fd = Live.connect();
  ASSERT_TRUE(writeAll(Fd, "make me a sandwich\nping\n"));
  std::string Buffer, Line;
  ASSERT_TRUE(readResponseLine(Fd, Buffer, Line));
  EXPECT_EQ(Line.substr(0, 6), "error ") << Line;
  ASSERT_TRUE(readResponseLine(Fd, Buffer, Line));
  EXPECT_EQ(Line, "pong");
  ::close(Fd);
}

TEST(ServerEndToEndTest, NonFiniteTimeoutGetsErrorAndConnectionSurvives) {
  // timeout=inf would run the query until its SAT search ended. The server
  // answers an error without running it, and serves the next query on the
  // same connection.
  LiveServer Live;
  int Fd = Live.connect();
  std::string Payload = SatQuery;
  ASSERT_TRUE(writeAll(Fd, "query q1 " + std::to_string(Payload.size()) +
                               " timeout=inf\n" + Payload + "\n" +
                               formatQuery("q2", SatQuery)));
  std::string Buffer, Line;
  ASSERT_TRUE(readResponseLine(Fd, Buffer, Line));
  EXPECT_EQ(Line.substr(0, 21), "error q1 bad-timeout ") << Line;
  ASSERT_TRUE(readResponseLine(Fd, Buffer, Line));
  EXPECT_EQ(Line.substr(0, 13), "result q2 sat") << Line;
  ::close(Fd);
}

TEST(ServerEndToEndTest, OversizedQueryClosesConnectionButServerLives) {
  LiveServer Live;
  int Fd = Live.connect();
  ASSERT_TRUE(writeAll(Fd, "query big 99999999\n"));
  std::string Buffer, Line;
  // The server answers error then closes; reading eventually hits EOF.
  while (readResponseLine(Fd, Buffer, Line))
    EXPECT_EQ(Line.substr(0, 6), "error ");
  ::close(Fd);
  // A fresh connection still works.
  int Fd2 = Live.connect();
  ASSERT_TRUE(writeAll(Fd2, "ping\n"));
  Buffer.clear();
  ASSERT_TRUE(readResponseLine(Fd2, Buffer, Line));
  EXPECT_EQ(Line, "pong");
  ::close(Fd2);
}

TEST(ServerEndToEndTest, StatsVerbReportsCounters) {
  LiveServer Live;
  int Fd = Live.connect();
  ASSERT_TRUE(writeAll(Fd, formatQuery("q1", UnsatQuery)));
  std::string Buffer, Line;
  ASSERT_TRUE(readResponseLine(Fd, Buffer, Line)); // result q1 unsat ...
  ASSERT_TRUE(writeAll(Fd, "stats\n"));
  ASSERT_TRUE(readResponseLine(Fd, Buffer, Line));
  EXPECT_EQ(Line.substr(0, 6), "stats ");
  EXPECT_NE(Line.find("queries=1"), std::string::npos) << Line;
  EXPECT_NE(Line.find("failed="), std::string::npos) << Line;
  ::close(Fd);
}

TEST(ServerEndToEndTest, GracefulShutdownDrainsInFlightQueries) {
  LiveServer Live;
  int Fd = Live.connect();
  // Pipeline a batch, then shut the server down after the first answer:
  // every already-submitted query must still get exactly one response
  // line (a result once enqueued, or a shutting-down error if the
  // reader had not yet queued it) before the connection closes.
  const int Batch = 4;
  std::string Writes;
  for (int I = 0; I < Batch; ++I)
    Writes += formatQuery("q" + std::to_string(I), satQueryVariant(5 + I));
  ASSERT_TRUE(writeAll(Fd, Writes));
  std::string Buffer, Line;
  ASSERT_TRUE(readResponseLine(Fd, Buffer, Line));
  EXPECT_EQ(Line.substr(0, 7), "result ") << Line;
  Live.Server.requestShutdown();
  // Connections are only torn down once the queue has drained, so run
  // the blocking wait concurrently and read to EOF: every submitted
  // query must be answered before the FIN arrives.
  std::thread Stopper([&] { Live.Server.awaitShutdown(); });
  int Answered = 1;
  while (readResponseLine(Fd, Buffer, Line)) {
    EXPECT_TRUE(Line.substr(0, 7) == "result " ||
                Line.find("shutting-down") != std::string::npos)
        << Line;
    ++Answered;
  }
  EXPECT_EQ(Answered, Batch);
  ::close(Fd);
  Stopper.join();
}

TEST(ServerEndToEndTest, ShutdownVerbAnswersByeAndStopsAccepting) {
  LiveServer Live;
  int Fd = Live.connect();
  ASSERT_TRUE(writeAll(Fd, "shutdown\n"));
  std::string Buffer, Line;
  ASSERT_TRUE(readResponseLine(Fd, Buffer, Line));
  EXPECT_EQ(Line, "bye");
  ::close(Fd);
  Live.Server.awaitShutdown();
  std::string Error;
  EXPECT_LT(connectTcp(Live.Server.tcpPort(), &Error), 0);
}

//===--------------------------------------------------------------------===//
// Concurrency (runs under the tsan preset's Parallel filter).
//===--------------------------------------------------------------------===//

// Every worker serves a mix of query sizes in sequence, so a query often
// runs on SAT buffers that a larger or smaller one parked on the worker's
// thread (solver/Sat.h). Each answer must carry the status, path and width
// that evaluateQuery gives the same text on a fresh thread.
TEST(ServerParallelTest, MixedQueriesAnswerAsOnAFreshThread) {
  const std::vector<std::string> Queries = {
      UnsatQuery, satQueryInBox(20), satQueryVariant(9), satQueryInBox(2000),
      satQueryInBox(200000)};
  const double Timeout = 10.0;
  std::vector<QueryResult> Expected(Queries.size());
  for (size_t Q = 0; Q < Queries.size(); ++Q)
    std::thread([&, Q] {
      Expected[Q] = evaluateQuery(Queries[Q], nullptr, Timeout);
    }).join();
  for (const QueryResult &R : Expected)
    ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_LT(Expected[1].Width, Expected[3].Width);
  EXPECT_LT(Expected[3].Width, Expected[4].Width);

  LiveServer Live;
  const int Clients = 6;
  const int PerClient = 10;
  std::atomic<int> Correct{0};
  std::vector<std::thread> Threads;
  for (int C = 0; C < Clients; ++C)
    Threads.emplace_back([&, C] {
      int Fd = Live.connect();
      if (Fd < 0)
        return;
      // Query I of client C is Queries[(C + I) % size]; the id names I.
      std::string Writes;
      for (int I = 0; I < PerClient; ++I)
        Writes += formatQuery("c" + std::to_string(C) + "q" +
                                  std::to_string(I),
                              Queries[(C + I) % Queries.size()], Timeout);
      if (!writeAll(Fd, Writes)) {
        ::close(Fd);
        return;
      }
      // Workers answer in completion order, not submission order; match
      // responses to queries by id.
      std::string Buffer, Line;
      for (int I = 0; I < PerClient; ++I) {
        if (!readResponseLine(Fd, Buffer, Line))
          break;
        std::vector<std::string> Tokens = splitTokens(Line);
        if (Tokens.size() < 5 || Tokens[0] != "result") {
          ADD_FAILURE() << "client " << C << " got: " << Line;
          continue;
        }
        size_t Q = Tokens[1].find('q');
        int Index = std::stoi(Tokens[1].substr(Q + 1));
        const QueryResult &Want = Expected[(C + Index) % Queries.size()];
        if (Tokens[2] == toString(Want.Status) &&
            Tokens[3] == "path=" + Want.Path &&
            Tokens[4] == "width=" + std::to_string(Want.Width))
          Correct.fetch_add(1);
        else
          ADD_FAILURE() << "client " << C << " got: " << Line
                        << "; a fresh thread answers "
                        << toString(Want.Status) << " path=" << Want.Path
                        << " width=" << Want.Width;
      }
      ::close(Fd);
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Correct.load(), Clients * PerClient);
  ServerStats Stats = Live.Server.stats();
  EXPECT_EQ(Stats.QueriesServed, uint64_t(Clients * PerClient));
}

} // namespace
