//===- server/Server.h - staubd: persistent arbitrage service ---*- C++ -*-===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-lived arbitrage service behind `staubd`. A StaubServer
/// listens on a Unix or loopback-TCP socket, accepts framed batches of
/// SMT-LIB queries from concurrent clients (server/Protocol.h), runs each
/// one through evaluateQuery() on a worker pool with a per-query timeout,
/// and answers with the verdict plus per-query stats. Every query is
/// solved on its own: each worker parses into a fresh TermManager, so
/// workers share no solver state.
///
/// evaluateQuery() — one query through parse and runPortfolio's
/// Sequential policy (runStaub, then a fallback solve) — is exposed
/// directly so benches and tests can run the server's query path
/// without a socket.
///
//===----------------------------------------------------------------------===//

#ifndef STAUB_SERVER_SERVER_H
#define STAUB_SERVER_SERVER_H

#include "server/Protocol.h"
#include "staub/Staub.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace staub {
namespace server {

/// Server configuration.
struct ServerOptions {
  /// Unix socket path; used when nonempty (and unlinked on shutdown).
  std::string SocketPath;
  /// Loopback TCP port when SocketPath is empty; 0 binds an ephemeral
  /// port (readable via StaubServer::tcpPort() after start()).
  uint16_t TcpPort = 0;
  /// Worker threads; 0 = hardware concurrency.
  unsigned Workers = 0;
  /// Per-query solve budget when the client does not send timeout=.
  double DefaultTimeoutSeconds = 5.0;
  /// Frame size limit (server/Protocol.h).
  size_t MaxFrameBytes = DefaultMaxFrameBytes;
};

/// Result of one query evaluation.
struct QueryResult {
  bool Ok = false;            ///< False: parse/translation-level error.
  std::string Error;          ///< Set when !Ok.
  SolveStatus Status = SolveStatus::Unknown;
  /// The decisive StaubPath label, or "fallback:<path>" when the STAUB
  /// lane was not decisive and the original constraint was solved.
  std::string Path;
  unsigned Width = 0;         ///< Chosen translation width (0 if none).
  double Seconds = 0.0;       ///< Wall clock for the whole evaluation.
};

/// Runs one SMT-LIB query through the full arbitrage pipeline: fresh
/// TermManager, parse, then runPortfolio with the MiniSMT backend under
/// LanePolicy::Sequential (runStaub, and a plain fallback solve of the
/// original constraint when the STAUB lane is not decisive).
/// The SharedSolveCaches argument is ignored; perfbench names it.
QueryResult evaluateQuery(const std::string &SmtLib, SharedSolveCaches *,
                          double TimeoutSeconds);

/// Aggregate server statistics (the `stats` verb payload).
struct ServerStats {
  uint64_t QueriesServed = 0;
  uint64_t QueriesFailed = 0;
  uint64_t ConnectionsAccepted = 0;
};

/// The staubd server. start() spawns the accept thread, per-connection
/// reader threads, and the worker pool; requestShutdown() stops
/// accepting, drains in-flight queries (responses are still written),
/// and then tears the connections down. Thread-safe.
class StaubServer {
public:
  explicit StaubServer(const ServerOptions &Options);
  ~StaubServer();

  StaubServer(const StaubServer &) = delete;
  StaubServer &operator=(const StaubServer &) = delete;

  /// Binds and starts serving. Returns false (with \p Error) on failure.
  bool start(std::string *Error);

  /// Initiates graceful shutdown: stop accepting, finish queued and
  /// in-flight queries, flush responses, close connections. Idempotent.
  void requestShutdown();

  /// Blocks until all threads have exited (call after requestShutdown(),
  /// or rely on the destructor).
  void awaitShutdown();

  /// Resolved TCP port (meaningful for TCP servers after start()).
  uint16_t tcpPort() const { return BoundPort; }

  /// Counter snapshot.
  ServerStats stats() const;

private:
  struct Connection {
    int Fd = -1;
    std::thread Reader;
    std::mutex WriteMutex;
    /// Queries parsed off this connection but not yet answered; the
    /// connection may only be closed once this drops to zero.
    unsigned Pending = 0;
  };

  struct Job {
    std::shared_ptr<Connection> Conn;
    std::string Id;
    std::string SmtLib;
    double TimeoutSeconds = 0.0;
  };

  void acceptLoop();
  void readerLoop(std::shared_ptr<Connection> Conn);
  void workerLoop();
  void enqueue(Job J);
  bool respond(Connection &Conn, const std::string &Line);
  void closeListener();

  ServerOptions Options;
  /// Atomic: acceptLoop() reads it while requestShutdown() (any thread)
  /// swaps it to -1 in closeListener().
  std::atomic<int> ListenFd{-1};
  uint16_t BoundPort = 0;

  std::thread Acceptor;
  std::vector<std::thread> Workers;

  std::mutex Mutex;
  std::condition_variable QueueCv;
  std::condition_variable DrainCv;
  std::deque<Job> Queue;
  unsigned ActiveJobs = 0;
  bool ShuttingDown = false;
  bool Started = false;
  std::vector<std::shared_ptr<Connection>> Connections;

  std::atomic<uint64_t> QueriesServed{0};
  std::atomic<uint64_t> QueriesFailed{0};
  std::atomic<uint64_t> ConnectionsAccepted{0};
};

} // namespace server
} // namespace staub

#endif // STAUB_SERVER_SERVER_H
